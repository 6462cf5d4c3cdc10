"""Shared conformance suite for the Executor layer.

Every test in :class:`TestExecutorConformance` runs against every
executor; the central contract is that for a fixed cluster seed the
backends produce bit-identical collections, identical RNG end states and
the same recorded phase structure.
"""

import pytest

from repro.cluster import (
    GENERATION,
    BroadcastPhase,
    Executor,
    GatherPhase,
    GeneratePhase,
    MachineFailure,
    MapPhase,
    MasterPhase,
    MultiprocessingExecutor,
    SimulatedCluster,
    SimulatedExecutor,
    SocketExecutor,
    as_executor,
    make_executor,
)
from repro.core import diimm

EXECUTOR_NAMES = ("simulated", "multiprocessing", "socket")


def build_executor(name, graph, num_machines=3, seed=5, backend="flat", **kwargs):
    cluster = SimulatedCluster(num_machines, seed=seed)
    cluster.init_collections(graph.num_nodes, backend=backend)
    return make_executor(name, cluster, graph=graph, **kwargs)


@pytest.fixture(params=EXECUTOR_NAMES)
def executor_name(request):
    return request.param


class TestExecutorConformance:
    def test_generate_respects_counts(self, executor_name, small_wc_graph):
        executor = build_executor(executor_name, small_wc_graph)
        counts = (10, 0, 25)
        result = executor.run_phase(GeneratePhase("t/gen", counts=counts))
        assert result.results == list(counts)
        assert [m.collection.num_sets for m in executor.machines] == list(counts)

    @pytest.mark.parametrize("backend", ["flat", "reference"])
    @pytest.mark.parametrize(
        "model,method",
        [
            ("ic", "bfs"),
            ("lt", "bfs"),
            ("ic", "subsim"),
            ("ic", "vectorized"),
            ("lt", "vectorized"),
        ],
    )
    def test_backends_agree_bit_for_bit(self, small_wc_graph, backend, model, method):
        """Same seed => same collections and same machine RNG end states."""
        snapshots = {}
        for name in EXECUTOR_NAMES:
            executor = build_executor(name, small_wc_graph, backend=backend)
            executor.run_phase(
                GeneratePhase(
                    "t/gen", counts=(20, 13, 7), model=model, method=method
                )
            )
            snapshots[name] = (
                [
                    [m.collection.get(j).tolist() for j in range(m.collection.num_sets)]
                    for m in executor.machines
                ],
                [m.collection.total_edges_examined for m in executor.machines],
                [m.rng.bit_generator.state for m in executor.machines],
            )
        sim, mp_ = snapshots["simulated"], snapshots["multiprocessing"]
        assert sim[0] == mp_[0]
        assert sim[1] == mp_[1]
        assert sim[2] == mp_[2]

    def test_generation_phase_recorded(self, executor_name, small_wc_graph):
        executor = build_executor(executor_name, small_wc_graph)
        executor.run_phase(GeneratePhase("t/gen", counts=(5, 5, 5)))
        phases = executor.metrics.phases_in(GENERATION)
        assert [p.label for p in phases] == ["t/gen"]
        assert len(phases[0].machine_times) == 3
        assert all(t >= 0.0 for t in phases[0].machine_times)
        assert phases[0].parallel_time == max(phases[0].machine_times)

    def test_slowdown_scales_generation_times(self, executor_name, small_wc_graph):
        cluster = SimulatedCluster(2, seed=5, slowdowns=[1.0, 100.0])
        cluster.init_collections(small_wc_graph.num_nodes)
        executor = make_executor(executor_name, cluster, graph=small_wc_graph)
        result = executor.run_phase(GeneratePhase("t/gen", counts=(200, 200)))
        # Machine 1 draws the same work but is metered 100x slower.
        assert result.machine_times[1] > result.machine_times[0]

    def test_generate_into_state_targets(self, executor_name, small_wc_graph):
        from repro.ris import make_collection

        executor = build_executor(executor_name, small_wc_graph)
        targets = tuple(
            make_collection(small_wc_graph.num_nodes, "flat") for __ in executor.machines
        )
        executor.run_phase(GeneratePhase("t/gen", counts=(4, 4, 4), targets=targets))
        assert [t.num_sets for t in targets] == [4, 4, 4]
        # default collections untouched
        assert [m.collection.num_sets for m in executor.machines] == [0, 0, 0]

    def test_counts_length_validated(self, executor_name, small_wc_graph):
        executor = build_executor(executor_name, small_wc_graph)
        with pytest.raises(ValueError, match="generation counts"):
            executor.run_phase(GeneratePhase("t/gen", counts=(1, 2)))

    def test_targets_length_validated(self, executor_name, small_wc_graph):
        executor = build_executor(executor_name, small_wc_graph)
        with pytest.raises(ValueError, match="generation targets"):
            executor.run_phase(
                GeneratePhase(
                    "t/gen",
                    counts=(1, 1, 1),
                    targets=(executor.machines[0].collection,),
                )
            )

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            GeneratePhase("t/gen", counts=(3, -1, 2))

    def test_generation_failure_names_the_machine(self, executor_name, small_wc_graph):
        executor = build_executor(executor_name, small_wc_graph)
        # Machine 1's first index overflows the int64 id array: its draws raise.
        with pytest.raises(MachineFailure) as info:
            executor.run_phase(GeneratePhase("t/gen", counts=(2, 2, 2), starts=(0, 2**63, 0)))
        assert info.value.machine_id == 1
        assert info.value.__cause__ is not None

    def test_map_phase(self, executor_name, small_wc_graph):
        executor = build_executor(executor_name, small_wc_graph)
        result = executor.run_phase(MapPhase("t/map", lambda m: m.machine_id + 10))
        assert result.results == [10, 11, 12]
        assert result.category == "computation"
        assert len(result.machine_times) == 3

    def test_map_phase_failure(self, executor_name, small_wc_graph):
        executor = build_executor(executor_name, small_wc_graph)

        def boom(machine):
            if machine.machine_id == 1:
                raise RuntimeError("kaput")
            return 0

        with pytest.raises(MachineFailure) as info:
            executor.run_phase(MapPhase("t/map", boom))
        assert info.value.machine_id == 1

    def test_gather_and_broadcast_phases(self, executor_name, small_wc_graph):
        executor = build_executor(executor_name, small_wc_graph)
        gathered = executor.run_phase(GatherPhase("t/gather", (100, 200, 300)))
        assert gathered.num_bytes == 600
        assert gathered.category == "communication"
        broadcast = executor.run_phase(BroadcastPhase("t/bcast", 8))
        assert broadcast.num_bytes == 24

    def test_master_phase(self, executor_name, small_wc_graph):
        executor = build_executor(executor_name, small_wc_graph)
        result = executor.run_phase(MasterPhase("t/master", lambda: {"x": 1}))
        assert result.results == {"x": 1}
        assert result.category == "computation"

    def test_unknown_phase_rejected(self, executor_name, small_wc_graph):
        executor = build_executor(executor_name, small_wc_graph)
        with pytest.raises(TypeError, match="unknown phase plan"):
            executor.run_phase(object())

    def test_generate_without_collections(self, executor_name, small_wc_graph):
        cluster = SimulatedCluster(2, seed=0)
        executor = make_executor(executor_name, cluster, graph=small_wc_graph)
        with pytest.raises(ValueError, match="no collection"):
            executor.run_phase(GeneratePhase("t/gen", counts=(1, 1)))


class TestFactories:
    @pytest.mark.parametrize(
        "backend", [SimulatedExecutor, MultiprocessingExecutor, SocketExecutor]
    )
    def test_backends_share_the_one_generation_loop(self, backend):
        """Retries, metering and recovery live in Executor._run_generate;
        a backend that overrides it has grown a second loop."""
        assert backend._run_generate is Executor._run_generate

    def test_make_executor_unknown_name(self, small_wc_graph):
        cluster = SimulatedCluster(2, seed=0)
        with pytest.raises(ValueError, match="unknown executor"):
            make_executor("mpi", cluster, graph=small_wc_graph)

    def test_multiprocessing_requires_graph(self):
        cluster = SimulatedCluster(2, seed=0)
        with pytest.raises(ValueError, match="requires the graph"):
            MultiprocessingExecutor(cluster)

    def test_simulated_without_graph_rejects_generation(self, small_wc_graph):
        cluster = SimulatedCluster(2, seed=0)
        cluster.init_collections(small_wc_graph.num_nodes)
        executor = SimulatedExecutor(cluster)
        with pytest.raises(ValueError, match="needs a graph"):
            executor.run_phase(GeneratePhase("t/gen", counts=(1, 1)))

    def test_as_executor_wraps_cluster(self):
        cluster = SimulatedCluster(2, seed=0)
        executor = as_executor(cluster)
        assert isinstance(executor, SimulatedExecutor)
        assert executor.cluster is cluster

    def test_as_executor_passthrough(self, small_wc_graph):
        cluster = SimulatedCluster(2, seed=0)
        executor = SimulatedExecutor(cluster, graph=small_wc_graph)
        assert as_executor(executor) is executor

    def test_as_executor_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_executor("cluster")

    def test_sampler_cache_reused(self, small_wc_graph):
        cluster = SimulatedCluster(2, seed=0)
        executor = SimulatedExecutor(cluster, graph=small_wc_graph)
        assert executor.sampler("ic", "bfs") is executor.sampler("ic", "bfs")
        assert executor.sampler("ic", "bfs") is not executor.sampler("lt", "bfs")


class TestEndToEnd:
    def test_diimm_identical_across_executors(self, small_wc_graph):
        results = {
            name: diimm(
                small_wc_graph,
                5,
                num_machines=3,
                eps=0.7,
                seed=11,
                executor=name,
            )
            for name in EXECUTOR_NAMES
        }
        sim, mp_ = results["simulated"], results["multiprocessing"]
        assert sim.seeds == mp_.seeds
        assert sim.num_rr_sets == mp_.num_rr_sets
        assert sim.total_rr_size == mp_.total_rr_size
        assert sim.estimated_spread == pytest.approx(mp_.estimated_spread)
        assert sim.params["executor"] == "simulated"
        assert mp_.params["executor"] == "multiprocessing"
        # identical phase structure, backend-independent
        assert [p.label for p in sim.metrics.phases] == [
            p.label for p in mp_.metrics.phases
        ]

"""Shared conformance suite for the Executor layer.

Every test in :class:`TestExecutorConformance` runs against every
executor; the central contract is that for a fixed cluster seed the
backends produce bit-identical collections and the same recorded phase
structure.
"""

import pytest

from repro.cluster import (
    GENERATION,
    gigabit_cluster,
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
    make_executor,
)
from repro.core import diimm
from repro.ris import FlatRRCollection
from tests.oracle import STORES

EXECUTOR_NAMES = ("simulated", "multiprocessing", "socket")


def build_executor(name, graph, num_machines=3, seed=5, **kwargs):
    cluster = SimulatedCluster(num_machines, seed=seed)
    return make_executor(name, cluster, graph=graph, **kwargs)


def generate(graph, label, counts, backend="flat", **options):
    """A generation plan growing fresh stores, one per entry of ``counts``."""
    targets = tuple(STORES[backend](graph.num_nodes) for __ in counts)
    return GeneratePhase(label, counts=counts, targets=targets, **options)


@pytest.fixture(params=EXECUTOR_NAMES)
def executor_name(request):
    return request.param


class TestExecutorConformance:
    def test_generate_respects_counts(self, executor_name, small_wc_graph):
        executor = build_executor(executor_name, small_wc_graph)
        counts = (10, 0, 25)
        plan = generate(small_wc_graph, "t/gen", counts)
        result = executor.run_phase(plan)
        assert result.results == list(counts)
        assert [store.num_sets for store in plan.targets] == list(counts)

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
        """Same seed => same collections and the same edges examined."""
        snapshots = {}
        for name in EXECUTOR_NAMES:
            executor = build_executor(name, small_wc_graph)
            plan = generate(
                small_wc_graph, "t/gen", (20, 13, 7), backend, model=model, method=method
            )
            executor.run_phase(plan)
            snapshots[name] = (
                [[s.get(j).tolist() for j in range(s.num_sets)] for s in plan.targets],
                [store.total_edges_examined for store in plan.targets],
            )
        sim, mp_ = snapshots["simulated"], snapshots["multiprocessing"]
        assert sim[0] == mp_[0]
        assert sim[1] == mp_[1]

    def test_generation_phase_recorded(self, executor_name, small_wc_graph):
        executor = build_executor(executor_name, small_wc_graph)
        executor.run_phase(generate(small_wc_graph, "t/gen", (5, 5, 5)))
        phases = executor.metrics.phases_in(GENERATION)
        assert [p.label for p in phases] == ["t/gen"]
        assert len(phases[0].machine_times) == 3
        assert all(t >= 0.0 for t in phases[0].machine_times)
        assert phases[0].parallel_time == max(phases[0].machine_times)

    def test_slowdown_scales_generation_times(self, executor_name, small_wc_graph):
        cluster = SimulatedCluster(2, seed=5, slowdowns=[1.0, 100.0])
        executor = make_executor(executor_name, cluster, graph=small_wc_graph)
        result = executor.run_phase(generate(small_wc_graph, "t/gen", (200, 200)))
        # Machine 1 draws the same work but is metered 100x slower.
        assert result.machine_times[1] > result.machine_times[0]

    def test_generate_into_state_targets(self, executor_name, small_wc_graph):
        """A phase appends to the stores it is handed, after what they hold."""
        executor = build_executor(executor_name, small_wc_graph)
        first = generate(small_wc_graph, "t/gen", (4, 4, 4))
        executor.run_phase(first)
        executor.run_phase(GeneratePhase("t/more", counts=(1, 2, 3), targets=first.targets))
        assert [t.num_sets for t in first.targets] == [5, 6, 7]
        fresh = generate(small_wc_graph, "t/all", (5, 6, 7))
        executor.run_phase(fresh)
        for grown, whole in zip(first.targets, fresh.targets):
            assert grown.nodes.tolist() == whole.nodes.tolist()

    def test_counts_length_validated(self, executor_name, small_wc_graph):
        executor = build_executor(executor_name, small_wc_graph)
        with pytest.raises(ValueError, match="generation counts"):
            executor.run_phase(generate(small_wc_graph, "t/gen", (1, 2)))

    def test_targets_length_validated(self, executor_name, small_wc_graph):
        executor = build_executor(executor_name, small_wc_graph)
        with pytest.raises(ValueError, match="generation targets"):
            executor.run_phase(
                GeneratePhase(
                    "t/gen",
                    counts=(1, 1, 1),
                    targets=(FlatRRCollection(small_wc_graph.num_nodes),),
                )
            )

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            GeneratePhase("t/gen", counts=(3, -1, 2), targets=())

    def test_generation_failure_names_the_machine(self, executor_name, small_wc_graph):
        executor = build_executor(executor_name, small_wc_graph)
        # Machine 1's first index overflows the int64 id array: its draws raise.
        with pytest.raises(MachineFailure) as info:
            executor.run_phase(
                generate(small_wc_graph, "t/gen", (2, 2, 2), starts=(0, 2**63, 0))
            )
        assert info.value.machine_id == 1
        assert info.value.__cause__ is not None

    def test_map_phase(self, executor_name, small_wc_graph):
        executor = build_executor(executor_name, small_wc_graph)
        result = executor.run_phase(MapPhase("t/map", lambda mid: mid + 10))
        assert result.results == [10, 11, 12]
        assert result.category == "computation"
        assert len(result.machine_times) == 3

    def test_map_phase_failure(self, executor_name, small_wc_graph):
        executor = build_executor(executor_name, small_wc_graph)

        def boom(mid):
            if mid == 1:
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
        """Machines hold no stores: a plan names the ones it grows."""
        with pytest.raises(TypeError, match="targets"):
            GeneratePhase("t/gen", counts=(1, 1))


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
        executor = SimulatedExecutor(cluster)
        with pytest.raises(ValueError, match="needs a graph"):
            executor.run_phase(generate(small_wc_graph, "t/gen", (1, 1)))

    def test_executor_reads_the_shape(self):
        net = gigabit_cluster()
        cluster = SimulatedCluster(2, network=net, seed=9)
        executor = SimulatedExecutor(cluster)
        assert (executor.num_machines, executor.seed, executor.network) == (2, 9, net)
        assert executor.metrics.phases == []

    def test_default_seed_is_the_executors(self, small_wc_graph):
        """A plan without a seed draws at the executor's seed."""
        drawn = []
        for seed in (None, 9):
            executor = SimulatedExecutor(SimulatedCluster(2, seed=9), graph=small_wc_graph)
            plan = generate(small_wc_graph, "t/gen", (6, 6), seed=seed)
            executor.run_phase(plan)
            drawn.append([store.nodes.tolist() for store in plan.targets])
        assert drawn[0] == drawn[1]

    def test_sampler_cache_reused(self, small_wc_graph):
        cluster = SimulatedCluster(2, seed=0)
        executor = SimulatedExecutor(cluster, graph=small_wc_graph)
        assert executor.sampler("ic") is executor.sampler("ic")
        assert executor.sampler("ic") is not executor.sampler("lt")


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

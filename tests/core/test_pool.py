"""SamplePool: shared RR-sample lifetime, warm/cold equivalence, coverage cache."""

import numpy as np
import pytest

from repro.api import RunConfig, run
from repro.cluster.cluster import SimulatedCluster
from repro.core import diimm, imm
from repro.core.pool import MAX_CACHED_COVERAGE, SamplePool
from repro.coverage.state import CoverageState
from repro.ris import FlatRRCollection, append_batch, make_sampler
from repro.ris.rrset import set_keys


@pytest.fixture
def pool(small_wc_graph):
    with SamplePool(small_wc_graph, machines=3, seed=7) as p:
        yield p


class TestConstruction:
    def test_accepts_vectorized_as_bfs(self, small_wc_graph):
        # One keyed kernel behind both names: a grown "vectorized" pool
        # holds the bytes a one-shot "bfs" pool does.
        with SamplePool(small_wc_graph, machines=2, method="vectorized") as vec, SamplePool(
            small_wc_graph, machines=2, method="bfs"
        ) as bfs:
            vec.ensure("main", [30, 12])
            vec.ensure("main", [70, 90])
            bfs.ensure("main", [70, 90])
            for a, b in zip(vec.stores("main"), bfs.stores("main")):
                np.testing.assert_array_equal(a.nodes, b.nodes)
                np.testing.assert_array_equal(a.offsets, b.offsets)

    def test_rejects_unknown_method(self, small_wc_graph):
        # A vestige the frozen harness passes: the three old names only.
        with pytest.raises(ValueError, match="method must be one of"):
            SamplePool(small_wc_graph, method="quantum")

    def test_rejects_unknown_rng_scheme(self, small_wc_graph):
        # The argument is a vestige the frozen harness still passes:
        # exactly "per-set" is accepted, and selects nothing.
        for scheme in ("nope", "cluster", "stream"):
            with pytest.raises(ValueError, match="rng_scheme"):
                SamplePool(small_wc_graph, rng_scheme=scheme)
        with SamplePool(small_wc_graph, rng_scheme="per-set") as named, SamplePool(
            small_wc_graph
        ) as default:
            named.ensure("main", [9])
            default.ensure("main", [9])
            assert np.array_equal(named.stores("main")[0].nodes, default.stores("main")[0].nodes)

    def test_close_is_idempotent(self, small_wc_graph):
        pool = SamplePool(small_wc_graph, machines=2)
        pool.close()
        pool.close()
        assert pool.closed

    def test_repr(self, pool):
        assert "SamplePool" in repr(pool)


class TestGrowth:
    def test_ensure_generates_only_shortfall(self, pool):
        assert pool.ensure("main", [10, 20, 30]) == 60
        assert pool.sizes()["main"] == [10, 20, 30]
        # Lower or equal targets draw nothing.
        assert pool.ensure("main", [5, 20, 30]) == 0
        assert pool.ensure("main", [15, 20, 35]) == 10
        assert pool.sizes()["main"] == [15, 20, 35]

    def test_ensure_validates_target_count(self, pool):
        with pytest.raises(ValueError):
            pool.ensure("main", [1, 2])

    def test_topped_up_store_equals_cold_stream(self, pool, small_wc_graph):
        # Two top-ups of machine m's collection must equal one cold draw
        # of the same total: set i from the key of (seed, key, m, i),
        # drawn alone on a fresh kernel.
        pool.ensure("main", [12, 12, 12])
        pool.ensure("main", [40, 40, 40])
        sampler = make_sampler(small_wc_graph, "ic")
        for mid, store in enumerate(pool.stores("main")):
            cold = FlatRRCollection(small_wc_graph.num_nodes)
            for i in range(40):
                append_batch(cold, sampler.sample_keys(set_keys(7, mid, [i])))
            assert np.array_equal(store.nodes, cold.nodes)
            assert np.array_equal(store.offsets, cold.offsets)

    def test_signature_tracks_sizes(self, pool):
        empty = pool.signature()
        pool.ensure("main", [5, 5, 5])
        grown = pool.signature()
        assert empty != grown
        assert grown == (0, (("main", (5, 5, 5)),))

    def test_view_stores_start_empty(self, pool):
        pool.ensure("main", [8, 8, 8])
        views = pool.view_stores(["main"])
        assert [v.num_sets for v in views["main"]] == [0, 0, 0]
        views["main"][0].set_limit(8)
        assert views["main"][0].num_sets == 8


class TestCoverageCache:
    def _state(self, pool, marks):
        state = CoverageState(pool.num_nodes, pool.num_machines)
        state.watermarks = list(marks)
        return state

    def test_fork_requires_dominated_watermarks(self, pool):
        pool.donate_coverage("main", self._state(pool, [10, 10, 10]))
        assert pool.fork_coverage("main", [9, 10, 10]) is None
        forked = pool.fork_coverage("main", [10, 10, 10])
        assert forked is not None
        assert forked.watermarks == [10, 10, 10]

    def test_fork_picks_largest_usable(self, pool):
        pool.donate_coverage("main", self._state(pool, [5, 5, 5]))
        pool.donate_coverage("main", self._state(pool, [20, 20, 20]))
        forked = pool.fork_coverage("main", [25, 25, 25])
        assert forked.watermarks == [20, 20, 20]

    def test_donations_deduplicate_and_cap(self, pool):
        pool.donate_coverage("main", self._state(pool, [1, 1, 1]))
        pool.donate_coverage("main", self._state(pool, [1, 1, 1]))
        assert len(pool._coverage_cache["main"]) == 1
        for mark in range(2, 2 + MAX_CACHED_COVERAGE + 2):
            pool.donate_coverage("main", self._state(pool, [mark] * 3))
        assert len(pool._coverage_cache["main"]) == MAX_CACHED_COVERAGE

    def test_forked_state_is_copy_on_write(self, pool):
        donated = self._state(pool, [0, 0, 0])
        donated.counts[:] = 5
        pool.donate_coverage("main", donated)
        fork = pool.fork_coverage("main", [100, 100, 100])
        assert fork.counts is donated.counts  # shared until first ingest
        fork._ensure_owned()
        fork.counts[0] = 99
        assert donated.counts[0] == 5


class TestQueryMetrics:
    def test_isolation_and_merge(self, pool):
        with pool.query_metrics() as metrics:
            pool.ensure("main", [4, 4, 4])
            assert len(metrics.phases) == 1
        assert pool.queries_served == 1
        # The query's phases fold into the pool lifetime metrics on exit.
        assert len(pool.lifetime_metrics.phases) == 1
        with pool.query_metrics() as metrics2:
            assert metrics2.phases == []


class TestCheckConfig:
    def test_accepts_matching_config(self, pool, small_wc_graph):
        pool.check_config(
            RunConfig(graph=small_wc_graph, k=5, machines=3, seed=7), machines=3
        )

    def test_rejects_wrong_seed(self, pool, small_wc_graph):
        with pytest.raises(ValueError, match="seed"):
            pool.check_config(RunConfig(graph=small_wc_graph, k=5, machines=3, seed=8))

    def test_rejects_other_graph(self, pool, paper_graph):
        with pytest.raises(ValueError, match="graph"):
            pool.check_config(RunConfig(graph=paper_graph, k=2, machines=3, seed=7))

    @pytest.mark.parametrize("method", ["vectorized", "subsim"])
    def test_bfs_pool_serves_any_method_equal_to_cold(self, pool, small_wc_graph, method):
        """``method`` selects nothing, so no pool refuses it: a "bfs" pool
        answers a config naming another method exactly as a cold run."""
        config = RunConfig(graph=small_wc_graph, k=5, machines=3, seed=7, method=method)
        pool.check_config(config)
        warm = run("diimm", config, pool=pool)
        cold = run("diimm", config)
        assert warm.seeds == cold.seeds
        assert warm.estimated_spread == cold.estimated_spread
        assert warm.num_rr_sets == cold.num_rr_sets

    def test_rejects_machine_mismatch(self, pool, small_wc_graph):
        with pytest.raises(ValueError, match="machines"):
            pool.check_config(
                RunConfig(graph=small_wc_graph, k=5, machines=2, seed=7), machines=2
            )

    def test_rejects_checkpointing(self, pool, small_wc_graph, tmp_path):
        with pytest.raises(ValueError, match="checkpoint"):
            pool.check_config(
                RunConfig(
                    graph=small_wc_graph,
                    k=5,
                    machines=3,
                    seed=7,
                    checkpoint_dir=str(tmp_path),
                )
            )

    def test_rejects_faults(self, pool, small_wc_graph):
        with pytest.raises(ValueError, match="fault"):
            pool.check_config(
                RunConfig(graph=small_wc_graph, k=5, machines=3, seed=7, faults="crash@m0")
            )


class TestWarmColdEquivalence:
    """The correctness anchor: warm queries == cold runs, bit for bit."""

    def test_diimm_across_k_and_topups(self, small_wc_graph):
        cold = {
            k: run("diimm", RunConfig(graph=small_wc_graph, k=k, machines=3, seed=7))
            for k in (3, 8)
        }
        with SamplePool(small_wc_graph, machines=3, seed=7) as pool:
            # Ascending k grows the pool; repeating k=3 serves from a pool
            # strictly larger than its theta — both must stay identical.
            for k in (3, 8, 3):
                warm = run(
                    "diimm",
                    RunConfig(graph=small_wc_graph, k=k, machines=3, seed=7),
                    pool=pool,
                )
                assert warm.seeds == cold[k].seeds
                assert warm.estimated_spread == cold[k].estimated_spread
                assert warm.num_rr_sets == cold[k].num_rr_sets
                assert warm.total_rr_size == cold[k].total_rr_size
                assert warm.total_edges_examined == cold[k].total_edges_examined
            assert pool.queries_served == 3

    @pytest.mark.parametrize("k,seed", [(3, 7), (4, 11), (6, 3)])
    def test_imm_is_diimm_on_one_machine(self, small_wc_graph, k, seed):
        """Lemma 2 at l = 1: IMM draws the l = 1 cluster stream, so the
        baseline and one-machine DIIMM see the same RR sets."""
        single = imm(small_wc_graph, k, seed=seed)
        distributed = diimm(small_wc_graph, k, 1, seed=seed)
        assert single.seeds == distributed.seeds
        assert single.num_rr_sets == distributed.num_rr_sets
        assert single.estimated_spread == distributed.estimated_spread

    def test_imm_warm_equals_cold(self, small_wc_graph):
        cold = run("imm", RunConfig(graph=small_wc_graph, k=4, seed=7))
        with SamplePool(small_wc_graph, machines=1, seed=7) as pool:
            warm = run("imm", RunConfig(graph=small_wc_graph, k=4, seed=7), pool=pool)
        assert warm.seeds == cold.seeds
        assert warm.estimated_spread == cold.estimated_spread

    @pytest.mark.parametrize("executor", ["simulated", "multiprocessing:2"])
    @pytest.mark.parametrize("algorithm", ["dssa", "dopimc"])
    def test_two_collection_rules_warm_equal_cold(self, small_wc_graph, algorithm, executor):
        """D-SSA's ("select", "verify") and D-OPIM-C's ("R1", "R2") are
        separately keyed draws, so a pool serves them like any row: the
        same seeds, theta and certificate, also after a larger query
        topped the pool up."""
        queries = [(3, 0.5), (5, 0.3), (3, 0.5)]

        def config(k, eps):
            return RunConfig(
                graph=small_wc_graph, k=k, eps=eps, machines=3, seed=7, executor=executor
            )

        cold = {query: run(algorithm, config(*query)) for query in set(queries)}
        with SamplePool(small_wc_graph, machines=3, seed=7, executor=executor) as pool:
            sizes = []
            for query in queries:
                warm = run(algorithm, config(*query), pool=pool)
                want = cold[query]
                assert warm.seeds == want.seeds
                assert warm.num_rr_sets == want.num_rr_sets
                assert warm.lower_bound == want.lower_bound
                assert warm.search_rounds == want.search_rounds
                assert warm.estimated_spread == want.estimated_spread
                sizes.append(sum(sum(per_key) for per_key in pool.sizes().values()))
        assert sizes[0] < sizes[1] == sizes[2]  # the larger query topped it up

    def test_executor_and_pool_are_exclusive(self, small_wc_graph, pool):
        cluster = SimulatedCluster(3, seed=7)
        from repro.cluster.executor import make_executor

        exec_ = make_executor("simulated", cluster, graph=small_wc_graph)
        try:
            with pytest.raises(ValueError, match="not both"):
                run(
                    "diimm",
                    RunConfig(graph=small_wc_graph, k=3, machines=3, seed=7),
                    executor=exec_,
                    pool=pool,
                )
        finally:
            exec_.close()

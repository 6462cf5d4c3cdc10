"""InfluenceService: warm answers must equal cold runs, bit for bit."""

import threading

import numpy as np
import pytest

import repro.ris.flat as flat_module
from repro.api import RunConfig, run
from repro.applications import (
    budgeted_influence_maximization,
    profit_maximization,
    targeted_influence_maximization,
)
from repro.serve import InfluenceService, Query, default_costs

MACHINES = 3
SEED = 7


@pytest.fixture
def service(small_wc_graph):
    with InfluenceService(small_wc_graph, machines=MACHINES, seed=SEED) as svc:
        yield svc


class TestQueryValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            Query(kind="pagerank")

    def test_targeted_needs_targets(self):
        with pytest.raises(ValueError, match="target"):
            Query(kind="targeted", k=3)

    def test_budgeted_needs_budget(self):
        with pytest.raises(ValueError, match="budget"):
            Query(kind="budgeted")

    def test_targets_normalized(self):
        q = Query(kind="targeted", targets=(5, 1, 5, 3))
        assert q.targets == (1, 3, 5)

    def test_fingerprint_is_hashable_and_distinct(self):
        a = Query(kind="diimm", k=5)
        b = Query(kind="diimm", k=6)
        assert hash(a.fingerprint()) != hash(b.fingerprint()) or a != b
        assert a.fingerprint() == Query(kind="diimm", k=5).fingerprint()


class TestWarmColdEquivalence:
    def test_diimm_varying_k(self, service, small_wc_graph):
        # Descending then ascending k: the second query tops the pool up,
        # the third is served from a strictly larger pool.
        for k in (6, 9, 3):
            warm = service.query(Query(kind="diimm", k=k))
            cold = run(
                "diimm", RunConfig(graph=small_wc_graph, k=k, machines=MACHINES, seed=SEED)
            )
            assert warm.seeds == cold.seeds
            assert warm.estimated_spread == cold.estimated_spread
            assert warm.num_rr_sets == cold.num_rr_sets

    @pytest.mark.parametrize("kind", ["dssa", "dopimc"])
    def test_two_collection_rules(self, service, small_wc_graph, kind):
        """Every algorithm is a query kind; D-SSA and D-OPIM-C share the
        cluster pool with DIIMM under their own collection keys."""
        service.query(Query(kind="diimm", k=4))
        for k in (4, 6):
            warm = service.query(Query(kind=kind, k=k))
            cold = run(kind, RunConfig(graph=small_wc_graph, k=k, machines=MACHINES, seed=SEED))
            assert warm.seeds == cold.seeds
            assert warm.num_rr_sets == cold.num_rr_sets
            assert warm.lower_bound == cold.lower_bound

    def test_imm_baseline(self, service, small_wc_graph):
        warm = service.query(Query(kind="imm", k=4))
        cold = run("imm", RunConfig(graph=small_wc_graph, k=4, seed=SEED))
        assert warm.seeds == cold.seeds
        assert warm.estimated_spread == cold.estimated_spread

    def test_budgeted_application(self, service, small_wc_graph):
        warm = service.query(Query(kind="budgeted", budget=20.0, num_rr_sets=2000))
        cold = budgeted_influence_maximization(
            small_wc_graph,
            default_costs(small_wc_graph),
            20.0,
            MACHINES,
            2000,
            seed=SEED,
        )
        assert warm.seeds == cold.seeds
        assert warm.objective == cold.objective
        assert warm.num_rr_sets == cold.num_rr_sets == 2000

    def test_profit_application(self, service, small_wc_graph):
        warm = service.query(Query(kind="profit", num_rr_sets=2000))
        cold = profit_maximization(
            small_wc_graph, default_costs(small_wc_graph), MACHINES, 2000, seed=SEED
        )
        assert warm.seeds == cold.seeds
        assert warm.objective == cold.objective

    def test_targeted_application(self, service, small_wc_graph):
        targets = tuple(range(0, small_wc_graph.num_nodes, 5))
        warm = service.query(
            Query(kind="targeted", k=4, targets=targets, num_rr_sets=1500)
        )
        cold = targeted_influence_maximization(
            small_wc_graph, list(targets), 4, MACHINES, 1500, seed=SEED
        )
        assert warm.seeds == cold.seeds
        assert warm.objective == cold.objective

    def test_app_after_im_queries_shares_pool(self, service, small_wc_graph):
        # A diimm query grows the cluster pool first; the budgeted query
        # then reads a prefix of the same collections and must still equal
        # its cold run.
        service.query(Query(kind="diimm", k=5))
        warm = service.query(Query(kind="budgeted", budget=15.0, num_rr_sets=1000))
        cold = budgeted_influence_maximization(
            small_wc_graph,
            default_costs(small_wc_graph),
            15.0,
            MACHINES,
            1000,
            seed=SEED,
        )
        assert warm.seeds == cold.seeds
        assert warm.objective == cold.objective
        assert service.describe()["num_pools"] == 1  # same ('cluster', 'ic') pool

    def test_imm_family_and_applications_share_one_pool_per_model(self, service, small_wc_graph):
        """Pools are keyed by ("imm" | "cluster", model): diimm, dsubsim,
        budgeted and profit on an IC service read one pool, and dsubsim —
        the keyed IC kernel under SUBSIM's rule name — answers with
        diimm's seeds and theta."""
        diimm_answer = service.query(Query(kind="diimm", k=5))
        dsubsim_answer = service.query(Query(kind="dsubsim", k=5))
        service.query(Query(kind="budgeted", budget=15.0, num_rr_sets=1000))
        service.query(Query(kind="profit", num_rr_sets=1000))
        assert list(service.pool_sizes()) == [repr(("cluster", "ic"))]
        assert dsubsim_answer.algorithm == "DSUBSIM"
        assert dsubsim_answer.seeds == diimm_answer.seeds
        assert dsubsim_answer.num_rr_sets == diimm_answer.num_rr_sets
        cold = run("dsubsim", RunConfig(graph=small_wc_graph, k=5, machines=MACHINES, seed=SEED))
        assert dsubsim_answer.seeds == cold.seeds
        assert dsubsim_answer.estimated_spread == cold.estimated_spread


class TestCaching:
    def test_repeat_query_hits_cache(self, service):
        first = service.query(Query(kind="diimm", k=5))
        second = service.query(Query(kind="diimm", k=5))
        assert second is first
        stats = service.describe()
        assert stats["queries"] == 2
        assert stats["cache_hits"] == 1

    def test_pool_growth_invalidates_entry_but_answer_is_stable(self, service):
        first = service.query(Query(kind="diimm", k=4))
        before = service._im_pool("diimm").signature()
        # A tighter eps needs a larger theta, forcing a pool top-up.
        service.query(Query(kind="diimm", k=4, eps=0.2))
        assert service._im_pool("diimm").signature() != before
        again = service.query(Query(kind="diimm", k=4))
        assert again is not first  # recomputed under the new pool signature
        assert again.seeds == first.seeds  # …but the answer cannot change

    def test_lru_eviction(self, small_wc_graph):
        with InfluenceService(
            small_wc_graph, machines=MACHINES, seed=SEED, cache_size=1
        ) as svc:
            svc.query(Query(kind="diimm", k=3))
            svc.query(Query(kind="diimm", k=5))
            assert svc.describe()["cache_entries"] == 1


class TestIndexBuildCount:
    """A count, not a timing gate: selection must not re-derive the
    inverted index per query or per view, only per store that grew."""

    def test_warm_miss_builds_nothing_and_cold_builds_once_per_grown_store(
        self, service, small_wc_graph, monkeypatch
    ):
        builds = []
        real = flat_module.build_inverted_index

        def counting(*args):
            builds.append(args)
            return real(*args)

        monkeypatch.setattr(flat_module, "build_inverted_index", counting)
        for kind in ("imm", "diimm", "dsubsim"):
            service.query(Query(kind=kind, k=5))  # grows and indexes the pool
            sizes = service.pool_sizes()
            builds.clear()
            hits = service.stats.cache_hits
            service.query(Query(kind=kind, k=5, eps=0.6))  # looser: needs fewer sets
            assert service.stats.cache_hits == hits  # a miss: it selected
            assert service.pool_sizes() == sizes  # ... on an un-grown pool
            assert builds == []

        builds.clear()
        cold = run("diimm", RunConfig(graph=small_wc_graph, k=9, machines=MACHINES, seed=SEED))
        assert 1 <= len(builds) <= len(cold.metrics.rounds()) * MACHINES


class TestConcurrency:
    def test_threaded_queries_agree_with_cold_runs(self, service, small_wc_graph):
        ks = [3, 5, 7, 3, 5, 7]
        results: dict[int, list] = {}
        errors = []

        def worker(idx: int, k: int) -> None:
            try:
                results[idx] = service.query(Query(kind="diimm", k=k)).seeds
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i, k)) for i, k in enumerate(ks)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        cold = {
            k: run(
                "diimm", RunConfig(graph=small_wc_graph, k=k, machines=MACHINES, seed=SEED)
            ).seeds
            for k in set(ks)
        }
        for idx, k in enumerate(ks):
            assert results[idx] == cold[k]


class TestLifecycle:
    def test_close_rejects_further_queries(self, small_wc_graph):
        svc = InfluenceService(small_wc_graph, machines=2, seed=SEED)
        svc.query(Query(kind="diimm", k=3))
        svc.close()
        with pytest.raises(RuntimeError, match="closed"):
            svc.query(Query(kind="diimm", k=3))
        svc.close()  # idempotent

    def test_describe_and_pool_sizes(self, service):
        service.query(Query(kind="diimm", k=3))
        sizes = service.pool_sizes()
        assert len(sizes) == 1
        (per_key,) = sizes.values()
        assert sum(per_key["main"]) > 0
        stats = service.describe()
        assert stats["machines"] == MACHINES
        assert stats["by_kind"] == {"diimm": 1}


@pytest.mark.slow
class TestMultiprocessingService:
    def test_warm_equals_cold_under_mp_executor(self, small_wc_graph):
        with InfluenceService(
            small_wc_graph,
            machines=2,
            seed=SEED,
            executor="multiprocessing:2",
        ) as svc:
            warm_a = svc.query(Query(kind="diimm", k=4))
            warm_b = svc.query(Query(kind="diimm", k=6))
        cold_a = run(
            "diimm", RunConfig(graph=small_wc_graph, k=4, machines=2, seed=SEED)
        )
        cold_b = run(
            "diimm", RunConfig(graph=small_wc_graph, k=6, machines=2, seed=SEED)
        )
        assert warm_a.seeds == cold_a.seeds
        assert warm_b.seeds == cold_b.seeds

"""Dynamic serving: apply_update end to end, refused updates,
graph_version, selective cache eviction, and the frontend update op."""

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.graphs import DirectedGraph, GraphDelta, VersionedGraph
from repro.serve import InfluenceService, Query, ServingFrontend, request

MACHINES = 2
SEED = 3


def fresh_graph(base):
    return DirectedGraph(base.num_nodes, *base.edge_arrays())


def make_delta(graph):
    edges = [(u, v) for u, v, _ in graph.edges()]
    return GraphDelta(
        add_edges=[(0, 7, 0.4), (33, 90, 0.25)],
        remove_edges=edges[3:8],
        reweight_edges=[(*edges[15], 0.85)],
    )


@pytest.fixture
def dynamic_service(small_wc_graph):
    with InfluenceService(
        fresh_graph(small_wc_graph), machines=MACHINES, seed=SEED, dynamic=True
    ) as svc:
        yield svc


def run_frontend(service, coro_fn):
    """Start a frontend, run ``coro_fn(port)`` against it, tear down."""

    async def main():
        frontend = ServingFrontend(service)
        await frontend.start()
        try:
            return await coro_fn(frontend.port)
        finally:
            await frontend.stop()

    return asyncio.run(main())


class TestGraphVersion:
    """Satellite regression: graph_version must be read somewhere, not a
    write-only counter — it is exposed in describe() and update replies
    and advances with every mutation."""

    def test_starts_at_zero_and_is_described(self, dynamic_service):
        assert dynamic_service.graph_version == 0
        assert dynamic_service.describe()["graph_version"] == 0
        assert dynamic_service.describe()["dynamic"] is True

    def test_increments_on_every_update(self, dynamic_service, small_wc_graph):
        summary = dynamic_service.apply_update(make_delta(small_wc_graph))
        assert summary["graph_version"] == 1
        assert dynamic_service.describe()["graph_version"] == 1
        summary = dynamic_service.apply_update(GraphDelta(add_edges=[(5, 6, 0.1)]))
        assert summary["graph_version"] == 2
        assert dynamic_service.describe()["graph_version"] == 2

    def test_static_service_reports_version_zero_forever(self, small_wc_graph):
        with InfluenceService(small_wc_graph, machines=MACHINES, seed=SEED) as svc:
            svc.query(Query(kind="diimm", k=3))
            assert svc.describe()["graph_version"] == 0
            assert svc.describe()["dynamic"] is False


class TestDifferential:
    @pytest.mark.parametrize("kind", ["imm", "diimm", "dsubsim"])
    def test_post_update_answers_match_fresh_service(
        self, dynamic_service, small_wc_graph, kind
    ):
        delta = make_delta(small_wc_graph)
        dynamic_service.query(Query(kind=kind, k=4))  # warm the pool first
        dynamic_service.apply_update(delta)
        warm = dynamic_service.query(Query(kind=kind, k=4))

        updated = VersionedGraph(fresh_graph(small_wc_graph))
        updated.apply(delta)
        with InfluenceService(
            updated, machines=MACHINES, seed=SEED, dynamic=True
        ) as fresh:
            cold = fresh.query(Query(kind=kind, k=4))
        assert warm.seeds == cold.seeds
        assert warm.estimated_spread == pytest.approx(cold.estimated_spread)
        assert warm.num_rr_sets == cold.num_rr_sets

    def test_application_kinds_survive_update(self, dynamic_service, small_wc_graph):
        delta = make_delta(small_wc_graph)
        targets = tuple(range(0, 60, 3))
        queries = [
            Query(kind="budgeted", budget=3.0, num_rr_sets=4000),
            Query(kind="targeted", targets=targets, k=3, num_rr_sets=4000),
        ]
        for q in queries:
            dynamic_service.query(q)
        dynamic_service.apply_update(delta)
        warm = [dynamic_service.query(q) for q in queries]

        updated = VersionedGraph(fresh_graph(small_wc_graph))
        updated.apply(delta)
        with InfluenceService(
            updated, machines=MACHINES, seed=SEED, dynamic=True
        ) as fresh:
            cold = [fresh.query(q) for q in queries]
        for w, c in zip(warm, cold):
            assert w.seeds == c.seeds
            assert w.objective == pytest.approx(c.objective)


class TestCacheEviction:
    def test_update_evicts_only_rewritten_pools(self, dynamic_service, small_wc_graph):
        q = Query(kind="diimm", k=4)
        dynamic_service.query(q)
        dynamic_service.query(q)
        assert dynamic_service.stats.cache_hits == 1
        summary = dynamic_service.apply_update(make_delta(small_wc_graph))
        assert summary["evicted"] >= 1
        # Post-update query recomputes (miss), then hits again.
        dynamic_service.query(q)
        assert dynamic_service.stats.cache_hits == 1
        dynamic_service.query(q)
        assert dynamic_service.stats.cache_hits == 2

    def test_update_racing_a_miss_never_leaves_its_answer_cached(
        self, dynamic_service, small_wc_graph, monkeypatch
    ):
        """An update that lands after a miss computed its answer but
        before it stored it must not leave the pre-update answer keyed
        under the post-update pool state."""
        query = Query(kind="diimm", k=4)
        dynamic_service.query(Query(kind="diimm", k=3))  # the pool exists
        answered, release = threading.Event(), threading.Event()
        real = InfluenceService._run_im

        def held(self, q, pool):
            result = real(self, q, pool)
            if q == query:
                answered.set()
                release.wait(30)
            return result

        monkeypatch.setattr(InfluenceService, "_run_im", held)
        miss = threading.Thread(target=dynamic_service.query, args=(query,), daemon=True)
        update = threading.Thread(
            target=dynamic_service.apply_update, args=(make_delta(small_wc_graph),), daemon=True
        )
        miss.start()
        assert answered.wait(30)
        update.start()
        time.sleep(0.2)  # let the update run as far as it can
        release.set()
        miss.join(30)
        update.join(30)
        assert not miss.is_alive() and not update.is_alive()
        assert dynamic_service.graph_version == 1
        hits = dynamic_service.stats.cache_hits
        dynamic_service.query(query)
        assert dynamic_service.stats.cache_hits == hits  # recomputed on the new graph

    def test_untouched_pool_keeps_cache(self, dynamic_service):
        q = Query(kind="diimm", k=4)
        dynamic_service.query(q)
        # A delta whose endpoints appear in no RR set of the resident
        # pool would keep the cache; the cheap guaranteed case is a
        # repair that rewrites nothing: epoch stays, entry stays valid.
        before = dynamic_service.describe()["cache_entries"]
        summary = dynamic_service.apply_update(GraphDelta())
        assert summary["evicted"] == 0
        assert dynamic_service.describe()["cache_entries"] == before
        dynamic_service.query(q)
        assert dynamic_service.stats.cache_hits == 1


class TestRefusals:
    def test_static_service_refuses_updates(self, small_wc_graph):
        with InfluenceService(small_wc_graph, machines=MACHINES, seed=SEED) as svc:
            with pytest.raises(RuntimeError, match="dynamic=True"):
                svc.apply_update(GraphDelta(add_edges=[(0, 1, 0.5)]))

    def test_unsamplable_update_changes_nothing(self, small_wc_graph):
        """An LT service on weighted-cascade weights (every in-row sums to
        one) refuses an edge insert before the graph, pools, cache or
        graph_version move."""
        with InfluenceService(
            fresh_graph(small_wc_graph), machines=MACHINES, seed=SEED, model="lt",
            dynamic=True,
        ) as svc:
            query = Query(kind="diimm", k=3)
            first = svc.query(query)
            graph = svc.graph
            arrays = (graph.in_indices, graph.in_probs, graph.out_indices)
            pools = dict(svc._pools)
            contents = {
                (name, key): [(s.nodes.copy(), s.offsets.copy()) for s in pool.stores(key)]
                for name, pool in pools.items()
                for key in pool.sizes()
            }
            assert contents
            u, v = next(
                (u, v)
                for u in range(graph.num_nodes)
                for v in range(graph.num_nodes)
                if u != v and graph.in_degree(v) and not graph.has_edge(u, v)
            )
            with pytest.raises(ValueError, match="LT model requires"):
                svc.apply_update(GraphDelta(add_edges=[(u, v, 0.5)]))
            assert graph.version == 0 and svc.graph_version == 0
            now = (graph.in_indices, graph.in_probs, graph.out_indices)
            assert all(a is b for a, b in zip(now, arrays))
            assert not graph.has_edge(u, v)
            assert svc._pools == pools and all(pool.updates == 0 for pool in pools.values())
            for (name, key), before in contents.items():
                for store, (nodes, offsets) in zip(pools[name].stores(key), before):
                    assert np.array_equal(store.nodes, nodes)
                    assert np.array_equal(store.offsets, offsets)
            hits = svc.stats.cache_hits
            assert svc.query(query).seeds == first.seeds
            assert svc.stats.cache_hits == hits + 1
            # A feasible update still lands afterwards.
            x = int(graph.in_neighbors(v)[0])
            dimmed = GraphDelta(reweight_edges=[(x, v, graph.edge_probability(x, v) / 2)])
            assert svc.apply_update(dimmed)["graph_version"] == 1

    def test_closed_service_refuses_updates(self, small_wc_graph):
        svc = InfluenceService(
            small_wc_graph, machines=MACHINES, seed=SEED, dynamic=True
        )
        svc.close()
        with pytest.raises(RuntimeError, match="closed"):
            svc.apply_update(GraphDelta(add_edges=[(0, 1, 0.5)]))


class TestFrontendOps:
    def test_update_op_round_trip(self, dynamic_service, small_wc_graph):
        delta = make_delta(small_wc_graph)

        async def go(port):
            first = await asyncio.to_thread(
                request, port, {"op": "query", "kind": "diimm", "k": 4}
            )
            update = await asyncio.to_thread(
                request, port, {"op": "update", **delta.to_json()}
            )
            second = await asyncio.to_thread(
                request, port, {"op": "query", "kind": "diimm", "k": 4}
            )
            stats = await asyncio.to_thread(request, port, {"op": "stats"})
            return first, update, second, stats

        first, update, second, stats = run_frontend(dynamic_service, go)
        assert first["ok"] and second["ok"]
        assert update["ok"] and update["op"] == "update"
        assert update["graph_version"] == 1
        assert update["num_changes"] == delta.num_changes
        assert sum(update["repaired"].values()) > 0
        assert stats["graph_version"] == 1

        updated = VersionedGraph(fresh_graph(small_wc_graph))
        updated.apply(delta)
        with InfluenceService(
            updated, machines=MACHINES, seed=SEED, dynamic=True
        ) as fresh:
            cold = fresh.query(Query(kind="diimm", k=4))
        assert second["seeds"] == cold.seeds

    def test_folding_op_compact_is_unknown(self, dynamic_service, small_wc_graph):
        # An update already leaves one current CSR; there is nothing to fold.
        async def go(port):
            await asyncio.to_thread(
                request, port, {"op": "update", **make_delta(small_wc_graph).to_json()}
            )
            return await asyncio.to_thread(request, port, {"op": "compact"})

        reply = run_frontend(dynamic_service, go)
        assert not reply["ok"] and "unknown op" in reply["error"]
        assert dynamic_service.graph_version == 1

    def test_update_on_static_service_is_error_reply(self, small_wc_graph):
        with InfluenceService(small_wc_graph, machines=MACHINES, seed=SEED) as svc:

            async def go(port):
                return await asyncio.to_thread(
                    request, port, {"op": "update", "add_edges": [[0, 1, 0.5]]}
                )

            reply = run_frontend(svc, go)
        assert reply["ok"] is False
        assert "dynamic" in reply["error"]

    def test_malformed_delta_is_error_reply(self, dynamic_service):
        async def go(port):
            return await asyncio.to_thread(
                request, port, {"op": "update", "add_edgez": [[0, 1, 0.5]]}
            )

        reply = run_frontend(dynamic_service, go)
        assert reply["ok"] is False
        assert "unknown" in reply["error"]


class TestMultiprocessingService:
    def test_dynamic_update_through_worker_pool(self, small_wc_graph):
        delta = make_delta(small_wc_graph)
        with InfluenceService(
            fresh_graph(small_wc_graph),
            machines=MACHINES,
            seed=SEED,
            executor=f"multiprocessing:{MACHINES}",
            dynamic=True,
        ) as svc:
            svc.query(Query(kind="diimm", k=4))
            svc.apply_update(delta)
            warm = svc.query(Query(kind="diimm", k=4))

        updated = VersionedGraph(fresh_graph(small_wc_graph))
        updated.apply(delta)
        with InfluenceService(
            updated, machines=MACHINES, seed=SEED, dynamic=True
        ) as fresh:
            cold = fresh.query(Query(kind="diimm", k=4))
        assert warm.seeds == cold.seeds
        assert warm.num_rr_sets == cold.num_rr_sets

"""Asyncio JSON-lines front-end: concurrent queries, stats, error replies."""

import asyncio
import json
import socket
import threading

import pytest

import repro.serve.frontend as frontend_module
from repro.api import RunConfig, run
from repro.graphs import DirectedGraph, GraphDelta
from repro.serve import InfluenceService, Query, ServingFrontend, request
from repro.serve.frontend import result_payload

MACHINES = 2
SEED = 3


@pytest.fixture
def service(small_wc_graph):
    with InfluenceService(small_wc_graph, machines=MACHINES, seed=SEED) as svc:
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


class TestRequests:
    def test_ping(self, service):
        async def go(port):
            return await asyncio.to_thread(request, port, {"op": "ping"})

        reply = run_frontend(service, go)
        assert reply == {"ok": True, "op": "ping"}

    def test_query_matches_cold_run(self, service, small_wc_graph):
        async def go(port):
            return await asyncio.to_thread(
                request, port, {"op": "query", "kind": "diimm", "k": 4}
            )

        reply = run_frontend(service, go)
        cold = run(
            "diimm", RunConfig(graph=small_wc_graph, k=4, machines=MACHINES, seed=SEED)
        )
        assert reply["ok"]
        assert reply["seeds"] == cold.seeds
        assert reply["objective"] == pytest.approx(cold.estimated_spread)
        assert set(reply["breakdown"]) >= {"generation", "computation", "total"}

    def test_concurrent_queries(self, service, small_wc_graph):
        async def go(port):
            def call(k):
                return request(port, {"op": "query", "kind": "diimm", "k": k})

            return await asyncio.gather(
                asyncio.to_thread(call, 3),
                asyncio.to_thread(call, 5),
                asyncio.to_thread(call, 3),
            )

        r3a, r5, r3b = run_frontend(service, go)
        cold3 = run(
            "diimm", RunConfig(graph=small_wc_graph, k=3, machines=MACHINES, seed=SEED)
        )
        cold5 = run(
            "diimm", RunConfig(graph=small_wc_graph, k=5, machines=MACHINES, seed=SEED)
        )
        assert r3a["seeds"] == r3b["seeds"] == cold3.seeds
        assert r5["seeds"] == cold5.seeds

    def test_stats_after_queries(self, service):
        async def go(port):
            await asyncio.to_thread(
                request, port, {"op": "query", "kind": "diimm", "k": 3}
            )
            return await asyncio.to_thread(request, port, {"op": "stats"})

        stats = run_frontend(service, go)
        assert stats["ok"]
        assert stats["queries"] == 1
        assert stats["by_kind"] == {"diimm": 1}
        assert stats["pools"]

    def test_list_fields_coerced(self, service):
        async def go(port):
            return await asyncio.to_thread(
                request,
                port,
                {"op": "query", "kind": "targeted", "k": 3, "targets": [0, 5, 10, 15]},
            )

        reply = run_frontend(service, go)
        assert reply["ok"]
        assert len(reply["seeds"]) == 3


class Connection:
    """One persistent client connection: a request in, its raw reply line out."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.stream = self.sock.makefile("rwb")

    def ask(self, payload) -> bytes:
        self.stream.write(json.dumps(payload).encode() + b"\n")
        self.stream.flush()
        return self.stream.readline()

    def close(self):
        self.stream.close()
        self.sock.close()


def session(port, requests):
    """Send ``requests`` in order on one connection; return the reply lines."""
    conn = Connection(port)
    try:
        return [conn.ask(payload) for payload in requests]
    finally:
        conn.close()


class TestLoopHits:
    """Cache hits are answered on the event loop, from a line encoded once."""

    @pytest.mark.parametrize(
        "query",
        [
            {"kind": "diimm", "k": 4},
            {"kind": "budgeted", "budget": 12.0, "num_rr_sets": 2000},
            {"kind": "profit", "num_rr_sets": 2000},
            {"kind": "targeted", "k": 3, "targets": [0, 5, 10, 15], "num_rr_sets": 2000},
        ],
    )
    def test_hits_send_the_miss_line_and_are_counted(self, service, monkeypatch, query):
        answered = []
        real = InfluenceService.query

        def counting(self, q):
            answered.append(q)
            return real(self, q)

        monkeypatch.setattr(InfluenceService, "query", counting)
        stats, ask = {"op": "stats"}, {"op": "query", **query}

        async def go(port):
            return await asyncio.to_thread(session, port, [stats, ask, ask, ask, stats])

        before, miss, *hits, after = run_frontend(service, go)
        assert json.loads(miss)["ok"]
        assert hits == [miss, miss]
        before, after = json.loads(before), json.loads(after)
        assert after["cache_hits"] - before["cache_hits"] == 2
        assert after["queries"] - before["queries"] == 3
        assert len(answered) == 1  # the hits never left the loop

    def test_hit_line_is_the_parent_encoding(self, service):
        async def go(port):
            return await asyncio.to_thread(session, port, [{"op": "query", "kind": "diimm"}] * 2)

        miss, hit = run_frontend(service, go)
        result = service.cached(Query(kind="diimm"))
        expected = json.dumps({"ok": True, "op": "query", **result_payload(result)})
        assert hit == miss == expected.encode() + b"\n"

    def test_first_query_builds_its_pool_off_the_loop(self, service, monkeypatch):
        builders = []
        real = InfluenceService._pool

        def recording(self, key):
            builders.append(threading.get_ident())
            return real(self, key)

        monkeypatch.setattr(InfluenceService, "_pool", recording)

        async def go(port):
            reply = await asyncio.to_thread(request, port, {"op": "query", "kind": "diimm", "k": 3})
            return threading.get_ident(), reply

        loop_thread, reply = run_frontend(service, go)
        assert reply["ok"]
        assert builders and loop_thread not in builders
        assert service.pool_sizes()

    def test_hit_returns_before_an_in_flight_miss_on_the_same_pool(self, service, monkeypatch):
        entered, release = threading.Event(), threading.Event()
        real = InfluenceService._run_im

        def held(self, query, pool):
            if query.k == 6:  # the slow miss: hold its pool's lock
                with pool.lock:
                    entered.set()
                    release.wait(60)
            return real(self, query, pool)

        monkeypatch.setattr(InfluenceService, "_run_im", held)
        hit = {"op": "query", "kind": "diimm", "k": 3}

        async def go(port):
            first = await asyncio.to_thread(request, port, hit)
            miss = asyncio.ensure_future(
                asyncio.to_thread(request, port, {"op": "query", "kind": "diimm", "k": 6})
            )
            await asyncio.to_thread(entered.wait, 60)
            try:
                again = await asyncio.wait_for(asyncio.to_thread(request, port, hit), 10)
                miss_pending = not miss.done()
            finally:
                release.set()
            return first, again, miss_pending, await miss

        first, again, miss_pending, miss = run_frontend(service, go)
        assert again == first
        assert miss_pending
        assert miss["ok"]

    def test_query_after_an_update_reply_misses(self, small_wc_graph):
        graph = DirectedGraph(small_wc_graph.num_nodes, *small_wc_graph.edge_arrays())
        edges = [(u, v) for u, v, _ in graph.edges()]
        update = {"op": "update", **GraphDelta(remove_edges=edges[3:8]).to_json()}
        ask, stats = {"op": "query", "kind": "diimm", "k": 4}, {"op": "stats"}

        async def go(port):
            return await asyncio.to_thread(session, port, [ask, ask, stats, update, ask, stats])

        with InfluenceService(graph, machines=MACHINES, seed=SEED, dynamic=True) as svc:
            replies = [json.loads(line) for line in run_frontend(svc, go)]
        miss, hit, before, updated, again, after = replies
        assert hit == miss and before["cache_hits"] == 1
        assert updated["ok"] and updated["evicted"] >= 1
        assert again["ok"] and after["cache_hits"] == 1
        assert after["queries"] == 3


class TestErrors:
    @pytest.mark.parametrize(
        "payload",
        [
            {"op": "query", "kind": "nope"},
            {"op": "unknown-op"},
            {"op": "query"},  # missing kind
            {"op": "query", "kind": "budgeted"},  # missing budget
        ],
    )
    def test_bad_requests_get_error_replies(self, service, payload):
        async def go(port):
            return await asyncio.to_thread(request, port, payload)

        reply = run_frontend(service, go)
        assert reply["ok"] is False
        assert "error" in reply

    def test_malformed_json(self, service):
        async def go(port):
            def call():
                with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
                    sock.sendall(b"this is not json\n")
                    return json.loads(sock.makefile().readline())

            return await asyncio.to_thread(call)

        reply = run_frontend(service, go)
        assert reply["ok"] is False

    def test_connection_survives_errors(self, service):
        async def go(port):
            def call():
                with socket.create_connection(("127.0.0.1", port), timeout=600) as sock:
                    stream = sock.makefile("rwb")
                    stream.write(b'{"op": "bogus"}\n')
                    stream.flush()
                    bad = json.loads(stream.readline())
                    stream.write(b'{"op": "ping"}\n')
                    stream.flush()
                    good = json.loads(stream.readline())
                    return bad, good

            return await asyncio.to_thread(call)

        bad, good = run_frontend(service, go)
        assert bad["ok"] is False
        assert good["ok"] is True


class TestLineBound:
    """Lines are bounded by ``MAX_LINE_BYTES``, not by asyncio's 64 KiB."""

    BOUND = 4096

    @pytest.fixture
    def small_bound(self, monkeypatch):
        monkeypatch.setattr(frontend_module, "MAX_LINE_BYTES", self.BOUND)

    @staticmethod
    def exchange(port, line: bytes):
        """Send one raw line; return the reply and what follows it."""
        with socket.create_connection(("127.0.0.1", port), timeout=60) as sock:
            sock.sendall(line)
            stream = sock.makefile("rb")
            return json.loads(stream.readline()), stream.read()

    def test_oversize_line_gets_an_error_naming_the_bound(self, service, small_bound):
        line = json.dumps({"op": "ping", "pad": "x" * 70_000}).encode() + b"\n"

        async def go(port):
            return await asyncio.to_thread(self.exchange, port, line)

        reply, rest = run_frontend(service, go)
        assert reply["ok"] is False
        assert f"{self.BOUND}-byte limit" in reply["error"]
        assert rest == b""  # and the connection was closed

    def test_next_connection_is_still_served(self, service, small_bound):
        oversize = {"op": "ping", "pad": "x" * 2 * self.BOUND}

        async def go(port):
            first = await asyncio.to_thread(request, port, oversize)
            return first, await asyncio.to_thread(request, port, {"op": "ping"})

        first, second = run_frontend(service, go)
        assert first["ok"] is False
        assert second == {"ok": True, "op": "ping"}

    def test_lines_under_the_bound_are_unchanged(self, service, small_bound):
        async def go(port):
            plain = await asyncio.to_thread(request, port, {"op": "ping"})
            padded = {"op": "ping", "pad": "x" * (self.BOUND // 2)}
            return plain, await asyncio.to_thread(request, port, padded)

        assert run_frontend(service, go) == ({"ok": True, "op": "ping"},) * 2

    def test_default_bound_is_past_asyncios(self, service):
        """A 70 KB line used to overrun asyncio's 64 KiB default and close
        the connection with no reply at all."""
        assert frontend_module.MAX_LINE_BYTES > 1 << 16

        async def go(port):
            return await asyncio.to_thread(
                request, port, {"op": "ping", "pad": "x" * 70_000}
            )

        assert run_frontend(service, go) == {"ok": True, "op": "ping"}


class TestStalledClients:
    """Each read and drain is bounded by ``IO_TIMEOUT_S``: a client that
    stalls is dropped, and the server keeps answering everyone else."""

    TIMEOUT = 0.3

    @pytest.fixture
    def short_timeout(self, monkeypatch):
        monkeypatch.setattr(frontend_module, "IO_TIMEOUT_S", self.TIMEOUT)

    def test_half_a_line_then_silence_is_disconnected(self, service, short_timeout):
        def stall(port):
            with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
                sock.sendall(b'{"op": "pi')
                return sock.recv(4096)  # b"" once the server hangs up

        async def go(port):
            stalled = asyncio.create_task(asyncio.to_thread(stall, port))
            await asyncio.sleep(0)
            served = await asyncio.to_thread(request, port, {"op": "ping"})
            return await stalled, served, await asyncio.to_thread(request, port, {"op": "ping"})

        dropped, during, after = run_frontend(service, go)
        assert dropped == b""
        assert during == after == {"ok": True, "op": "ping"}

    def test_client_that_never_reads_is_disconnected(self, service, short_timeout):
        # Each request draws a ~64 KB error reply; the client only writes,
        # so the server's send buffers fill and its drain stalls.
        line = json.dumps({"op": "x" * (1 << 16)}).encode() + b"\n"

        def flood(port):
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                try:
                    for _ in range(2000):  # ~130 MB of replies, never read
                        sock.sendall(line)
                except (ConnectionResetError, BrokenPipeError):
                    return True  # the server dropped us
                except TimeoutError:
                    return False  # the server stopped reading, and kept us
                return False

        async def go(port):
            dropped = await asyncio.to_thread(flood, port)
            return dropped, await asyncio.to_thread(request, port, {"op": "ping"})

        dropped, after = run_frontend(service, go)
        assert dropped
        assert after == {"ok": True, "op": "ping"}

    def test_default_timeout_is_generous(self):
        assert frontend_module.IO_TIMEOUT_S >= 60


class TestPayloads:
    def test_unknown_result_type_rejected(self):
        with pytest.raises(TypeError):
            result_payload(object())

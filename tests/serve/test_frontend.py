"""Asyncio JSON-lines front-end: concurrent queries, stats, error replies."""

import asyncio
import json
import socket

import pytest

import repro.serve.frontend as frontend_module
from repro.api import RunConfig, run
from repro.serve import InfluenceService, ServingFrontend, request
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


class TestPayloads:
    def test_unknown_result_type_rejected(self):
        with pytest.raises(TypeError):
            result_payload(object())

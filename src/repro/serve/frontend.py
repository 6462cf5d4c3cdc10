"""Asyncio JSON-lines front-end for the influence service.

One request per line, one JSON reply per line:

* ``{"op": "query", "kind": "diimm", "k": 20, ...}`` — any
  :class:`~repro.serve.service.Query` field; replies with the seed set,
  objective, and timing breakdown.
* ``{"op": "stats"}`` — service counters and pool sizes.
* ``{"op": "update", "add_edges": [[u, v, p], ...], "remove_edges":
  [[u, v], ...], ...}`` — any :meth:`GraphDelta.from_json
  <repro.graphs.digraph.GraphDelta.from_json>` field; lands the delta on
  a ``dynamic=True`` service's graph, repairs the resident pools in
  place, and replies with the new graph version and repair counts.  A
  delta a resident pool's model cannot sample is refused unapplied.
* ``{"op": "ping"}`` — liveness check.

A cache hit is answered on the event loop
(:meth:`InfluenceService.cached
<repro.serve.service.InfluenceService.cached>`, which takes no pool
lock), from a reply line encoded once per cached result.  A miss runs in
a worker thread (``asyncio.to_thread``), so slow queries never stall the
event loop: misses on the *same* pool serialize on the pool lock, misses
on different pools proceed concurrently, and a hit never waits on a
miss.  Updates run in worker threads too.  Malformed requests get an
``{"ok": false, "error": ...}`` reply instead of killing the connection.
A request line longer than :data:`MAX_LINE_BYTES` gets such a reply too,
naming the bound, and then the connection is closed: the line is
discarded as it arrives, never buffered whole.  A connection that takes
longer than :data:`IO_TIMEOUT_S` to finish sending a line, or to take a
reply off the server's hands, is dropped; other connections never wait
on it.

:func:`request` is the matching synchronous one-shot client used by the
CLI, the tests, and the serving benchmark.
"""

from __future__ import annotations

import asyncio
import json
import socket
from collections import OrderedDict
from typing import Dict, Tuple

from ..applications.result import ApplicationResult
from ..core.result import IMResult
from ..graphs.digraph import GraphDelta
from .service import InfluenceService, Query

__all__ = ["IO_TIMEOUT_S", "MAX_LINE_BYTES", "ServingFrontend", "request", "result_payload"]

#: Longest request line a connection may send.  Read at
#: :meth:`ServingFrontend.start` as the streams' buffer limit; a graph
#: update of ~5 * 10^5 edges fits.
MAX_LINE_BYTES = 16 << 20

#: Longest one request-line read or one reply drain may wait, in seconds;
#: past it the connection is dropped.  Generous on purpose: a closed-loop
#: client holds one connection for its whole session, idle between
#: requests while it does its own work.
IO_TIMEOUT_S = 600.0


def result_payload(result) -> Dict:
    """Flatten an algorithm or application result into a JSON-safe dict."""
    if isinstance(result, IMResult):
        return {
            "seeds": [int(s) for s in result.seeds],
            "objective": float(result.estimated_spread),
            "num_rr_sets": int(result.num_rr_sets),
            "algorithm": result.algorithm,
            "breakdown": {k: float(v) for k, v in result.metrics.breakdown().items()},
            "params": _jsonable(result.params),
        }
    if isinstance(result, ApplicationResult):
        return {
            "seeds": [int(s) for s in result.seeds],
            "objective": float(result.objective),
            "num_rr_sets": int(result.num_rr_sets),
            "algorithm": result.application,
            "breakdown": {k: float(v) for k, v in result.breakdown.items()},
            "params": _jsonable(result.params),
        }
    raise TypeError(f"cannot serialize result of type {type(result).__name__}")


def _jsonable(params: Dict) -> Dict:
    out = {}
    for key, value in params.items():
        if hasattr(value, "item"):  # numpy scalar
            value = value.item()
        out[str(key)] = value
    return out


class ServingFrontend:
    """A TCP JSON-lines server wrapping an :class:`InfluenceService`."""

    def __init__(
        self, service: InfluenceService, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        # Query reply lines by result identity, touched only on the loop.
        # An entry holds its result, so the id stays that result's; at
        # most the service's cache size of them, all dropped when the
        # graph version moves (an update evicts cached results).
        self._lines: "OrderedDict[int, Tuple[object, bytes]]" = OrderedDict()
        self._lines_version = service.graph_version

    async def start(self) -> None:
        """Bind and start accepting connections (``port=0`` picks a free
        port, readable from :attr:`port` afterwards)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        expired = False

        def expire() -> None:
            # Drop it now: a plain close would first wait to flush the
            # replies a non-reading client never takes.
            nonlocal expired
            expired = True
            writer.transport.abort()

        async def bounded(awaitable):
            # A timer, not asyncio.wait_for: no task per read, so a cache
            # hit's round trip does not pay for the bound.
            timer = loop.call_later(IO_TIMEOUT_S, expire)
            try:
                return await awaitable
            finally:
                timer.cancel()

        try:
            while True:
                try:
                    line = await bounded(reader.readuntil(b"\n"))
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # the last line may lack its newline
                except asyncio.LimitOverrunError:
                    await bounded(_discard_line(reader))
                    error = (
                        f"request line exceeds the {MAX_LINE_BYTES}-byte limit; "
                        "closing the connection"
                    )
                    writer.write(_encode({"ok": False, "error": error}))
                    await bounded(writer.drain())
                    break
                if expired or not line:
                    break
                writer.write(await self._dispatch(line))
                await bounded(writer.drain())
        except ConnectionError:
            if not expired:  # the aborted drain of a stalled client
                raise
        finally:
            # Fire-and-forget close: awaiting wait_closed() here would
            # raise if the server is being cancelled mid-handler.
            writer.close()

    async def _dispatch(self, line: bytes) -> bytes:
        """The reply line for one request line."""
        try:
            req = json.loads(line)
            if not isinstance(req, dict):
                raise ValueError("request must be a JSON object")
            op = req.pop("op", "query")
            if op == "ping":
                return _encode({"ok": True, "op": "ping"})
            if op == "stats":
                payload = self.service.describe()
                payload["pools"] = self.service.pool_sizes()
                return _encode({"ok": True, "op": "stats", **payload})
            if op == "query":
                query = Query(
                    kind=req.pop("kind"),
                    **{
                        k: (tuple(v) if isinstance(v, list) else v)
                        for k, v in req.items()
                    },
                )
                result = self.service.cached(query)
                if result is None:
                    result = await asyncio.to_thread(self.service.query, query)
                return self._reply_line(result)
            if op == "update":
                delta = GraphDelta.from_json(req)
                summary = await asyncio.to_thread(self.service.apply_update, delta)
                return _encode({"ok": True, "op": "update", **summary})
            raise ValueError(f"unknown op {op!r}")
        except Exception as exc:  # noqa: BLE001 — every error becomes a reply
            return _encode({"ok": False, "error": f"{type(exc).__name__}: {exc}"})

    def _reply_line(self, result) -> bytes:
        """The query reply line for ``result``, encoded on its first reply."""
        if self._lines_version != self.service.graph_version:
            self._lines.clear()
            self._lines_version = self.service.graph_version
        entry = self._lines.get(id(result))
        if entry is not None:
            self._lines.move_to_end(id(result))
            return entry[1]
        line = _encode({"ok": True, "op": "query", **result_payload(result)})
        self._lines[id(result)] = (result, line)
        while len(self._lines) > self.service.cache_size:
            self._lines.popitem(last=False)
        return line


def _encode(reply: Dict) -> bytes:
    return json.dumps(reply).encode() + b"\n"


async def _discard_line(reader: asyncio.StreamReader) -> None:
    """Drop the rest of an overlong line, at most a buffer's worth at a time.

    Consuming it through its newline leaves nothing unread, so closing the
    connection after the error reply does not reset it under the reply.
    """
    while True:
        try:
            await reader.readuntil(b"\n")
            return
        except asyncio.LimitOverrunError as exc:
            await reader.readexactly(exc.consumed)
        except asyncio.IncompleteReadError:
            return


def request(port: int, payload: Dict, host: str = "127.0.0.1", timeout: float = 600.0) -> Dict:
    """Synchronous one-shot client: send one request line, read the reply."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(json.dumps(payload).encode() + b"\n")
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
            if chunk.endswith(b"\n"):
                break
    return json.loads(b"".join(chunks))

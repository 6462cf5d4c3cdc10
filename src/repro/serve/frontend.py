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
  place, and replies with the new graph version and repair counts.
* ``{"op": "compact"}`` — fold the dynamic graph's overlay into a fresh
  base CSR.
* ``{"op": "ping"}`` — liveness check.

Queries run in worker threads (``asyncio.to_thread``), so slow cold
queries never stall the event loop; queries hitting the *same* pool
serialize on the pool lock while queries against different pools (and
cache hits) proceed concurrently.  Malformed requests get an
``{"ok": false, "error": ...}`` reply instead of killing the connection.
A request line longer than :data:`MAX_LINE_BYTES` gets such a reply too,
naming the bound, and then the connection is closed: the line is
discarded as it arrives, never buffered whole.

:func:`request` is the matching synchronous one-shot client used by the
CLI, the tests, and the serving benchmark.
"""

from __future__ import annotations

import asyncio
import json
import socket
from typing import Dict

from ..applications.result import ApplicationResult
from ..core.result import IMResult
from ..graphs.digraph import GraphDelta
from .service import InfluenceService, Query

__all__ = ["MAX_LINE_BYTES", "ServingFrontend", "request", "result_payload"]

#: Longest request line a connection may send.  Read at
#: :meth:`ServingFrontend.start` as the streams' buffer limit; a graph
#: update of ~5 * 10^5 edges fits.
MAX_LINE_BYTES = 16 << 20


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
        try:
            while True:
                try:
                    line = await reader.readuntil(b"\n")
                except asyncio.IncompleteReadError as exc:
                    line = exc.partial  # the last line may lack its newline
                except asyncio.LimitOverrunError:
                    await _discard_line(reader)
                    error = (
                        f"request line exceeds the {MAX_LINE_BYTES}-byte limit; "
                        "closing the connection"
                    )
                    reply = {"ok": False, "error": error}
                    writer.write(json.dumps(reply).encode() + b"\n")
                    await writer.drain()
                    break
                if not line:
                    break
                reply = await self._dispatch(line)
                writer.write(json.dumps(reply).encode() + b"\n")
                await writer.drain()
        finally:
            # Fire-and-forget close: awaiting wait_closed() here would
            # raise if the server is being cancelled mid-handler.
            writer.close()

    async def _dispatch(self, line: bytes) -> Dict:
        try:
            req = json.loads(line)
            if not isinstance(req, dict):
                raise ValueError("request must be a JSON object")
            op = req.pop("op", "query")
            if op == "ping":
                return {"ok": True, "op": "ping"}
            if op == "stats":
                payload = self.service.describe()
                payload["pools"] = self.service.pool_sizes()
                return {"ok": True, "op": "stats", **payload}
            if op == "query":
                query = Query(
                    kind=req.pop("kind"),
                    **{
                        k: (tuple(v) if isinstance(v, list) else v)
                        for k, v in req.items()
                    },
                )
                result = await asyncio.to_thread(self.service.query, query)
                return {"ok": True, "op": "query", **result_payload(result)}
            if op == "update":
                delta = GraphDelta.from_json(req)
                summary = await asyncio.to_thread(self.service.apply_update, delta)
                return {"ok": True, "op": "update", **summary}
            if op == "compact":
                summary = await asyncio.to_thread(self.service.compact)
                return {"ok": True, "op": "compact", **summary}
            raise ValueError(f"unknown op {op!r}")
        except Exception as exc:  # noqa: BLE001 — every error becomes a reply
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


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

"""The socket backend: the worker protocol carried over TCP.

This is the real multi-node mode of :mod:`repro.cluster.parallel` —
same worker loop, same channel, same dispatch; only the way a channel
obtains its stream differs.  A worker is a process that listens
(:func:`serve_worker`, exposed as the ``repro worker`` CLI, so a real
deployment is this file running on every node) and the master dials it:

* ``SocketSpec()`` / ``socket:N`` — the executor owns ``serve_worker``
  processes on loopback, dials them, re-dials after a lost stream and
  respawns one whose port refuses.  This rehearses listen / accept /
  dial / re-dial on one box.
* ``SocketSpec(addresses=...)`` — externally started workers, dialed
  (and re-dialed) only; the graph ships inline, or each node loads its
  local copy when ``graph_path`` is set.

A worker serves one connection at a time and keeps its graphs and
samplers across connections, so a master can drop, re-dial and keep
generating without re-shipping the graph.
"""

from __future__ import annotations

import socket
from typing import List, Tuple

# Not called here — the master-side decode lives in parallel.py — but the
# benchmark tracer (benchmarks/e2e/trace.py) patches both names on this
# module by path, so they must stay importable from it.
from ..ris.serialization import unpack_message  # noqa: F401
from ..ris.wire import decode_batch  # noqa: F401
from .cluster import SimulatedCluster
from .faults import FaultPlan, RetryPolicy
from .parallel import WorkerBackedExecutor, WorkerChannel, WorkerState, serve_connection
from .spec import SocketSpec

__all__ = ["SocketExecutor", "serve_worker"]


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def serve_worker(host: str = "127.0.0.1", port: int = 0, *, ready=None) -> int:
    """Run a generation worker: accept master connections until shutdown.

    Binds ``host:port`` (port 0 picks a free one), reports the bound
    port through the optional ``ready`` callable, then serves one
    connection at a time with
    :func:`~repro.cluster.parallel.serve_connection`.  Returns the bound
    port after an orderly ``shutdown`` request.
    """
    server = socket.create_server((host, port))
    bound = server.getsockname()[1]
    if ready is not None:
        ready(bound)
    state = WorkerState()
    try:
        while True:
            conn, _peer = server.accept()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if not serve_connection(conn, state):
                return bound
    finally:
        server.close()


def _worker_entry(host: str, pipe) -> None:
    """Spawn-safe process target: serve and report the bound port."""

    def ready(port: int) -> None:
        pipe.send(port)
        pipe.close()

    serve_worker(host, 0, ready=ready)


# ----------------------------------------------------------------------
# Master side
# ----------------------------------------------------------------------
class TcpChannel(WorkerChannel):
    """A worker channel whose stream is a dialed TCP connection.

    With no ``address`` the channel owns a loopback ``serve_worker``
    process (and learns its address on spawn): a lost stream is
    re-dialed, and the worker respawned if the dial is refused.  With an
    ``address`` the worker is external and can only be re-dialed.
    """

    def __init__(self, index: int, ctx, address: Tuple[str, int] | None = None) -> None:
        super().__init__(index, ctx)
        self.address = address
        self.local = address is None

    def _dial(self, timeout: float) -> None:
        sock = socket.create_connection(self.address, timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.settimeout(None)
        self.sock = sock

    def _spawn(self, timeout: float) -> None:
        parent, child = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(target=_worker_entry, args=("127.0.0.1", child), daemon=True)
        process.start()
        child.close()
        try:
            if not parent.poll(timeout):
                process.terminate()
                raise ConnectionError(
                    f"spawned worker {self.index} did not report a port within {timeout:g}s"
                )
            self.address = ("127.0.0.1", parent.recv())
        finally:
            parent.close()
        self.process = process

    def open(self, timeout: float) -> None:
        if not self.local:
            self._dial(timeout)
            return
        # A refused dial and a dead process are the same condition: the
        # connection reset from a killed worker can reach the master
        # *before* the exit is observable via is_alive(), so a failed
        # reconnect to a live-looking process still means respawn.
        if self.process is not None and self.process.is_alive():
            try:
                self._dial(timeout)
                return
            except OSError:
                pass
        self.stop_process(grace=0.0)
        self._spawn(timeout)
        self._dial(timeout)


class SocketExecutor(WorkerBackedExecutor):
    """Generation on TCP workers (owned loopback processes or real nodes)."""

    name = "socket"

    def __init__(
        self,
        cluster: SimulatedCluster,
        graph=None,
        spec: SocketSpec | None = None,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        super().__init__(cluster, graph, spec or SocketSpec(), faults, retry)
        self.connect_timeout = self.spec.connect_timeout
        self.heartbeat_timeout = self.spec.heartbeat_timeout
        self.graph_path = self.spec.graph_path

    def _make_channels(self) -> List[WorkerChannel]:
        if self.spec.addresses is not None:
            return [TcpChannel(i, self._ctx, a) for i, a in enumerate(self.spec.addresses)]
        workers = self.spec.workers or self._default_workers()
        return [TcpChannel(i, self._ctx) for i in range(workers)]

"""Real generation workers: one worker loop, one channel, one dispatch.

The simulated cluster meters sequential execution; this module is the
cross-check: it fans RR-set generation out over OS processes, the local
equivalent of the paper's MPI workers.  There is one worker program and
one master-side implementation, whatever carries the bytes; the
executors built on it differ only in how a channel *obtains* its
connected stream (:meth:`WorkerChannel.open`):

* :class:`MultiprocessingExecutor` — an owned process handed one end of
  a ``socket.socketpair()``.  No listening port: local parallelism never
  exposes a pickle-speaking endpoint to other users of the host.
* :class:`~repro.cluster.socket_executor.SocketExecutor` — loopback TCP
  to owned ``serve_worker`` processes, or TCP to external ones.

Protocol
--------
Every message is one CRC32 frame (:func:`~repro.ris.serialization.pack_message`)
holding ``(op, seq, body)``; ``seq`` is a per-channel sequence number
that matches replies to requests, so several machines are pipelined
onto one stream and answered in any order:

``enroll``
    ``{"token", "graph" | "shm_spec" | "path"}`` — the worker takes the
    graph shipped inline, attaches a shared-memory export
    (:meth:`DirectedGraph.to_shared <repro.graphs.digraph.DirectedGraph.to_shared>`,
    no copy) or loads an ``.npz`` from its local disk, and caches it
    under the token; keyed kernels are cached per ``(token, model)``.
    Replies ``("enrolled", seq, info)``.
``generate``
    ``{"token", "model", "seed", "key", "machine", "start",
    "count", "roots", "directive"}`` — the worker draws sets ``start ..
    start + count - 1`` of collection ``key`` on ``machine``, rooted in
    ``roots`` (``None``: all nodes), through
    :func:`~repro.ris.rrset.sample_set_range`, exactly as the master
    would, and replies ``("batch", seq, (payload, elapsed))`` where
    ``payload`` is the inner frame around the delta + varint encoded
    batch (:mod:`repro.ris.wire`), whose size is the backend-neutral
    ``num_bytes``; ``wire_sent`` / ``wire_received`` / ``round_trips``
    count the real stream traffic.  Failures reply
    ``("error", seq, (message, elapsed))``.
``ping`` / ``shutdown``
    Heartbeat (``pong``) and orderly worker exit (``bye``).

No generator or generator state travels either way: a request is integers
and names, and decoded batches are bit-identical to locally drawn ones.

Failure model
-------------
Injected directives exercise every failure the master can see:
``crash`` replies an error, ``crash-hard`` kills the worker process,
``disconnect`` severs the stream — both break the stream and are seen
*at once* as ``disconnect`` — ``drop`` swallows the reply so only the
phase deadline notices (``timeout``), and ``corrupt`` flips a byte of
the inner payload so its CRC fails on arrival (``corruption``).  A
request names its sets by coordinates, so every retry redraws the
identical batch.

Only generation is parallelised — it dominates the running time in
every figure of the paper; seed selection runs through NEWGREEDI on the
gathered per-machine collections.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import selectors
import socket
import time
import uuid
from collections import OrderedDict
from typing import Any, Dict, List, Sequence, Tuple

from ..graphs.digraph import DirectedGraph, SharedGraphHandle
from ..graphs.io import load_npz
from ..ris import make_sampler
from ..ris.rrset import sample_set_range
from ..ris.serialization import (
    MESSAGE_HEADER_BYTES,
    FrameTruncatedError,
    PayloadCorruptionError,
    pack_message,
    read_frame,
    unpack_message,
)
from ..ris.wire import decode_batch, encode_batch
from .cluster import SimulatedCluster
from .executor import Executor, GeneratePhase, GenerationOutcome
from .faults import CORRUPT, CRASH, CRASH_HARD, DISCONNECT, DROP, FaultPlan, RetryPolicy
from .spec import ExecutorSpec, MultiprocessingSpec

__all__ = [
    "WorkerState",
    "serve_connection",
    "WorkerChannel",
    "WorkerBackedExecutor",
    "MultiprocessingExecutor",
]

#: Environment override for the workers' start method (``fork``/``spawn``/
#: ``forkserver``); CI uses it to run the whole suite under ``spawn``.
START_METHOD_ENV = "REPRO_MP_START_METHOD"

#: Worker-side cap on cached graph enrollments: a long-lived worker
#: serving masters that refresh their graphs should not accumulate
#: attachments forever.
_MAX_ENROLLMENTS = 4


def _resolve_start_method(start_method: str | None) -> str:
    method = start_method or os.environ.get(START_METHOD_ENV) or None
    available = mp.get_all_start_methods()
    if method is None:
        return "fork" if "fork" in available else "spawn"
    if method not in available:
        raise ValueError(
            f"start method {method!r} unavailable on this platform "
            f"(have: {', '.join(available)})"
        )
    return method


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
class WorkerState:
    """Graphs and samplers a worker keeps across requests and streams."""

    def __init__(self) -> None:
        self.graphs: "OrderedDict[str, DirectedGraph]" = OrderedDict()
        self.samplers: Dict[Tuple[str, str, str], Any] = {}

    def enroll(self, request: Dict[str, Any]) -> Tuple[str, Any]:
        """One enrollment request -> ``(reply op, reply body)``."""
        token = request["token"]
        try:
            if token not in self.graphs:
                if request.get("graph") is not None:
                    graph = request["graph"]
                elif request.get("shm_spec") is not None:
                    graph = DirectedGraph.from_shared(request["shm_spec"])
                elif request.get("path"):
                    graph = load_npz(request["path"])
                else:
                    return "error", (f"unknown token {token!r} and no graph source", 0.0)
                self.graphs[token] = graph
                while len(self.graphs) > _MAX_ENROLLMENTS:
                    stale, _ = self.graphs.popitem(last=False)
                    self.samplers = {
                        key: sampler for key, sampler in self.samplers.items() if key[0] != stale
                    }
            self.graphs.move_to_end(token)
            return "enrolled", {"num_nodes": self.graphs[token].num_nodes}
        except Exception as exc:  # noqa: BLE001 - shipped back to the master
            return "error", (f"enroll failed: {type(exc).__name__}: {exc}", 0.0)

    def sampler(self, token: str, model: str):
        key = (token, model)
        if key not in self.samplers:
            graph = self.graphs.get(token)
            if graph is None:
                raise KeyError(f"unknown enrollment token {token!r}")
            self.samplers[key] = make_sampler(graph, model=model)
        return self.samplers[key]

    def generate(self, request: Dict[str, Any]) -> Tuple[str, Any]:
        """One generation request -> ``(reply op, reply body)``."""
        directive = request.get("directive")
        start = time.perf_counter()
        try:
            if directive == CRASH:
                raise RuntimeError("injected worker crash")
            sampler = self.sampler(request["token"], request["model"])
            ids = range(request["start"], request["start"] + request["count"])
            batch = sample_set_range(
                sampler, request["seed"], request["machine"], ids, request["key"], request["roots"]
            )
            payload = pack_message(encode_batch(batch))
        except Exception as exc:  # noqa: BLE001 - the executor decides recovery
            prefix = "crash: " if directive == CRASH else ""
            message = f"{prefix}{type(exc).__name__}: {exc}"
            return "error", (message, time.perf_counter() - start)
        if directive == CORRUPT and len(payload) > MESSAGE_HEADER_BYTES:
            # Flip one body byte of the *inner* frame: the outer frame (and
            # its seq) stays intact, so the master attributes the CRC failure
            # to the right machine while the stream stays aligned.
            corrupted = bytearray(payload)
            corrupted[MESSAGE_HEADER_BYTES] ^= 0xFF
            payload = bytes(corrupted)
        return "batch", (payload, time.perf_counter() - start)


def serve_connection(conn: socket.socket, state: WorkerState) -> bool:
    """Serve one master stream until it ends; False on orderly shutdown."""

    def reply(seq: int, op: str, body: Any) -> None:
        conn.sendall(pack_message((op, seq, body)))

    try:
        with conn:
            while True:
                message = read_frame(conn.recv)
                if message is None:
                    return True  # the master hung up
                op, seq, body = message
                if op == "shutdown":
                    reply(seq, "bye", None)
                    return False
                if op == "ping":
                    reply(seq, "pong", None)
                elif op == "enroll":
                    reply(seq, *state.enroll(body))
                elif op == "generate":
                    directive = body.get("directive")
                    if directive == CRASH_HARD:
                        # The injected equivalent of `kill -9`: the process
                        # dies mid-request and takes its stream with it.
                        os._exit(1)
                    result = state.generate(body)
                    if directive == DISCONNECT:
                        return True
                    if directive != DROP:
                        reply(seq, *result)
                else:
                    reply(seq, "error", (f"unknown op {op!r}", 0.0))
    except (OSError, PayloadCorruptionError):
        # A broken or garbled stream only ends this session.
        return True


def _serve_pair(conn: socket.socket, master_end: socket.socket) -> None:
    """Process target of a socketpair worker: serve its one stream, exit."""
    # Under fork the child holds a copy of the master's end of its own
    # stream; while it does, the master dying would never read as EOF here.
    master_end.close()
    serve_connection(conn, WorkerState())


# ----------------------------------------------------------------------
# Master side
# ----------------------------------------------------------------------
class WorkerChannel:
    """The master's end of one worker stream, with wire accounting.

    ``wire_sent`` / ``wire_received`` count every framed byte that
    crossed the stream (requests, replies, enrollment, heartbeats);
    ``round_trips`` counts completed request/reply exchanges.

    :meth:`open` is the transport seam.  This base class obtains its
    stream from ``socket.socketpair()`` with an owned process on the
    other end, and a pair cannot be re-dialed, so a lost stream means
    kill + respawn; the TCP subclass dials (and re-dials) instead.
    """

    #: Whether the worker shares this host's shared memory.
    local = True

    def __init__(self, index: int, ctx) -> None:
        self.index = index
        self.sock: socket.socket | None = None
        self.process: mp.process.BaseProcess | None = None
        #: Token of the graph the worker behind the *current* stream holds.
        self.enrolled: str | None = None
        self.wire_sent = 0
        self.wire_received = 0
        self.round_trips = 0
        self._ctx = ctx
        self._seq = 0

    def open(self, timeout: float) -> None:
        """Obtain a connected stream (``timeout`` bounds a TCP dial)."""
        self.stop_process(grace=0.0)
        ours, theirs = socket.socketpair()
        process = self._ctx.Process(target=_serve_pair, args=(theirs, ours), daemon=True)
        try:
            process.start()
        except BaseException:
            ours.close()
            raise
        finally:
            theirs.close()
        self.sock, self.process = ours, process

    def send(self, op: str, body: Any, timeout: float | None = None) -> int:
        """Write one request frame; returns its sequence number."""
        if self.sock is None:
            raise ConnectionError(f"worker channel {self.index} is not connected")
        self._seq += 1
        data = pack_message((op, self._seq, body))
        self.sock.settimeout(timeout)
        try:
            self.sock.sendall(data)
        finally:
            self.sock.settimeout(None)
        self.wire_sent += len(data)
        return self._seq

    def recv(self, deadline: float | None = None) -> Any:
        """Read one frame; ``deadline`` is an absolute ``time.monotonic``."""
        if self.sock is None:
            raise ConnectionError(f"worker channel {self.index} is not connected")
        sock = self.sock

        def metered_recv(count: int) -> bytes:
            if deadline is not None:
                sock.settimeout(max(deadline - time.monotonic(), 1e-3))
            chunk = sock.recv(count)
            self.wire_received += len(chunk)
            return chunk

        try:
            return read_frame(metered_recv, eof_ok=False)
        finally:
            sock.settimeout(None)

    def request(self, op: str, body: Any, timeout: float) -> Tuple[str, Any]:
        """One blocking exchange -> ``(reply op, reply body)``."""
        seq = self.send(op, body, timeout)
        deadline = time.monotonic() + timeout
        while True:
            reply_op, reply_seq, reply_body = self.recv(deadline)
            if reply_seq == seq:  # anything else is a straggler from a dropped phase
                self.round_trips += 1
                return reply_op, reply_body

    def drop(self) -> None:
        """Close the stream so that the worker reads EOF.

        ``shutdown`` first: under ``fork`` a sibling worker started later
        holds a copy of this descriptor, and a bare ``close`` would then
        never reach the peer — it would stay parked on a dead stream.
        """
        sock, self.sock, self.enrolled = self.sock, None, None
        if sock is not None:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already reset by the peer
            sock.close()

    def stop_process(self, grace: float = 2.0) -> None:
        """Reap the owned worker: wait ``grace``, then SIGTERM, then SIGKILL."""
        process, self.process = self.process, None
        if process is None:
            return
        process.join(grace)
        if process.is_alive():
            process.terminate()
            process.join(2.0)
        if process.is_alive():
            process.kill()
            process.join()


class WorkerBackedExecutor(Executor):
    """Generation fanned out to real worker processes.

    Machines are pipelined round-robin onto the channels: machine ``i``
    talks over ``channels[i % workers]``, a phase's requests are all
    written before any reply is awaited, and replies are matched by
    sequence number from whichever channel is readable.  Workers and the
    shared-memory graph export live for the whole run; :meth:`close`
    (the entry points call it through a ``with``-block) reaps the
    workers and then unlinks the block.

    A request carries its sets' coordinates and the worker draws them
    through the same :func:`~repro.ris.rrset.sample_set_range` the
    simulated backend calls, so collections are bit-identical to
    :class:`SimulatedExecutor` for the same seed, whichever faults fired.
    Failure *detection* is real: a broken stream is a ``disconnect`` the
    moment it breaks, an expired ``RetryPolicy.phase_timeout`` is a
    ``timeout``, and the channel is re-opened (and the worker re-enrolled)
    before the next attempt.

    Subclasses say which channels to build (:meth:`_make_channels`);
    worker wall-clock time is scaled by the machine's ``slowdown``,
    keeping heterogeneous-cluster metering consistent.
    """

    #: Seconds allowed for connecting + enrolling a worker, and for a
    #: heartbeat ping; :class:`~repro.cluster.spec.SocketSpec` overrides.
    connect_timeout = 10.0
    heartbeat_timeout = 5.0
    #: ``.npz`` every worker loads the graph from instead of receiving it.
    graph_path: str | None = None

    def __init__(
        self,
        cluster: SimulatedCluster,
        graph,
        spec: ExecutorSpec,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        if graph is None:
            raise ValueError(f"{type(self).__name__} requires the graph up front")
        super().__init__(cluster, graph, faults=faults, retry=retry)
        self.spec = spec.validate()
        self.start_method = _resolve_start_method(spec.start_method)
        self._ctx = mp.get_context(self.start_method)
        self._channels: List[WorkerChannel] | None = None
        self._handle: SharedGraphHandle | None = None
        #: Set once an export fails: from then on local workers get the
        #: graph inline, as remote ones do.
        self._inline_graph = False
        self._token = uuid.uuid4().hex
        self._closed = False

    # -- channels and graph broadcast --------------------------------------
    def _make_channels(self) -> List[WorkerChannel]:
        raise NotImplementedError

    def _default_workers(self) -> int:
        """One worker per machine, capped at the CPU count."""
        return min(max(self.num_machines, 1), mp.cpu_count())

    def _ensure_channels(self) -> List[WorkerChannel]:
        """The channel list and the graph export local workers attach.

        Both are lazy.  The export precedes the first spawn so that every
        worker inherits the master's ``resource_tracker`` (a worker that
        had to start its own would report — and unlink — the block as
        leaked when it exits).  A failed export sends every later
        enrollment the graph inline instead.
        """
        if self._closed:
            raise RuntimeError(f"{type(self).__name__} is closed")
        if self._channels is None:
            self._channels = self._make_channels()
        wanted = not self._inline_graph and self.graph_path is None
        if wanted and self._handle is None and any(c.local for c in self._channels):
            try:
                self._handle = self.graph.to_shared()
            except Exception:
                self._inline_graph = True
        return self._channels

    def _graph_source(self, channel: WorkerChannel) -> Dict[str, Any]:
        """The enrollment entry saying where the worker finds the graph."""
        if self.graph_path is not None:
            return {"path": self.graph_path}
        if channel.local and self._handle is not None:
            return {"shm_spec": self._handle.spec}
        # Shared memory does not cross hosts (or is unavailable/disabled).
        return {"graph": self.graph}

    def _ensure_channel(self, channel: WorkerChannel) -> None:
        """Connect ``channel`` and enroll its worker under the current token."""
        if channel.sock is None:
            channel.open(self.connect_timeout)
        if channel.enrolled == self._token:
            return
        request = {"token": self._token, **self._graph_source(channel)}
        op, detail = channel.request("enroll", request, self.connect_timeout)
        if op != "enrolled":
            channel.drop()
            raise ConnectionError(f"worker {channel.index} refused enrollment: {detail}")
        channel.enrolled = self._token

    # -- dispatch ------------------------------------------------------------
    def _dispatch(
        self,
        plan: GeneratePhase,
        ids: Sequence[int],
        directives: Sequence[str | None] | None = None,
        timeout: float | None = None,
    ) -> List[GenerationOutcome]:
        """Run one generation wave of the resolved ``plan`` on the workers.

        Task ``i`` is machine ``ids[i]``'s quota (``directives[i]`` its
        injected fault, if any); outcomes come back in the same order.
        A machine's worker is ``machine_id mod W``, so a retry wave over
        a subset of the machines lands where the first wave did.
        ``timeout`` is the wall-clock deadline for the whole wave;
        ``None`` waits forever, so a silent worker then hangs — the
        failure mode
        :class:`~repro.cluster.faults.RetryPolicy.phase_timeout` exists
        to prevent.  Failures are captured per task (``outcome.error``),
        never raised.
        """
        if directives is not None and len(directives) != len(ids):
            raise ValueError("directives must have one entry per machine")
        if not ids:
            return []
        channels = self._ensure_channels()
        placement = [channels[mid % len(channels)] for mid in ids]
        deadline = time.monotonic() + timeout if timeout is not None else None
        expired = None if timeout is None else f"timeout: no result within {timeout:g}s"
        outcomes: List[GenerationOutcome | None] = [None] * len(ids)
        waiting: Dict[WorkerChannel, Dict[int, int]] = {}  # channel -> seq -> task

        # Start every missing worker before enrolling any: a spawned
        # interpreter takes a while to boot, and they can boot side by side.
        for channel in dict.fromkeys(placement):
            if channel.sock is None:
                try:
                    channel.open(self.connect_timeout)
                except OSError:
                    pass  # tried again, and reported, per task below
        # Pipeline: write every request before awaiting any reply.
        for position, (mid, channel) in enumerate(zip(ids, placement)):
            request = {
                "token": self._token,
                "model": plan.model,
                "seed": plan.seed,
                "key": plan.key,
                "machine": mid,
                "start": plan.starts[mid],
                "count": plan.counts[mid],
                "roots": plan.roots,
                "directive": directives[position] if directives else None,
            }
            try:
                self._ensure_channel(channel)
                seq = channel.send("generate", request, self.connect_timeout)
            except (OSError, PayloadCorruptionError) as exc:
                # The stream is gone, and with it every reply still owed on
                # it; a later task re-opens the channel with a clean slate.
                channel.drop()
                for lost in (position, *waiting.pop(channel, {}).values()):
                    outcomes[lost] = GenerationOutcome(None, 0.0, f"disconnect: {exc}")
                continue
            waiting.setdefault(channel, {})[seq] = position

        with selectors.DefaultSelector() as selector:

            def give_up(channel: WorkerChannel, elapsed: float, error: str) -> None:
                # Late replies could still arrive and desynchronize seq
                # matching, so the stream goes too; it is re-opened on next use.
                for position in waiting.pop(channel).values():
                    outcomes[position] = GenerationOutcome(None, elapsed, error)
                selector.unregister(channel.sock)
                channel.drop()

            for channel in waiting:
                selector.register(channel.sock, selectors.EVENT_READ, channel)
            # Drain whichever stream is readable: a reply can exceed the
            # socket buffer, and a worker parked in sendall behind a channel
            # the master is not reading would idle through its next task.
            while waiting:
                remaining = None if deadline is None else deadline - time.monotonic()
                ready = selector.select(remaining) if remaining is None or remaining > 0 else []
                if not ready:
                    for channel in list(waiting):
                        give_up(channel, timeout, expired)
                    break
                for key, _events in ready:
                    channel, slots = key.data, waiting[key.data]
                    try:
                        op, seq, body = channel.recv(deadline)
                    except socket.timeout:  # stalled mid-frame past the deadline
                        give_up(channel, timeout, expired)
                        continue
                    except (FrameTruncatedError, OSError) as exc:
                        # The stream broke: the worker died, was killed, or
                        # severed the connection.
                        give_up(channel, 0.0, f"disconnect: {exc}")
                        continue
                    except PayloadCorruptionError as exc:
                        # read_frame drained the bad frame, so the stream is
                        # still aligned — but the seq is unreadable.  Charge
                        # the oldest outstanding request.
                        position = slots.pop(min(slots))
                        outcomes[position] = GenerationOutcome(None, 0.0, f"corruption: {exc}")
                    else:
                        position = slots.pop(seq, None)
                        if position is None:
                            continue  # stale straggler from a dropped phase
                        channel.round_trips += 1
                        if op == "error":
                            error, elapsed = body
                            outcomes[position] = GenerationOutcome(None, elapsed, error)
                        else:
                            payload, elapsed = body
                            try:
                                batch = decode_batch(unpack_message(payload))
                                outcome = GenerationOutcome(batch, elapsed, None, len(payload))
                            except PayloadCorruptionError as exc:
                                outcome = GenerationOutcome(
                                    None, elapsed, f"corruption: {exc}", len(payload)
                                )
                            outcomes[position] = outcome
                    if not slots:
                        del waiting[channel]
                        selector.unregister(channel.sock)
        return outcomes

    # -- the generation loop's hooks -----------------------------------------
    def _wire_totals(self) -> Tuple[int, int, int]:
        channels = self._channels or []
        return (
            sum(c.wire_sent for c in channels),
            sum(c.wire_received for c in channels),
            sum(c.round_trips for c in channels),
        )

    def _attempt_wave(
        self, plan: GeneratePhase, ids: Sequence[int], attempt: int
    ) -> List[GenerationOutcome]:
        """One wave on the workers, with real failure detection.

        Injected faults travel as per-request *directives* (raise,
        SIGKILL, flip a payload byte, swallow the reply, sever the
        stream); the phase timeout and backoff are genuine wall-clock,
        so a silent worker really is declared lost by the deadline — and
        a dead one really is detected by its broken stream.
        """
        time.sleep(self.retry.delay_before(attempt))
        round_index = self.metrics.current_round
        faults = (self.faults.failure_for(mid, round_index, attempt) for mid in ids)
        outcomes = self._dispatch(
            plan,
            ids,
            directives=[None if fault is None else fault.kind for fault in faults],
            timeout=self.retry.phase_timeout,
        )
        return [
            outcome._replace(elapsed=outcome.elapsed * self.cluster.slowdowns[mid])
            for mid, outcome in zip(ids, outcomes)
        ]

    def _replay_host(self, mid: int, turn: int, failed: Dict[int, str]) -> int:
        """Reassignment of last resort: the master redraws the quota
        inline, on the lost machine's own clock and slot."""
        return mid

    # -- lifecycle -----------------------------------------------------------
    def heartbeat(self) -> List[float | None]:
        """Ping every worker; per-channel round-trip seconds (None = dead)."""
        latencies: List[float | None] = []
        for channel in self._ensure_channels():
            started = time.monotonic()
            try:
                self._ensure_channel(channel)
                channel.request("ping", None, self.heartbeat_timeout)
                latencies.append(time.monotonic() - started)
            except (OSError, PayloadCorruptionError):
                channel.drop()
                latencies.append(None)
        return latencies

    def refresh_graph(self, touched=None) -> None:
        """Re-broadcast the graph after it mutated in place.

        The shared-memory export is a snapshot, so workers attached to
        it would keep sampling the old graph after a
        :class:`~repro.graphs.digraph.GraphDelta` lands.  A new token
        makes every worker enroll the graph's current state — over its
        live stream — on next use, and builds its kernels afresh; the
        stale export is unlinked now that no new enrollment can
        reference it.  The master's own samplers are rebased on
        ``touched`` (:meth:`Executor.refresh_graph`).
        """
        super().refresh_graph(touched)
        self._token = uuid.uuid4().hex
        handle, self._handle = self._handle, None
        if handle is not None:
            handle.unlink()

    def close(self) -> None:
        """Reap the owned workers, then unlink the shared-memory block.

        In that order on every path, so no worker is still attached —
        or still registering the block with the resource tracker — when
        the master retires it.  External workers are only hung up on.
        """
        if self._closed:
            return
        self._closed = True
        channels, self._channels = self._channels or [], None
        try:
            for channel in channels:
                if channel.process is not None and channel.sock is not None:
                    try:
                        channel.send("shutdown", None, 1.0)
                    except OSError:
                        channel.drop()
            for channel in channels:
                # Still connected means the worker was asked to exit: give it
                # time to say "bye" and go; a worker nobody could ask is killed.
                asked = channel.process is not None and channel.sock is not None
                if asked:
                    try:
                        channel.recv(time.monotonic() + 1.0)
                    except (OSError, PayloadCorruptionError):
                        pass
                channel.drop()
                channel.stop_process(grace=2.0 if asked else 0.0)
        finally:
            handle, self._handle = self._handle, None
            if handle is not None:
                handle.unlink()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass


class MultiprocessingExecutor(WorkerBackedExecutor):
    """Generation on owned worker processes over ``socket.socketpair()``."""

    name = "multiprocessing"

    def __init__(
        self,
        cluster: SimulatedCluster,
        graph=None,
        spec: MultiprocessingSpec | None = None,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        super().__init__(cluster, graph, spec or MultiprocessingSpec(), faults, retry)

    def _make_channels(self) -> List[WorkerChannel]:
        workers = self.spec.processes or self._default_workers()
        return [WorkerChannel(i, self._ctx) for i in range(workers)]

"""The Executor layer: one phase-plan interface over every backend.

Algorithms (DIIMM, D-SSA, D-SUBSIM, D-OPIM-C) describe each distributed
step as a declarative *phase plan* — generate RR sets, map a work
function, gather, broadcast, or run master-side code — and hand it to an
:class:`Executor`.  The executor decides *how* the phase runs while
keeping the accounting contract identical:

* :class:`SimulatedExecutor` executes machines sequentially on the
  simulated cluster, exactly as the algorithms previously did by calling
  :meth:`SimulatedCluster.map <repro.cluster.cluster.SimulatedCluster.map>`
  directly;
* :class:`MultiprocessingExecutor` and
  :class:`~repro.cluster.socket_executor.SocketExecutor` fan the
  generation phase out over real worker processes (the closest
  equivalent of the paper's MPI workers; see
  :mod:`repro.cluster.parallel`), shipping each machine's private RNG to
  its worker and restoring the advanced RNG state afterwards — so a run
  is reproducible and *identical* to the simulated backend for a fixed
  seed, which the conformance tests pin.

Every phase lands in the cluster's :class:`~repro.cluster.metrics.RunMetrics`
with per-machine times (scaled by each machine's ``slowdown``) and byte
counts, whichever executor ran it.

Fault tolerance
---------------
Passing a :class:`~repro.cluster.faults.FaultPlan` (even an empty one)
switches generation onto the fault-tolerant path: every machine's RNG is
snapshotted before each attempt, injected faults fire per
``(machine, round, attempt)``, and the :class:`~repro.cluster.faults.RetryPolicy`
governs retries, backoff, timeouts and quota reassignment.  Because a
failed attempt restores the pre-attempt snapshot and a reassigned quota
replays the dead machine's stream, the final collections — and therefore
the selected seeds — are bit-identical to a fault-free run; only the
metered times and the recovery log differ.  ``faults=None`` (default)
takes the original code path untouched.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Tuple

import numpy as np

from ..ris import make_sampler
from ..ris.flat import append_batch
from ..ris.rrset import FlatBatch, RRSampler, sample_set_range
from ..ris.wire import encoded_batch_nbytes
from .cluster import SimulatedCluster
from .faults import (
    CORRUPT,
    CRASH_HARD,
    DEFAULT_RETRY,
    DISCONNECT,
    DROP,
    FAILURE_KINDS,
    FaultPlan,
    FaultToleranceExceeded,
    PhaseTimeoutError,
    RetryPolicy,
)
from .machine import Machine
from .metrics import COMPUTATION, GENERATION, RunMetrics
from .spec import ExecutorSpec, MultiprocessingSpec, SimulatedSpec, SocketSpec, as_spec

__all__ = [
    "GeneratePhase",
    "MapPhase",
    "GatherPhase",
    "BroadcastPhase",
    "MasterPhase",
    "PhaseResult",
    "Executor",
    "SimulatedExecutor",
    "WorkerBackedExecutor",
    "MultiprocessingExecutor",
    "EXECUTORS",
    "make_executor",
    "as_executor",
    "executor_scope",
]


# ----------------------------------------------------------------------
# Phase plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GeneratePhase:
    """Generate RR sets on every machine and append them to its store.

    Parameters
    ----------
    label:
        Metrics label (category is always GENERATION).
    counts:
        Per-machine number of RR sets to draw; one entry per machine.
    targets:
        Per-machine stores the batches are appended to.  ``None``
        (default) appends to each machine's ``collection``.
    model, method:
        Sampler selection, as in :func:`repro.ris.make_sampler`.
    rng_scheme:
        ``"stream"`` (default) draws from each machine's sequential RNG
        stream; ``"per-set"`` draws RR set ``i`` from its own
        counter-based substream (:func:`repro.ris.rrset.per_set_rng`),
        which is what makes sets individually regenerable after a graph
        update.  Per-set phases require ``seed`` and ``starts``.
    seed:
        Base entropy for ``rng_scheme="per-set"``.
    starts:
        Per-machine index of the first set drawn by this phase
        (``rng_scheme="per-set"`` only): machine ``m`` draws sets
        ``starts[m] .. starts[m] + counts[m] - 1``.
    """

    label: str
    counts: Tuple[int, ...]
    targets: Tuple[Any, ...] | None = None
    model: str = "ic"
    method: str = "bfs"
    rng_scheme: str = "stream"
    seed: int | None = None
    starts: Tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if any(c < 0 for c in self.counts):
            raise ValueError("generation counts must be >= 0")
        if self.targets is not None:
            object.__setattr__(self, "targets", tuple(self.targets))
        if self.rng_scheme not in ("stream", "per-set"):
            raise ValueError(f"unknown rng_scheme {self.rng_scheme!r}")
        if self.rng_scheme == "per-set":
            if self.seed is None or self.starts is None:
                raise ValueError("per-set generation requires seed= and starts=")
            object.__setattr__(self, "starts", tuple(int(s) for s in self.starts))
            if len(self.starts) != len(self.counts):
                raise ValueError("starts and counts must have one entry per machine")
            if any(s < 0 for s in self.starts):
                raise ValueError("per-set start indices must be >= 0")


@dataclass(frozen=True)
class MapPhase:
    """Run ``work(machine)`` on every machine as a metered compute phase."""

    label: str
    work: Callable[[Machine], Any]
    category: str = COMPUTATION


@dataclass(frozen=True)
class GatherPhase:
    """Charge a slaves->master gather; one payload size per machine."""

    label: str
    byte_sizes: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "byte_sizes", tuple(int(b) for b in self.byte_sizes))


@dataclass(frozen=True)
class BroadcastPhase:
    """Charge a master->slaves broadcast of ``num_bytes`` per slave."""

    label: str
    num_bytes: int


@dataclass(frozen=True)
class MasterPhase:
    """Run ``work()`` on the master as a metered computation phase."""

    label: str
    work: Callable[[], Any]


PhasePlan = GeneratePhase | MapPhase | GatherPhase | BroadcastPhase | MasterPhase


@dataclass(frozen=True)
class PhaseResult:
    """Outcome of one executed phase, mirroring its metrics record.

    ``results`` holds per-machine return values for generate/map phases
    (RR sets appended per machine for generation), the master work's
    return value for a master phase, and ``None`` for pure communication.
    """

    label: str
    category: str
    results: Any = None
    machine_times: Tuple[float, ...] = field(default_factory=tuple)
    parallel_time: float = 0.0
    num_bytes: int = 0


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
class Executor(ABC):
    """Runs phase plans against a :class:`SimulatedCluster`'s state.

    The executor owns *how* phases execute; the cluster keeps owning the
    distributed state (machines, RNGs, collections) and the accounting
    (metrics, network model).  Communication and master phases are pure
    accounting and therefore shared by every implementation; generation
    is the backend-specific part.
    """

    name: str = "abstract"

    def __init__(
        self,
        cluster: SimulatedCluster,
        graph=None,
        faults: FaultPlan | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.cluster = cluster
        self.graph = graph
        #: Injected-fault plan; ``None`` disables the fault machinery and
        #: takes the original (pre-fault-layer) generation path.
        self.faults = faults
        #: Recovery policy applied when ``faults`` is set.
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self._samplers: Dict[Tuple[str, str], RRSampler] = {}

    # -- conveniences mirroring the cluster ----------------------------
    @property
    def machines(self):
        return self.cluster.machines

    @property
    def num_machines(self) -> int:
        return self.cluster.num_machines

    @property
    def metrics(self) -> RunMetrics:
        return self.cluster.metrics

    def sampler(self, model: str, method: str) -> RRSampler:
        """The executor-wide sampler for ``(model, method)``, built once."""
        if self.graph is None:
            raise ValueError(
                f"{type(self).__name__} needs a graph to run generation phases; "
                "pass graph= when constructing the executor"
            )
        key = (model, method)
        if key not in self._samplers:
            self._samplers[key] = make_sampler(self.graph, model=model, method=method)
        return self._samplers[key]

    def refresh_graph(self) -> None:
        """Drop per-graph caches after the graph mutated in place.

        Samplers precompute traversal tables (overlay arrays, prefix
        sums, ``p_max``) at construction, so every cached sampler is
        stale once a :class:`~repro.graphs.digraph.GraphDelta` lands or
        the graph is rebased.  Worker-backed executors additionally
        re-broadcast the graph to their workers.
        """
        self._samplers = {}

    # -- phase dispatch -------------------------------------------------
    def run_phase(self, plan: PhasePlan) -> PhaseResult:
        """Execute one phase plan and return its metered outcome."""
        if isinstance(plan, GeneratePhase):
            if len(plan.counts) != self.num_machines:
                raise ValueError(
                    f"expected {self.num_machines} generation counts, got {len(plan.counts)}"
                )
            if plan.targets is not None and len(plan.targets) != self.num_machines:
                raise ValueError(
                    f"expected {self.num_machines} generation targets, got {len(plan.targets)}"
                )
            if plan.rng_scheme == "per-set" and self.faults is not None:
                # The fault machinery's snapshot/replay discipline manages
                # sequential machine streams; per-set substreams are already
                # replayable by construction, so the combination is refused
                # rather than half-supported.
                raise ValueError(
                    "per-set generation does not compose with fault injection"
                )
            return self._run_generate(plan)
        if isinstance(plan, MapPhase):
            results = self.cluster.map(plan.category, plan.label, plan.work)
            return self._result_from_last_phase(plan.label, results)
        if isinstance(plan, GatherPhase):
            self.cluster.gather(plan.label, list(plan.byte_sizes))
            return self._result_from_last_phase(plan.label, None)
        if isinstance(plan, BroadcastPhase):
            self.cluster.broadcast(plan.label, plan.num_bytes)
            return self._result_from_last_phase(plan.label, None)
        if isinstance(plan, MasterPhase):
            result = self.cluster.run_on_master(plan.label, plan.work)
            return self._result_from_last_phase(plan.label, result)
        raise TypeError(f"unknown phase plan {type(plan).__name__}")

    def _result_from_last_phase(self, label: str, results: Any) -> PhaseResult:
        record = self.metrics.phases[-1]
        return PhaseResult(
            label=label,
            category=record.category,
            results=results,
            machine_times=record.machine_times,
            parallel_time=record.parallel_time,
            num_bytes=record.num_bytes,
        )

    def _generation_targets(self, plan: GeneratePhase) -> Tuple[Any, ...]:
        if plan.targets is not None:
            return plan.targets
        targets = tuple(machine.collection for machine in self.machines)
        if any(target is None for target in targets):
            raise ValueError(
                "generation phase has no targets and a machine has no collection; "
                "call cluster.init_collections() or pass targets="
            )
        return targets

    @abstractmethod
    def _run_generate(self, plan: GeneratePhase) -> PhaseResult:
        """Backend-specific generation of ``plan.counts`` RR sets."""

    # -- resource lifecycle ---------------------------------------------
    def close(self) -> None:
        """Release backend resources (worker processes, shared memory).

        A no-op for the simulated backend; worker-backed executors reap
        their workers and unlink the shared-memory graph block.
        Idempotent, and safe to call on every exit path —
        the entry points call it in a ``finally`` so fault-recovery
        aborts and checkpoint/resume cycles reclaim everything.
        """

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- fault-path helpers shared by every backend ----------------------
    @staticmethod
    def _batch_nbytes(batch: FlatBatch) -> int:
        """Wire size of one generation batch (delta + varint encoded)."""
        return encoded_batch_nbytes(batch)

    def _raise_unrecovered(
        self, label: str, failed: Dict[int, str], attempts: int
    ) -> None:
        """Fail fast when retries are exhausted and reassignment is off.

        ``failed`` maps machine id -> kind of its last failure; a timeout
        anywhere means the phase deadline fired, which callers (and the
        worker-death test) distinguish from plain exhaustion.
        """
        ids = sorted(failed)
        if any(failed[i] == "timeout" for i in ids):
            raise PhaseTimeoutError(label, ids, self.retry.phase_timeout)
        raise FaultToleranceExceeded(label, ids, attempts)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(cluster={self.cluster!r})"


class SimulatedExecutor(Executor):
    """Sequential metered execution on the simulated cluster.

    Generation draws each machine's batch with the machine's own RNG via
    :meth:`RRSampler.sample_batch <repro.ris.rrset.RRSampler.sample_batch>`
    inside a metered :meth:`SimulatedCluster.map`, so timing semantics
    (per-machine wall clock x slowdown, parallel time = max) are exactly
    the cluster's.
    """

    name = "simulated"

    def _run_generate(self, plan: GeneratePhase) -> PhaseResult:
        if self.faults is not None:
            return self._run_generate_with_faults(plan)
        sampler = self.sampler(plan.model, plan.method)
        targets = self._generation_targets(plan)
        counts = plan.counts
        if plan.rng_scheme == "per-set":
            seed, starts = plan.seed, plan.starts

            def work(machine: Machine) -> int:
                mid = machine.machine_id
                batch = sample_set_range(sampler, seed, mid, starts[mid], counts[mid])
                append_batch(targets[mid], batch)
                return batch.count

        else:

            def work(machine: Machine) -> int:
                batch = sampler.sample_batch(machine.rng, counts[machine.machine_id])
                append_batch(targets[machine.machine_id], batch)
                return batch.count

        results = self.cluster.map(GENERATION, plan.label, work)
        return self._result_from_last_phase(plan.label, results)

    def _run_generate_with_faults(self, plan: GeneratePhase) -> PhaseResult:
        """Generation with injected faults, retries and reassignment.

        All failure handling runs in *simulated* time: a crashed attempt's
        wasted work, a timeout wait or a straggler's excess are charged to
        the machine's metered time and logged as recovery events — nothing
        sleeps.  The RNG discipline (snapshot before each attempt, restore
        on failure, replay on reassignment) keeps the appended batches
        bit-identical to a fault-free run.
        """
        sampler = self.sampler(plan.model, plan.method)
        targets = self._generation_targets(plan)
        counts = plan.counts
        faults, policy = self.faults, self.retry
        round_index = self.metrics.current_round
        label = plan.label
        network = self.cluster.network

        times: List[float] = [0.0] * self.num_machines
        results: List[int] = [0] * self.num_machines
        snapshots: Dict[int, Any] = {}
        failed: Dict[int, str] = {}

        for machine in self.machines:
            mid = machine.machine_id
            count = counts[mid]
            snapshot = machine.rng_state()
            snapshots[mid] = snapshot
            last_kind = "crash"
            succeeded = False
            for attempt in range(1, policy.max_attempts + 1):
                machine.set_rng_state(snapshot)
                times[mid] += policy.delay_before(attempt)
                fault = faults.failure_for(mid, round_index, attempt)
                factor = faults.straggler_factor(mid, round_index, attempt)

                def work(m: Machine) -> FlatBatch:
                    return sampler.sample_batch(m.rng, count)

                batch, elapsed = machine.run(work)
                metered = elapsed * factor
                if factor > 1.0:
                    self.metrics.record_recovery(
                        "straggler-wait",
                        mid,
                        label,
                        attempt,
                        time_lost=metered - elapsed,
                        detail=f"injected slowdown x{factor:g}",
                    )
                timed_out = (
                    policy.phase_timeout is not None and metered > policy.phase_timeout
                )
                if fault is not None and fault.kind in FAILURE_KINDS:
                    # A plain crash reports itself and a dropped connection
                    # resets the stream, so both are noticed at once; a hard
                    # kill or dropped payload is silent and only the
                    # deadline notices.
                    silent = fault.kind in (CRASH_HARD, DROP)
                    if silent and policy.phase_timeout is not None:
                        last_kind, lost = "timeout", policy.phase_timeout
                    elif fault.kind == DISCONNECT:
                        last_kind, lost = "disconnect", metered
                    else:
                        last_kind, lost = "crash", metered
                    self.metrics.record_recovery(
                        last_kind, mid, label, attempt, time_lost=lost,
                        detail=f"injected {fault.kind}",
                    )
                    times[mid] += lost
                    continue
                if timed_out:
                    last_kind = "timeout"
                    self.metrics.record_recovery(
                        "timeout", mid, label, attempt,
                        time_lost=policy.phase_timeout,
                        detail=f"attempt ran {metered:g}s against a "
                        f"{policy.phase_timeout:g}s deadline",
                    )
                    times[mid] += policy.phase_timeout
                    continue
                if fault is not None and fault.kind == CORRUPT:
                    # The batch itself is intact on the worker; only the
                    # transfer failed its CRC, so charge a retransmission
                    # and keep the (already advanced) RNG stream.
                    retrans = network.retransmission_time(self._batch_nbytes(batch))
                    self.metrics.record_recovery(
                        "corruption", mid, label, attempt, time_lost=retrans,
                        detail="payload failed CRC32; retransmitted",
                    )
                    metered += retrans
                append_batch(targets[mid], batch)
                results[mid] = batch.count
                times[mid] += metered
                succeeded = True
                break
            if not succeeded:
                machine.set_rng_state(snapshot)
                failed[mid] = last_kind

        if failed:
            if not policy.reassign:
                self._raise_unrecovered(label, failed, policy.max_attempts)
            survivors = [m for m in self.machines if m.machine_id not in failed]
            if not survivors:
                self._raise_unrecovered(label, failed, policy.max_attempts)
            for index, mid in enumerate(sorted(failed)):
                survivor = survivors[index % len(survivors)]
                replay = np.random.default_rng()
                replay.bit_generator.state = snapshots[mid]
                count = counts[mid]

                def handover(m: Machine, _rng=replay, _count=count) -> FlatBatch:
                    return sampler.sample_batch(_rng, _count)

                batch, elapsed = survivor.run(handover)
                append_batch(targets[mid], batch)
                results[mid] = batch.count
                # The logical machine's stream continues from the replayed
                # draws, exactly where a healthy run would have left it.
                self.machines[mid].set_rng_state(replay.bit_generator.state)
                times[survivor.machine_id] += elapsed
                self.metrics.record_recovery(
                    "reassignment",
                    mid,
                    label,
                    policy.max_attempts,
                    time_lost=elapsed,
                    detail=(
                        f"quota of {count} RR sets replayed on machine "
                        f"{survivor.machine_id} after {failed[mid]}"
                    ),
                )

        self.metrics.record_compute_phase(GENERATION, label, times)
        return self._result_from_last_phase(label, results)


# ----------------------------------------------------------------------
# Factories
# ----------------------------------------------------------------------
EXECUTORS: Tuple[str, ...] = ("simulated", "multiprocessing", "socket")


def make_executor(
    spec: ExecutorSpec | str | None,
    cluster: SimulatedCluster,
    graph=None,
    faults: FaultPlan | None = None,
    retry: RetryPolicy | None = None,
) -> Executor:
    """Build the executor an :class:`~repro.cluster.spec.ExecutorSpec` describes.

    ``spec`` is a spec instance, a string shorthand (``"simulated"``,
    ``"multiprocessing:8"``, ``"socket:127.0.0.1:9100,9101"`` — see
    :mod:`repro.cluster.spec`) or ``None`` for the default simulated
    backend.  ``faults`` (a :class:`~repro.cluster.faults.FaultPlan`)
    enables the fault-tolerant generation path on any backend; ``retry``
    overrides the default recovery policy.
    """
    resolved = as_spec(spec)
    if isinstance(resolved, SimulatedSpec):
        return SimulatedExecutor(cluster, graph=graph, faults=faults, retry=retry)
    if isinstance(resolved, MultiprocessingSpec):
        return MultiprocessingExecutor(
            cluster, graph=graph, spec=resolved, faults=faults, retry=retry
        )
    if isinstance(resolved, SocketSpec):
        # Imported lazily: the socket backend pulls in server plumbing
        # that pure simulated/multiprocessing runs never need.
        from .socket_executor import SocketExecutor

        return SocketExecutor(
            cluster, graph=graph, spec=resolved, faults=faults, retry=retry
        )
    raise ValueError(
        f"no executor registered for spec kind {resolved.kind!r}; "
        f"expected one of {EXECUTORS}"
    )


@contextmanager
def executor_scope(exec_: Executor, *, owned: bool) -> Iterator[RunMetrics]:
    """Scope one entry-point run on an owned or lent executor.

    An *owned* executor (the entry point built it) is entered as a
    context manager, so its worker pool and shared-memory graph are
    reclaimed on every exit path — fault-recovery aborts and checkpoint
    crashes included.  A *lent* executor is metered in isolation
    instead: a fresh :class:`~repro.cluster.metrics.RunMetrics` replaces
    the cluster's for the duration and is folded back into the caller's
    accumulated metrics on exit.  Yields the metrics the scoped run
    records into.
    """
    cluster = exec_.cluster
    if owned:
        with exec_:
            yield cluster.metrics
    else:
        previous, metrics = cluster.metrics, RunMetrics()
        cluster.metrics = metrics
        try:
            yield metrics
        finally:
            cluster.metrics = previous
            previous.merge(metrics)


def as_executor(obj) -> Executor:
    """Coerce a cluster (or executor) to an executor.

    Lets phase-plan algorithms such as NEWGREEDI accept either: an
    :class:`Executor` passes through; a bare :class:`SimulatedCluster`
    is wrapped in a :class:`SimulatedExecutor` (no graph — generation
    phases would need one, coordination phases do not).
    """
    if isinstance(obj, Executor):
        return obj
    if isinstance(obj, SimulatedCluster):
        return SimulatedExecutor(obj)
    raise TypeError(f"cannot build an executor from {type(obj).__name__}")


# The worker-backed executors subclass Executor, so their module can only
# be imported once everything above exists; they are re-exported because
# this module is where callers look for every executor class.
from .parallel import MultiprocessingExecutor, WorkerBackedExecutor  # noqa: E402

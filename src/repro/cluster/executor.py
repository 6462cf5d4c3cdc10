"""The Executor layer: one phase-plan interface over every backend.

Algorithms (DIIMM, D-SSA, D-SUBSIM, D-OPIM-C) describe each distributed
step as a declarative *phase plan* — generate RR sets, map a work
function, gather, broadcast, or run master-side code — and hand it to an
:class:`Executor`.  The executor decides *how* the phase runs while
keeping the accounting contract identical:

* :class:`SimulatedExecutor` executes machines sequentially on the
  simulated cluster, metering each machine's wall clock;
* :class:`MultiprocessingExecutor` and
  :class:`~repro.cluster.socket_executor.SocketExecutor` fan the
  generation phase out over real worker processes (the closest
  equivalent of the paper's MPI workers; see
  :mod:`repro.cluster.parallel`) — reproducibly, and *identically* to
  the simulated backend for a fixed seed, which the conformance tests pin.

The executor is the one object that runs, meters and prices a
per-machine step.  The :class:`~repro.cluster.cluster.SimulatedCluster`
it is built on is only the run's shape (machine count, network model,
seed, clock, slowdowns); every phase lands in the executor's own
:class:`~repro.cluster.metrics.RunMetrics` with per-machine times
(:meth:`Executor.timed`: the machine's wall clock x its ``slowdown``)
and byte counts priced by the network model
(:meth:`Executor.record_transfer`), whichever executor ran it.

Generation: one loop, two hooks
-------------------------------
The paper's distributed step — "machine *i* draws its quota of RR sets" —
has one implementation, :meth:`Executor._run_generate`: attempt waves
over the machines still owing their quota, verified appends, time,
recovery events, hand-over of a spent quota, the phase record.  A backend
supplies ``_attempt_wave`` (one attempt for the given machine ids: drawn
in-process with injected faults interpreted in *simulated* time, or
shipped to real workers whose failures are detected in *real* time) and
``_replay_host`` (the machine whose clock redraws, and pays for, a spent
quota).

Attempts are pure: the loop resolves the plan's seed and first set
indices once, and every attempt draws ``(seed, key, machine, index)``-keyed
sets through :func:`~repro.ris.rrset.sample_set_range`, which carries no
state.  A batch is appended only when it verified and nothing is adopted,
so the retry, or the replay, redraws the identical batch: collections and
seeds are bit-identical to a failure-free run whatever fired; only metered
times and the recovery log differ.  ``faults=None`` means the empty
:class:`~repro.cluster.faults.FaultPlan`, and the
:class:`~repro.cluster.faults.RetryPolicy` always applies, so a *real*
worker loss is retried on a run that never asked for faults.
"""

from __future__ import annotations

import gc
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import InitVar, dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Sequence, Tuple

from ..ris import check_method_vestige, make_sampler
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
from .metrics import COMPUTATION, GENERATION, RunMetrics
from .network import NetworkModel
from .spec import ExecutorSpec, MultiprocessingSpec, SimulatedSpec, SocketSpec, as_spec

__all__ = [
    "GeneratePhase",
    "MapPhase",
    "GatherPhase",
    "BroadcastPhase",
    "MasterPhase",
    "PhaseResult",
    "GenerationOutcome",
    "Executor",
    "SimulatedExecutor",
    "WorkerBackedExecutor",
    "MultiprocessingExecutor",
    "EXECUTORS",
    "make_executor",
    "executor_scope",
    "MachineFailure",
]


class MachineFailure(RuntimeError):
    """A worker machine's task raised during a phase.

    Carries the failing machine id and the phase label so the operator
    can attribute the failure; the original exception is chained as the
    ``__cause__``.
    """

    def __init__(self, machine_id: int, label: str) -> None:
        super().__init__(f"machine {machine_id} failed during phase {label!r}")
        self.machine_id = machine_id
        self.label = label


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
        Per-machine stores the batches are appended to, one per machine.
    model:
        Diffusion model of the keyed kernel the sets are drawn with
        (:func:`repro.ris.make_sampler`).
    method:
        Vestige (:data:`repro.ris.METHOD_VESTIGES`): accepted, not stored.
    key:
        The collection being grown.  Machine ``m`` draws sets
        ``starts[m] .. starts[m] + counts[m] - 1`` of it, set ``i`` at its
        coordinates ``(seed, key, m, i)`` (:func:`repro.ris.rrset.sample_set_range`).
    seed:
        Base entropy; ``None`` (default) is the executor's seed.
    starts:
        Per-machine index of the first set drawn; ``None`` (default) is
        each target's current ``num_sets`` — the phase appends.
    """

    label: str
    counts: Tuple[int, ...]
    targets: Tuple[Any, ...]
    model: str = "ic"
    method: InitVar[str] = "bfs"
    key: str = "main"
    seed: int | None = None
    starts: Tuple[int, ...] | None = None

    def __post_init__(self, method: str) -> None:
        check_method_vestige(method)
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
        if any(c < 0 for c in self.counts):
            raise ValueError("generation counts must be >= 0")
        object.__setattr__(self, "targets", tuple(self.targets))
        if self.starts is not None:
            object.__setattr__(self, "starts", tuple(int(s) for s in self.starts))
            if len(self.starts) != len(self.counts):
                raise ValueError("starts and counts must have one entry per machine")
            if any(s < 0 for s in self.starts):
                raise ValueError("start indices must be >= 0")


@dataclass(frozen=True)
class MapPhase:
    """Run ``work(machine_id)`` on every machine as a metered compute phase."""

    label: str
    work: Callable[[int], Any]
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


class GenerationOutcome(NamedTuple):
    """One machine's outcome of one generation attempt.

    ``error`` is ``None`` on success, otherwise a one-line description
    (prefixed ``"crash:"``, ``"corruption:"``, ``"disconnect:"`` or
    ``"timeout:"`` for injected/detected fault kinds) and ``batch`` is
    ``None``.  ``elapsed`` is the attempt's draw time,
    or the time it wasted when it failed.  ``nbytes`` is the size of the
    framed compressed payload a worker actually shipped (0 when nothing
    arrived, and for in-process attempts).
    """

    batch: FlatBatch | None
    elapsed: float
    error: str | None
    nbytes: int = 0


def _failure_kind(error: str) -> str:
    """Recovery-event kind for an outcome's error string."""
    for kind in ("timeout", "corruption", "disconnect"):
        if error.startswith(kind):
            return kind
    return "crash"


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
class Executor(ABC):
    """Runs phase plans on a :class:`SimulatedCluster`'s shape.

    The executor owns everything a run does: how phases execute, the
    per-machine timer (:meth:`timed`), the network pricing
    (:meth:`record_transfer`) and the run's :attr:`metrics`.  The cluster
    only says how many machines there are, their seed, network, clock and
    slowdowns; the per-machine RR stores are the caller's, handed over per
    phase.  Map, communication and master phases are common, and so is the
    generation loop (:meth:`_run_generate`); a backend only says how one
    attempt wave runs and where a spent quota is replayed.
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
        #: The run's book: every phase this executor runs is recorded here.
        self.metrics = RunMetrics()
        #: Injected-fault plan; ``None`` is the empty plan (no injection).
        self.faults = faults if faults is not None else FaultPlan()
        #: Recovery policy; it governs real failures as well as injected ones.
        self.retry = retry if retry is not None else DEFAULT_RETRY
        self._samplers: Dict[str, RRSampler] = {}

    # -- the cluster's shape ----------------------------------------------
    @property
    def num_machines(self) -> int:
        return self.cluster.num_machines

    @property
    def seed(self) -> int:
        return self.cluster.seed

    @property
    def network(self) -> NetworkModel:
        return self.cluster.network

    # -- metering and pricing ------------------------------------------------
    def timed(self, work: Callable[[], Any], mid: int | None = None) -> Tuple[Any, float]:
        """Run ``work()`` and return ``(result, metered seconds)``.

        Metered on the cluster's clock, scaled by machine ``mid``'s
        ``slowdown``; ``mid=None`` meters the master, which has none.

        The cyclic garbage collector is paused while ``work`` runs, as
        :mod:`timeit` does: a collection walks the heap of the whole
        simulating process — every machine's state and the caller's
        objects — which is no modelled machine's work, and one pass can
        outlast a small phase several times over.
        """
        clock = self.cluster.clock
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = clock()
            result = work()
            elapsed = clock() - start
        finally:
            if collecting:
                gc.enable()
        if mid is not None:
            elapsed *= self.cluster.slowdowns[mid]
        return result, elapsed

    def record_transfer(self, label: str, byte_sizes: Sequence[int]) -> None:
        """Record one communication phase: ``byte_sizes`` drained serially
        through the master's port, priced by the network model."""
        sizes = list(byte_sizes)
        elapsed = self.network.sequential_transfers(sizes)
        self.metrics.record_communication(label, int(sum(sizes)), elapsed)

    def sampler(self, model: str) -> RRSampler:
        """The executor-wide keyed kernel for ``model``, built once."""
        if self.graph is None:
            raise ValueError(
                f"{type(self).__name__} needs a graph to run generation phases; "
                "pass graph= when constructing the executor"
            )
        if model not in self._samplers:
            self._samplers[model] = make_sampler(self.graph, model=model)
        return self._samplers[model]

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
            if len(plan.targets) != self.num_machines:
                raise ValueError(
                    f"expected {self.num_machines} generation targets, got {len(plan.targets)}"
                )
            return self._run_generate(plan)
        if isinstance(plan, MapPhase):
            results: List[Any] = []
            times: List[float] = []
            for mid in range(self.num_machines):
                try:
                    result, elapsed = self.timed(lambda: plan.work(mid), mid)
                except Exception as exc:
                    raise MachineFailure(mid, plan.label) from exc
                results.append(result)
                times.append(elapsed)
            self.metrics.record_compute_phase(plan.category, plan.label, times)
            return self._result_from_last_phase(plan.label, results)
        if isinstance(plan, GatherPhase):
            if len(plan.byte_sizes) != self.num_machines:
                raise ValueError(
                    f"expected {self.num_machines} payload sizes, got {len(plan.byte_sizes)}"
                )
            self.record_transfer(plan.label, plan.byte_sizes)
            return self._result_from_last_phase(plan.label, None)
        if isinstance(plan, BroadcastPhase):
            self.record_transfer(plan.label, [plan.num_bytes] * self.num_machines)
            return self._result_from_last_phase(plan.label, None)
        if isinstance(plan, MasterPhase):
            result, elapsed = self.timed(plan.work)
            self.metrics.record_compute_phase(COMPUTATION, plan.label, [elapsed])
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

    # -- generation -------------------------------------------------------
    def _run_generate(self, plan: GeneratePhase) -> PhaseResult:
        """Draw ``plan.counts`` RR sets: the one generation loop.

        Attempt-major over the machines that still owe their quota.  A
        batch is appended only when the attempt reports success, so a
        failed attempt leaves nothing to undo; a machine out of attempts
        has its quota replayed in-process (:meth:`_replay_host`).
        """
        targets = plan.targets
        # Resolved once, before any attempt: every attempt draws the same
        # coordinates.
        plan = replace(
            plan,
            seed=self.seed if plan.seed is None else plan.seed,
            starts=plan.starts or tuple(target.num_sets for target in targets),
        )
        faults, policy, label = self.faults, self.retry, plan.label
        round_index = self.metrics.current_round
        times: List[float] = [0.0] * self.num_machines
        results: List[int] = [0] * self.num_machines
        #: Machines still owing their quota -> kind of their last failure.
        pending: Dict[int, str] = dict.fromkeys(range(self.num_machines), "")
        payload_bytes = 0
        wire_mark = self._wire_totals()

        for attempt in range(1, policy.max_attempts + 1):
            if not pending:
                break
            ids = list(pending)
            delay = policy.delay_before(attempt)
            for mid, outcome in zip(ids, self._attempt_wave(plan, ids, attempt)):
                times[mid] += delay
                payload_bytes += outcome.nbytes
                if outcome.error is not None:
                    pending[mid] = kind = _failure_kind(outcome.error)
                    self.metrics.record_recovery(
                        kind, mid, label, attempt, time_lost=outcome.elapsed, detail=outcome.error
                    )
                    times[mid] += outcome.elapsed
                    continue
                factor = faults.straggler_factor(mid, round_index, attempt)
                if factor > 1.0:
                    self.metrics.record_recovery(
                        "straggler-wait",
                        mid,
                        label,
                        attempt,
                        time_lost=outcome.elapsed * (factor - 1.0),
                        detail=f"injected slowdown x{factor:g}",
                    )
                append_batch(targets[mid], outcome.batch)
                results[mid] = outcome.batch.count
                times[mid] += outcome.elapsed * factor
                del pending[mid]

        for turn, mid in enumerate(pending):
            host = self._replay_host(mid, turn, pending) if policy.reassign else None
            if host is None:
                # A timeout anywhere means the phase deadline fired, which
                # callers tell from plain exhaustion.
                if "timeout" in pending.values():
                    raise PhaseTimeoutError(label, list(pending), policy.phase_timeout)
                raise FaultToleranceExceeded(label, list(pending), policy.max_attempts)
            try:
                batch, elapsed = self.timed(lambda: self._draw(plan, mid), host)
            except Exception as exc:
                # It outlived every attempt and an in-process redraw: the
                # error is the machine's input, not its worker.
                raise MachineFailure(mid, label) from exc
            append_batch(targets[mid], batch)
            results[mid] = batch.count
            times[host] += elapsed
            where = "the master" if host == mid else f"machine {host}"
            self.metrics.record_recovery(
                "reassignment",
                mid,
                label,
                policy.max_attempts,
                time_lost=elapsed,
                detail=f"quota of {plan.counts[mid]} RR sets replayed on {where} "
                f"after {pending[mid]}",
            )

        # (wire_sent, wire_received, round_trips) this phase added.
        wire = [now - then for now, then in zip(self._wire_totals(), wire_mark)]
        self.metrics.record_compute_phase(GENERATION, label, times, payload_bytes, *wire)
        return self._result_from_last_phase(label, results)

    @abstractmethod
    def _attempt_wave(
        self, plan: GeneratePhase, ids: Sequence[int], attempt: int
    ) -> List[GenerationOutcome]:
        """Run attempt ``attempt`` for machines ``ids``; one outcome each.

        ``plan`` carries its resolved ``seed`` and ``starts``.  ``elapsed``
        is in the machine's metered seconds (``slowdown`` applied);
        injected stragglers are applied by the loop.  Recoverable
        failures are reported per machine, never raised.
        """

    def _replay_host(self, mid: int, turn: int, failed: Dict[int, str]) -> int | None:
        """The id of the machine whose clock redraws lost machine ``mid``'s
        quota — the ``turn``-th of ``failed`` — and is charged for it: a
        survivor, round-robin, or ``None`` when nobody is left."""
        survivors = [m for m in range(self.num_machines) if m not in failed]
        return survivors[turn % len(survivors)] if survivors else None

    def _draw(self, plan: GeneratePhase, mid: int) -> FlatBatch:
        """Draw machine ``mid``'s quota of the resolved ``plan`` in this process."""
        sampler = self.sampler(plan.model)
        ids = range(plan.starts[mid], plan.starts[mid] + plan.counts[mid])
        return sample_set_range(sampler, plan.seed, mid, ids, plan.key)

    def _wire_totals(self) -> Tuple[int, int, int]:
        """Cumulative ``(sent, received, round trips)`` of the transport."""
        return (0, 0, 0)

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

    def __repr__(self) -> str:
        return f"{type(self).__name__}(cluster={self.cluster!r})"


class SimulatedExecutor(Executor):
    """Sequential metered execution on the simulated cluster.

    Each machine's attempt is drawn in-process through :meth:`timed`, so
    timing semantics (per-machine wall clock x slowdown, parallel time =
    max) are every other phase's.  Injected faults are interpreted in
    *simulated* time: a crashed attempt's wasted work, a deadline wait or a
    spoiled transfer is charged to the machine's metered time — nothing
    sleeps.
    """

    name = "simulated"

    def _attempt_wave(
        self, plan: GeneratePhase, ids: Sequence[int], attempt: int
    ) -> List[GenerationOutcome]:
        self.sampler(plan.model)  # a bad plan raises here, not per machine
        faults, timeout = self.faults, self.retry.phase_timeout
        round_index = self.metrics.current_round
        outcomes = []
        for mid in ids:
            try:
                batch, elapsed = self.timed(lambda: self._draw(plan, mid), mid)
            except Exception as exc:
                # No worker to lose in-process: a retry would fail alike.
                raise MachineFailure(mid, plan.label) from exc
            fault = faults.failure_for(mid, round_index, attempt)
            kind = None if fault is None else fault.kind
            metered = elapsed * faults.straggler_factor(mid, round_index, attempt)
            if kind in (CRASH_HARD, DROP) and timeout is not None:
                # Silent failures: only the deadline notices.
                lost, error = timeout, f"timeout: injected {kind}"
            elif kind in FAILURE_KINDS:
                # A crash reports itself and a dropped connection resets
                # the stream, so both are noticed at once.
                seen = "disconnect" if kind == DISCONNECT else "crash"
                lost, error = metered, f"{seen}: injected {kind}"
            elif timeout is not None and metered > timeout:
                lost = timeout
                error = f"timeout: attempt ran {metered:g}s against a {timeout:g}s deadline"
            elif kind == CORRUPT:
                spoiled = self.network.retransmission_time(encoded_batch_nbytes(batch))
                lost, error = metered + spoiled, "corruption: payload failed CRC32"
            else:
                outcomes.append(GenerationOutcome(batch, elapsed, None))
                continue
            outcomes.append(GenerationOutcome(None, lost, error))
        return outcomes


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
    injects failures, ``None`` injects none; ``retry`` overrides the
    default recovery policy, which applies either way.
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
    the executor's for the duration and is folded back into the caller's
    accumulated metrics on exit.  Yields the metrics the scoped run
    records into.
    """
    if owned:
        with exec_:
            yield exec_.metrics
    else:
        previous, metrics = exec_.metrics, RunMetrics()
        exec_.metrics = metrics
        try:
            yield metrics
        finally:
            exec_.metrics = previous
            previous.merge(metrics)


# The worker-backed executors subclass Executor, so their module can only
# be imported once everything above exists; they are re-exported because
# this module is where callers look for every executor class.
from .parallel import MultiprocessingExecutor, WorkerBackedExecutor  # noqa: E402

"""Timing and traffic accounting for simulated distributed runs.

Figures 5-9 of the paper report, per run, the total running time and its
breakdown into RR-set *generation* time, seed-selection *computation* time
and *communication* time.  :class:`RunMetrics` accumulates exactly those
three categories.

Honesty contract (DESIGN.md): machine work is measured with real
wall-clock timers while the simulator executes machines one after another;
the *parallel* time of a phase is the maximum per-machine time, and
communication time is derived from counted payload bytes through the
:class:`~repro.cluster.network.NetworkModel`.  Nothing is extrapolated
from asymptotic formulas.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from operator import attrgetter
from typing import Any, Dict, Iterator, List, Mapping, Sequence

__all__ = [
    "PhaseRecord",
    "RecoveryEvent",
    "RunMetrics",
    "RunningTotals",
    "GENERATION",
    "COMPUTATION",
    "COMMUNICATION",
]

GENERATION = "generation"
COMPUTATION = "computation"
COMMUNICATION = "communication"
_CATEGORIES = (GENERATION, COMPUTATION, COMMUNICATION)


@dataclass(frozen=True)
class PhaseRecord:
    """One metered phase: a map over machines or a communication round.

    ``round_index`` and ``rule`` are the adaptive-sampling annotations the
    :class:`~repro.core.driver.RoundDriver` stamps on every phase executed
    inside one of its rounds (``None`` for phases recorded outside a
    driver loop), letting tracing attribute time to doubling rounds.

    ``wire_sent`` / ``wire_received`` / ``round_trips`` are the *measured*
    transport counters the socket executor stamps on its generation
    phases: framed bytes written to and read from real sockets, and the
    number of completed request/response exchanges.  They stay zero for
    backends without a wire (``num_bytes`` keeps the backend-neutral
    payload accounting that the cross-executor conformance tests pin).
    """

    category: str
    label: str
    parallel_time: float
    machine_times: tuple[float, ...] = ()
    num_bytes: int = 0
    round_index: int | None = None
    rule: str | None = None
    wire_sent: int = 0
    wire_received: int = 0
    round_trips: int = 0

    @property
    def total_machine_time(self) -> float:
        """Summed (sequential) machine time — the work a single machine
        would have done."""
        return sum(self.machine_times)


@dataclass(frozen=True)
class RecoveryEvent:
    """One fault-tolerance incident during a run.

    ``kind`` is one of ``"crash"`` (a worker's attempt raised or its
    process died), ``"timeout"`` (the phase deadline expired before the
    payload arrived), ``"corruption"`` (the payload failed its CRC32
    check and was retransmitted/regenerated), ``"disconnect"`` (the
    worker's transport connection closed mid-attempt and was re-dialed),
    ``"straggler-wait"`` (the phase waited on an injected or real
    straggler) or ``"reassignment"`` (the machine exhausted its attempts
    and a survivor took over its quota).  ``time_lost`` is the simulated
    seconds the incident added to the run — wasted attempts, backoff,
    retransmissions, straggler excess — so experiment tables can report
    time-under-failure.
    """

    kind: str
    machine_id: int
    label: str
    attempt: int
    time_lost: float = 0.0
    round_index: int | None = None
    rule: str | None = None
    detail: str = ""

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (checkpointed with the driver state)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RecoveryEvent":
        return cls(**dict(data))


@dataclass
class RunMetrics:
    """Accumulated metrics of one distributed run."""

    phases: List[PhaseRecord] = field(default_factory=list)
    recovery_events: List[RecoveryEvent] = field(default_factory=list)
    #: Peak resident bytes across all per-machine RR stores, sampled by
    #: the round driver once per round (0 when no driver ran).
    rr_store_nbytes: int = 0
    #: Peak resident bytes of the master coverage state (counts vector or
    #: sketch register bank), sampled alongside :attr:`rr_store_nbytes`.
    coverage_nbytes: int = 0
    #: RR sets a dynamic pool's repairs redrew; the other sets they
    #: re-examined kept their bytes (:meth:`~repro.core.pool.SamplePool.repair`).
    sets_redrawn: int = 0
    _round_index: int | None = field(default=None, init=False, repr=False, compare=False)
    _rule: str | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def current_round(self) -> int | None:
        """The driver round currently being annotated, if any."""
        return self._round_index

    @contextmanager
    def annotated(self, round_index: int | None = None, rule: str | None = None) -> Iterator[None]:
        """Stamp every phase recorded inside the block with round/rule.

        The round driver wraps each adaptive-sampling round in this
        context, so generation, selection and communication phases carry
        the round they belong to without the inner algorithms (NEWGREEDI,
        the executors) knowing anything about rounds.  Nesting restores
        the outer annotation on exit.
        """
        previous = (self._round_index, self._rule)
        self._round_index, self._rule = round_index, rule
        try:
            yield
        finally:
            self._round_index, self._rule = previous

    def record_compute_phase(
        self,
        category: str,
        label: str,
        machine_times: list[float],
        num_bytes: int = 0,
        wire_sent: int = 0,
        wire_received: int = 0,
        round_trips: int = 0,
    ) -> None:
        """Record a phase executed by all machines in parallel.

        ``num_bytes`` is the payload traffic the phase itself moved —
        zero for the simulated backend (whose communication is metered
        by explicit gather/broadcast phases), and the framed compressed
        worker payloads for the multiprocessing backend's generation
        phases.  ``wire_sent`` / ``wire_received`` / ``round_trips`` are
        the socket backend's measured transport counters (see
        :class:`PhaseRecord`).
        """
        if category not in (GENERATION, COMPUTATION):
            raise ValueError(f"compute phases must be generation/computation, got {category}")
        self.phases.append(
            PhaseRecord(
                category=category,
                label=label,
                parallel_time=max(machine_times) if machine_times else 0.0,
                machine_times=tuple(machine_times),
                num_bytes=int(num_bytes),
                round_index=self._round_index,
                rule=self._rule,
                wire_sent=int(wire_sent),
                wire_received=int(wire_received),
                round_trips=int(round_trips),
            )
        )

    def record_communication(self, label: str, num_bytes: int, elapsed: float) -> None:
        """Record one communication round (bytes already costed by caller)."""
        self.phases.append(
            PhaseRecord(
                category=COMMUNICATION,
                label=label,
                parallel_time=elapsed,
                num_bytes=num_bytes,
                round_index=self._round_index,
                rule=self._rule,
            )
        )

    def record_recovery(
        self,
        kind: str,
        machine_id: int,
        label: str,
        attempt: int,
        time_lost: float = 0.0,
        detail: str = "",
    ) -> RecoveryEvent:
        """Record one fault-tolerance incident, stamped with the round."""
        event = RecoveryEvent(
            kind=kind,
            machine_id=machine_id,
            label=label,
            attempt=attempt,
            time_lost=time_lost,
            round_index=self._round_index,
            rule=self._rule,
            detail=detail,
        )
        self.recovery_events.append(event)
        return event

    # ------------------------------------------------------------------
    # Recovery aggregates
    # ------------------------------------------------------------------
    def recovery_events_of(self, kind: str) -> List[RecoveryEvent]:
        """Recovery events of one kind, in occurrence order."""
        return [e for e in self.recovery_events if e.kind == kind]

    @property
    def recovery_time(self) -> float:
        """Total simulated time lost to faults (retries, waits, handovers)."""
        return sum(e.time_lost for e in self.recovery_events)

    @property
    def degraded_machines(self) -> tuple[int, ...]:
        """Machines whose quota had to be reassigned, in first-loss order."""
        seen: List[int] = []
        for event in self.recovery_events:
            if event.kind == "reassignment" and event.machine_id not in seen:
                seen.append(event.machine_id)
        return tuple(seen)

    def failure_breakdown(self) -> Dict[str, float]:
        """Time-under-failure summary: lost seconds per incident kind,
        total, event count and degraded machine count."""
        per_kind: Dict[str, float] = {}
        for event in self.recovery_events:
            per_kind[event.kind] = per_kind.get(event.kind, 0.0) + event.time_lost
        per_kind["total_lost"] = self.recovery_time
        per_kind["events"] = float(len(self.recovery_events))
        per_kind["degraded_machines"] = float(len(self.degraded_machines))
        return per_kind

    def recovery_state(self) -> List[Dict[str, Any]]:
        """JSON-serializable recovery log (stored in driver checkpoints)."""
        return [event.as_dict() for event in self.recovery_events]

    def restore_recovery(self, events: Sequence[Mapping[str, Any]]) -> None:
        """Prepend a checkpointed recovery log to this run's (fresh) log."""
        self.recovery_events[:0] = [RecoveryEvent.from_dict(e) for e in events]

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def time_in(self, category: str) -> float:
        """Total simulated parallel time spent in one category."""
        return sum(p.parallel_time for p in self.phases_in(category))

    def phases_in(self, category: str) -> List[PhaseRecord]:
        """The recorded phases of one category, in execution order."""
        if category not in _CATEGORIES:
            raise ValueError(f"unknown category {category!r}")
        return [p for p in self.phases if p.category == category]

    def phases_in_round(self, round_index: int) -> List[PhaseRecord]:
        """The phases annotated with one driver round, in execution order."""
        return [p for p in self.phases if p.round_index == round_index]

    def rounds(self) -> List[int]:
        """The distinct driver round indices seen, in execution order."""
        seen: List[int] = []
        for phase in self.phases:
            if phase.round_index is not None and phase.round_index not in seen:
                seen.append(phase.round_index)
        return seen

    @property
    def generation_time(self) -> float:
        return self.time_in(GENERATION)

    @property
    def computation_time(self) -> float:
        return self.time_in(COMPUTATION)

    @property
    def communication_time(self) -> float:
        return self.time_in(COMMUNICATION)

    @property
    def total_time(self) -> float:
        """Simulated end-to-end parallel running time."""
        return sum(p.parallel_time for p in self.phases)

    @property
    def total_bytes(self) -> int:
        """Total bytes moved between machines."""
        return sum(p.num_bytes for p in self.phases)

    @property
    def wire_sent_bytes(self) -> int:
        """Total measured bytes written to real sockets (0 off-wire)."""
        return sum(p.wire_sent for p in self.phases)

    @property
    def wire_received_bytes(self) -> int:
        """Total measured bytes read from real sockets (0 off-wire)."""
        return sum(p.wire_received for p in self.phases)

    @property
    def total_round_trips(self) -> int:
        """Total completed request/response exchanges over real sockets."""
        return sum(p.round_trips for p in self.phases)

    def wire_summary(self) -> Dict[str, int]:
        """Measured transport traffic: sent/received bytes and round trips."""
        return {
            "wire_sent": self.wire_sent_bytes,
            "wire_received": self.wire_received_bytes,
            "round_trips": self.total_round_trips,
        }

    def record_memory(self, rr_store_nbytes: int = 0, coverage_nbytes: int = 0) -> None:
        """Fold one memory sample into the run's peak counters.

        Peaks, not sums: the driver samples once per round, and the
        sketch-vs-flat claim is about the largest resident footprint a
        run ever needs, measured in-band rather than estimated.
        """
        self.rr_store_nbytes = max(self.rr_store_nbytes, int(rr_store_nbytes))
        self.coverage_nbytes = max(self.coverage_nbytes, int(coverage_nbytes))

    def memory_summary(self) -> Dict[str, int]:
        """Peak memory: RR stores, coverage state, and their sum."""
        return {
            "rr_store_nbytes": self.rr_store_nbytes,
            "coverage_nbytes": self.coverage_nbytes,
            "peak_nbytes": self.rr_store_nbytes + self.coverage_nbytes,
        }

    @property
    def sequential_time(self) -> float:
        """Time a single machine doing all the work would have taken.

        Communication is excluded: a single machine does not communicate.
        """
        return sum(
            p.total_machine_time for p in self.phases if p.category != COMMUNICATION
        )

    def breakdown(self) -> Dict[str, float]:
        """The Fig 5-9 breakdown: per-category parallel times plus total."""
        return {
            GENERATION: self.generation_time,
            COMPUTATION: self.computation_time,
            COMMUNICATION: self.communication_time,
            "total": self.total_time,
        }

    def merge(self, other: "RunMetrics") -> None:
        """Append the phases of another run (e.g. nested algorithm calls)."""
        self.phases.extend(other.phases)
        self.recovery_events.extend(other.recovery_events)
        self.record_memory(other.rr_store_nbytes, other.coverage_nbytes)
        self.sets_redrawn += other.sets_redrawn


#: The :class:`PhaseRecord` fields :class:`RunningTotals` adds up.
_SUMMED = ("parallel_time", "num_bytes", "wire_sent", "wire_received", "round_trips")


class RunningTotals(RunMetrics):
    """The merged metrics of any number of runs, in bounded memory.

    :meth:`merge` folds each incoming phase into one record per category
    (label ``"total"``), so the record count is at most one per category
    however many runs were merged.  Byte, wire and round-trip counters and
    ``sets_redrawn`` read exactly what the concatenated phase lists would
    have summed to; times (:meth:`breakdown`) read the same sums up to
    float rounding, added in another order.  What the fold drops is
    per-phase detail: labels, rounds, per-machine times (a folded
    record's ``machine_times`` is its summed machine time).
    """

    def merge(self, other: RunMetrics) -> None:
        # Group, then sum each field of a group in C (a record built per
        # incoming phase would cost a run's merge milliseconds).
        groups: Dict[str, List[PhaseRecord]] = {}
        for phase in other.phases:
            groups.setdefault(phase.category, []).append(phase)
        slots = {p.category: i for i, p in enumerate(self.phases)}
        for category, group in groups.items():
            at = slots.get(category, len(self.phases))
            if at == len(self.phases):
                self.phases.append(PhaseRecord(category, "total", 0.0, (0.0,)))
            folded = self.phases[at]
            total = {
                name: getattr(folded, name) + sum(map(attrgetter(name), group))
                for name in _SUMMED
            }
            machine = sum(map(sum, map(attrgetter("machine_times"), group)))
            self.phases[at] = PhaseRecord(
                category=category,
                label="total",
                machine_times=(folded.total_machine_time + machine,),
                **total,
            )
        self.recovery_events.extend(other.recovery_events)
        self.record_memory(other.rr_store_nbytes, other.coverage_nbytes)
        self.sets_redrawn += other.sets_redrawn

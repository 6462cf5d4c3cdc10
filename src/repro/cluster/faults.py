"""Fault injection and recovery policy for the executor layer.

The paper's deployment target is a 17-node Open MPI cluster; at that
scale machines crash, payloads arrive corrupted and stragglers dominate
tail latency.  This module gives the executors a *deterministic* fault
model so runs under failure can be tested, metered and — crucially —
proven to return the bit-identical seed set a healthy run returns:

* :class:`FaultSpec` / :class:`FaultPlan` describe seeded, injected
  faults keyed by ``(machine, driver round, attempt)`` — a crash, a
  hard worker kill, a straggler slowdown factor, a corrupted payload or
  a dropped payload;
* :class:`RetryPolicy` governs recovery: how many attempts a machine
  gets, the phase timeout after which the master declares a worker lost,
  the backoff between attempts, and whether an exhausted machine's
  generation quota is reassigned to a survivor.

The plan only *injects* failures (no plan = the empty plan); the policy
governs every generation phase of the one loop the executors share, so
a worker that really dies is retried on a run that asked for no faults.

Determinism argument (also in ``docs/architecture.md``): every RR set's
content is a function of its coordinates — seed, collection, *logical*
machine, index (:func:`repro.ris.rrset.sample_set_range`) — and an
attempt carries no other state.  A failed attempt therefore leaves
nothing behind, and the retry — on the same machine or replayed
elsewhere — redraws the identical batch for the logical machine's
store.  Faults change only the metered times and the recovery log,
never the collections or the selected seeds.

Timing semantics: under :class:`~repro.cluster.executor.SimulatedExecutor`
timeouts, backoff and straggler waits are charged in *simulated* time
(they appear in the metrics, nothing sleeps); under the worker-backed
executors (:class:`~repro.cluster.executor.WorkerBackedExecutor`) the
phase timeout and backoff are real wall-clock — a silent worker really
is detected by the deadline, and a ``kill -9``'d one by its broken
stream.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

import numpy as np

__all__ = [
    "CRASH",
    "CRASH_HARD",
    "STRAGGLER",
    "CORRUPT",
    "DROP",
    "DISCONNECT",
    "FAULT_KINDS",
    "FAILURE_KINDS",
    "FaultSpec",
    "FaultPlan",
    "RetryPolicy",
    "DEFAULT_RETRY",
    "PhaseTimeoutError",
    "FaultToleranceExceeded",
]

#: The worker raises during the attempt; the draw is lost.
CRASH = "crash"
#: The worker process dies without a word (``kill -9``).  Real workers'
#: masters see the broken stream at once (logged as ``disconnect``); the
#: simulated executor charges the phase timeout.
CRASH_HARD = "crash-hard"
#: The machine completes the attempt ``factor`` times slower.
STRAGGLER = "straggler"
#: The payload arrives but fails its CRC32 check; the attempt is lost.
CORRUPT = "corrupt"
#: The payload never arrives; only the phase timeout detects it.
DROP = "drop"
#: The machine's worker stream closes mid-attempt.  Worker-backed
#: executors detect this *immediately* (EOF/reset on the stream, no
#: deadline wait) and re-open the stream before retrying.
DISCONNECT = "disconnect"

FAULT_KINDS: Tuple[str, ...] = (CRASH, CRASH_HARD, STRAGGLER, CORRUPT, DROP, DISCONNECT)

#: Kinds that make an attempt fail outright (vs. merely slowing it).
FAILURE_KINDS: Tuple[str, ...] = (CRASH, CRASH_HARD, DROP, DISCONNECT)

_SPEC_RE = re.compile(
    r"^(?P<kind>crash-hard|crash|straggler|corrupt|drop|disconnect)"
    r"@m(?P<machine>\d+)"
    r"(?:r(?P<round>\d+|\*))?"
    r"(?:a(?P<attempt>\d+|\*))?"
    r"(?:x(?P<factor>\d+(?:\.\d+)?))?$"
)


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault, keyed by ``(machine, round, attempt)``.

    Parameters
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    machine:
        The logical machine the fault strikes.
    round_index:
        Driver round the fault fires in (1-based); ``None`` fires in
        every round (including generation outside any driver round).
    attempt:
        Attempt number the fault fires on (1-based); ``None`` fires on
        every attempt.  Transient faults use ``attempt=1`` so the first
        retry succeeds; ``None`` models a persistent failure that forces
        reassignment.
    factor:
        Slowdown multiplier for :data:`STRAGGLER` faults (ignored by the
        other kinds).
    """

    kind: str
    machine: int
    round_index: int | None = None
    attempt: int | None = 1
    factor: float = 2.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if self.machine < 0:
            raise ValueError(f"machine must be >= 0, got {self.machine}")
        if self.round_index is not None and self.round_index < 1:
            raise ValueError(f"round_index must be >= 1, got {self.round_index}")
        if self.attempt is not None and self.attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {self.attempt}")
        if self.kind == STRAGGLER and self.factor <= 1.0:
            raise ValueError(f"straggler factor must be > 1, got {self.factor}")

    def matches(self, machine_id: int, round_index: int | None, attempt: int) -> bool:
        """Does this fault fire for ``(machine_id, round_index, attempt)``?"""
        if self.machine != machine_id:
            return False
        if self.round_index is not None and round_index != self.round_index:
            return False
        if self.attempt is not None and attempt != self.attempt:
            return False
        return True

    def describe(self) -> str:
        """The spec in :meth:`FaultPlan.parse` syntax."""
        text = f"{self.kind}@m{self.machine}"
        if self.round_index is not None:
            text += f"r{self.round_index}"
        if self.attempt != 1:
            text += f"a{'*' if self.attempt is None else self.attempt}"
        if self.kind == STRAGGLER:
            text += f"x{self.factor:g}"
        return text


class FaultPlan:
    """A deterministic set of injected faults.

    An *empty* plan injects nothing, and is what ``faults=None`` on an
    executor means: the attempt loop, CRC verification and event
    accounting run either way, and log nothing on a run that meets no
    failure.
    """

    def __init__(self, specs: Iterable[FaultSpec] = ()) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)

    # ------------------------------------------------------------------
    # Queries the executors make
    # ------------------------------------------------------------------
    def failure_for(
        self, machine_id: int, round_index: int | None, attempt: int
    ) -> FaultSpec | None:
        """The first crash/drop/corrupt fault firing for this slot, if any.

        Hard failures (:data:`FAILURE_KINDS`) take precedence over
        corruption: a machine that died cannot also deliver a payload.
        """
        corrupt = None
        for spec in self.specs:
            if spec.kind == STRAGGLER or not spec.matches(machine_id, round_index, attempt):
                continue
            if spec.kind in FAILURE_KINDS:
                return spec
            if corrupt is None:
                corrupt = spec
        return corrupt

    def straggler_factor(self, machine_id: int, round_index: int | None, attempt: int) -> float:
        """Combined slowdown factor of every straggler fault firing here."""
        factor = 1.0
        for spec in self.specs:
            if spec.kind == STRAGGLER and spec.matches(machine_id, round_index, attempt):
                factor *= spec.factor
        return factor

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the CLI syntax: ``;``-separated ``kind@m<id>[r<round>][a<attempt>][x<factor>]``.

        ``r``/``a`` default to round ``*`` (every round) and attempt ``1``
        (``*`` for stragglers, which slow every attempt); ``x`` is the
        straggler slowdown factor.  Examples::

            crash@m1r2          machine 1 crashes in round 2, first attempt
            straggler@m0x3.5    machine 0 runs 3.5x slow in every round
            corrupt@m2r1        machine 2's round-1 payload fails its CRC
            crash@m1a*          machine 1 dies on every attempt (reassignment)
            disconnect@m0r1     machine 0's connection drops in round 1
        """
        specs = []
        for part in filter(None, (piece.strip() for piece in re.split(r"[;,]", text))):
            match = _SPEC_RE.match(part)
            if match is None:
                raise ValueError(
                    f"cannot parse fault spec {part!r}; expected "
                    "kind@m<id>[r<round>][a<attempt>][x<factor>] with kind one of "
                    f"{FAULT_KINDS}"
                )
            kind = match.group("kind")
            round_field = match.group("round")
            attempt_field = match.group("attempt")
            if attempt_field is None:
                attempt: int | None = None if kind == STRAGGLER else 1
            else:
                attempt = None if attempt_field == "*" else int(attempt_field)
            specs.append(
                FaultSpec(
                    kind=kind,
                    machine=int(match.group("machine")),
                    round_index=None if round_field in (None, "*") else int(round_field),
                    attempt=attempt,
                    factor=float(match.group("factor") or 2.0),
                )
            )
        return cls(specs)

    @classmethod
    def seeded(
        cls,
        seed: int,
        num_machines: int,
        num_rounds: int,
        p_crash: float = 0.1,
        p_straggler: float = 0.1,
        p_corrupt: float = 0.05,
        straggler_factor: float = 3.0,
    ) -> "FaultPlan":
        """A reproducible random plan: iid faults per ``(machine, round)``.

        The same ``(seed, num_machines, num_rounds, rates)`` always yields
        the same plan, so randomized failure experiments are replayable.
        """
        rng = np.random.default_rng(seed)
        specs = []
        for round_index in range(1, num_rounds + 1):
            for machine in range(num_machines):
                draw = rng.random(3)
                if draw[0] < p_crash:
                    specs.append(FaultSpec(CRASH, machine, round_index, attempt=1))
                if draw[1] < p_straggler:
                    specs.append(
                        FaultSpec(
                            STRAGGLER,
                            machine,
                            round_index,
                            attempt=None,
                            factor=straggler_factor,
                        )
                    )
                if draw[2] < p_corrupt:
                    specs.append(FaultSpec(CORRUPT, machine, round_index, attempt=1))
        return cls(specs)

    def describe(self) -> str:
        """The plan in :meth:`parse` syntax (empty string for no faults)."""
        return ";".join(spec.describe() for spec in self.specs)

    def __len__(self) -> int:
        return len(self.specs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultPlan) and self.specs == other.specs

    def __hash__(self) -> int:
        return hash(self.specs)

    def __repr__(self) -> str:
        return f"FaultPlan({self.describe()!r})"


@dataclass(frozen=True)
class RetryPolicy:
    """Recovery policy of every generation phase, injected faults or not.

    Parameters
    ----------
    max_attempts:
        Attempts each machine gets per generation phase (>= 1) before its
        quota is handed over.
    phase_timeout:
        Seconds after which an unresponsive machine is declared lost —
        simulated time under the simulated executor, real wall-clock
        on the worker-backed executors.  ``None`` disables timeout
        detection (a silent worker then hangs the phase; a dead one is
        still seen through its broken stream).
    backoff:
        Base delay before attempt ``a`` of ``backoff * 2**(a - 2)``
        seconds (exponential, nothing before the first attempt).
    reassign:
        After ``max_attempts`` failures, reassign the machine's quota to
        a survivor (default).  When ``False`` the run fails fast with
        :class:`PhaseTimeoutError` / :class:`FaultToleranceExceeded`.
    """

    max_attempts: int = 3
    phase_timeout: float | None = None
    backoff: float = 0.0
    reassign: bool = True

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.phase_timeout is not None and self.phase_timeout <= 0:
            raise ValueError(f"phase_timeout must be positive, got {self.phase_timeout}")
        if self.backoff < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff}")

    def delay_before(self, attempt: int) -> float:
        """Exponential-backoff delay before ``attempt`` (0 for the first)."""
        if attempt <= 1 or self.backoff == 0.0:
            return 0.0
        return self.backoff * 2.0 ** (attempt - 2)


#: The executors' default: three attempts, no timeout, no backoff.
DEFAULT_RETRY = RetryPolicy()


class PhaseTimeoutError(RuntimeError):
    """A phase's machines stayed unresponsive past every allowed attempt.

    Raised only when the :class:`RetryPolicy` forbids reassignment (or no
    survivor exists); otherwise the quota moves to a survivor and the
    timeout is just a recovery event in the metrics.
    """

    def __init__(self, label: str, machine_ids: Sequence[int], timeout: float | None) -> None:
        ids = ", ".join(str(i) for i in machine_ids)
        super().__init__(
            f"phase {label!r}: machine(s) {ids} unresponsive after "
            f"{'no timeout' if timeout is None else f'{timeout:g}s timeout'} "
            "on every allowed attempt"
        )
        self.label = label
        self.machine_ids = tuple(machine_ids)
        self.timeout = timeout


class FaultToleranceExceeded(RuntimeError):
    """Recovery is impossible: retries exhausted and no survivor left."""

    def __init__(self, label: str, machine_ids: Sequence[int], attempts: int) -> None:
        ids = ", ".join(str(i) for i in machine_ids)
        super().__init__(
            f"phase {label!r}: machine(s) {ids} failed all {attempts} attempt(s) "
            "and no recovery path remains"
        )
        self.label = label
        self.machine_ids = tuple(machine_ids)
        self.attempts = attempts

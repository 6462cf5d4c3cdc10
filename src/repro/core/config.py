"""The shared run configuration behind every algorithm entry point.

:class:`RunConfig` is the one place a run's knobs are described:
:func:`repro.api.run` takes one, and the keyword entry points
(:func:`repro.imm`, :func:`repro.diimm`, ...) forward their options to
its constructor.

Validation lives here too (:meth:`RunConfig.validate`): every argument
check an entry point used to perform — or forgot to perform — raises a
uniform ``ValueError`` naming the offending field, so the CLI, the
facade and direct library use all fail identically.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field, fields, replace
from typing import Any

from ..cluster.executor import EXECUTORS
from ..cluster.faults import FaultPlan, RetryPolicy
from ..cluster.network import NetworkModel
from ..cluster.spec import ExecutorSpec, as_spec
from ..coverage.sketch import MAX_PRECISION, MIN_PRECISION, hll_relative_error
from ..ris import check_method_vestige

__all__ = ["RunConfig", "BACKENDS", "MODELS", "STOPPINGS"]

#: RR stores, as accepted by :func:`repro.ris.make_collection`: the exact
#: CSR store and the HyperLogLog register bank.
BACKENDS: tuple[str, ...] = ("flat", "sketch")
#: Diffusion models the samplers implement.
MODELS: tuple[str, ...] = ("ic", "lt")
#: Stopping policies for the IMM-schedule algorithms: the precomputed
#: theta schedule, or error-adaptive doubling until the measured
#: relative error satisfies eps (see
#: :class:`~repro.core.driver.ErrorAdaptiveRule`).
STOPPINGS: tuple[str, ...] = ("schedule", "error-adaptive")


@dataclass(frozen=True)
class RunConfig:
    """Frozen configuration of one influence-maximization run.

    Parameters
    ----------
    graph:
        Weighted :class:`~repro.graphs.digraph.DirectedGraph`.
    k:
        Seed-set size.
    machines:
        Number of worker machines ``l`` (ignored by single-machine IMM,
        which always runs one).
    eps:
        Approximation slack; the guarantee is ``(1 - 1/e - eps)``.
    delta:
        Failure probability; ``None`` means the paper's ``1/n``.
    model:
        Diffusion model (``"ic"``/``"lt"``); every RR set is drawn by its
        keyed kernel (:mod:`repro.ris.vectorized`).
    method:
        Vestige (:data:`repro.ris.METHOD_VESTIGES`): accepted, not stored.
    seed:
        Root RNG seed; fixes the whole run.
    backend:
        RR store (:data:`BACKENDS`): ``"flat"``, the exact CSR store, or
        ``"sketch"``, HyperLogLog register banks.
    executor:
        An :class:`~repro.cluster.spec.ExecutorSpec` or its string
        shorthand (``"simulated"``, ``"multiprocessing:4"``,
        ``"socket:127.0.0.1:9100,9101"``); coerced to a spec at
        construction.
    network:
        Master<->slave cost model; ``None`` means the shared-memory
        profile.
    checkpoint_dir, resume:
        Driver-level checkpointing, as in :mod:`repro.core.checkpoint`.
    sketch_precision:
        Registers per node for ``backend="sketch"``:
        ``m = 2**sketch_precision`` one-byte HyperLogLog registers, so
        memory is ``n * m`` bytes and the sketch's relative error is
        ``1.04 / sqrt(m)``.  Ignored by the exact store.
    stopping:
        Stopping policy for the IMM-schedule algorithms
        (:data:`STOPPINGS`): ``"schedule"`` (default) runs the
        precomputed theta schedule; ``"error-adaptive"`` doubles theta
        until the measured relative error — sampling plus sketch noise —
        satisfies ``eps``, typically stopping with far fewer samples.
    theta_initial:
        First-round collection size override for the doubling frameworks
        (D-SSA, D-OPIM-C) and the error-adaptive rule; ``None`` uses
        each framework's own default.  Ignored by the theta schedule.
    faults:
        Failures to inject: a :class:`~repro.cluster.faults.FaultPlan`
        or its :meth:`~repro.cluster.faults.FaultPlan.parse` string
        form.  ``None`` (default) = no injection.
    retry:
        Recovery policy of every generation phase; ``None`` uses
        :data:`~repro.cluster.faults.DEFAULT_RETRY`.  It always applies:
        a worker that really dies is retried whether or not ``faults``
        is set.
    """

    graph: Any
    k: int
    machines: int = 1
    eps: float = 0.5
    delta: float | None = None
    model: str = "ic"
    method: InitVar[str] = "bfs"
    seed: int = 0
    backend: str = "flat"
    sketch_precision: int = 10
    stopping: str = "schedule"
    executor: str | ExecutorSpec = "simulated"
    network: NetworkModel | None = None
    checkpoint_dir: str | None = None
    resume: bool = False
    theta_initial: int | None = None
    faults: FaultPlan | None = field(default=None)
    retry: RetryPolicy | None = None

    def __post_init__(self, method: str) -> None:
        check_method_vestige(method, "config.method")
        if isinstance(self.faults, str):
            object.__setattr__(self, "faults", FaultPlan.parse(self.faults))
        if not isinstance(self.executor, ExecutorSpec):
            try:
                object.__setattr__(self, "executor", as_spec(self.executor))
            except (TypeError, ValueError):
                # Left as-is so validate() reports the canonical
                # ``config.executor must be one of ...`` message.
                pass

    def validate(self, algorithm: str | None = None) -> "RunConfig":
        """Check every field; raise ``ValueError`` naming the bad one.

        ``algorithm`` additionally applies the constraints of its row in
        :data:`repro.core.diimm.REGISTRY` (D-SUBSIM is IC-only; D-SSA and
        D-OPIM-C need exact counts).  Returns ``self`` so call sites can
        chain ``config.validate(...)``.
        """
        # Imported here: the table's rule factories take a RunConfig.
        from .diimm import REGISTRY

        entry = REGISTRY.get(algorithm)
        if self.graph is None:
            raise ValueError("config.graph must be a DirectedGraph, got None")
        if self.k < 1:
            raise ValueError(f"config.k must be >= 1, got {self.k}")
        if not 0.0 < self.eps < 1.0:
            raise ValueError(f"config.eps must be in (0, 1), got {self.eps}")
        if self.machines < 1:
            raise ValueError(f"config.machines must be >= 1, got {self.machines}")
        if self.delta is not None and not 0.0 < self.delta < 1.0:
            raise ValueError(f"config.delta must be in (0, 1) or None, got {self.delta}")
        if self.model not in MODELS:
            raise ValueError(f"config.model must be one of {MODELS}, got {self.model!r}")
        if self.backend not in BACKENDS:
            raise ValueError(
                f"config.backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if not isinstance(self.sketch_precision, int) or not (
            MIN_PRECISION <= self.sketch_precision <= MAX_PRECISION
        ):
            raise ValueError(
                f"config.sketch_precision must be an int in "
                f"[{MIN_PRECISION}, {MAX_PRECISION}], got {self.sketch_precision!r}"
            )
        if self.stopping not in STOPPINGS:
            raise ValueError(
                f"config.stopping must be one of {STOPPINGS}, got {self.stopping!r}"
            )
        exact_counts = entry is not None and entry.exact_counts
        if self.backend == "sketch":
            self._validate_sketch(algorithm, exact_counts)
        if self.stopping == "error-adaptive" and exact_counts:
            raise ValueError(
                "config.stopping='error-adaptive' replaces the IMM theta "
                f"schedule; {algorithm!r} owns its own stopping certificate "
                "(stop-and-stare / OPIM-C) and cannot use it"
            )
        if not isinstance(self.executor, ExecutorSpec):
            raise ValueError(
                f"config.executor must be one of {EXECUTORS}, got {self.executor!r}"
            )
        try:
            self.executor.validate()
        except ValueError as exc:
            raise ValueError(f"config.executor is invalid: {exc}") from None
        if self.theta_initial is not None and self.theta_initial < 1:
            raise ValueError(
                f"config.theta_initial must be >= 1 or None, got {self.theta_initial}"
            )
        if self.resume and self.checkpoint_dir is None:
            raise ValueError("config.resume requires config.checkpoint_dir to be set")
        if entry is not None and entry.ic_only and self.model != "ic":
            raise ValueError(
                f"config.model must be 'ic' for {algorithm}: subset sampling is "
                f"defined for the IC model only, got {self.model!r}"
            )
        return self

    def _validate_sketch(self, algorithm: str | None, exact_counts: bool) -> None:
        """The combos ``backend="sketch"`` refuses, caught at config time.

        Each restriction is structural, not an implementation gap: the
        register bank is a lossy, irreversible summary, so anything that
        needs to *remove* or *window* an RR set's contribution — dynamic
        repair, warm-pool prefix views, round snapshots — cannot run on
        it, and the exact-count stopping certificates of D-SSA /
        D-OPIM-C are not stated for estimates.
        """
        from ..graphs.digraph import VersionedGraph

        if isinstance(self.graph, VersionedGraph):
            raise ValueError(
                "backend='sketch' does not support dynamic-graph repair: "
                "register banks cannot retract an invalidated RR set's "
                "contribution; use backend='flat' with VersionedGraph"
            )
        if self.checkpoint_dir is not None or self.resume:
            raise ValueError(
                "backend='sketch' does not support checkpoint/resume: the "
                "register journal is pruned after every ingest, so round "
                "snapshots cannot be restored; use backend='flat' for "
                "checkpointed runs"
            )
        if exact_counts:
            raise ValueError(
                "backend='sketch' supports the IMM-schedule algorithms "
                f"('imm', 'diimm', 'dsubsim'); {algorithm!r}'s stopping "
                "certificate assumes exact coverage counts — use "
                "backend='flat'"
            )
        if self.stopping == "error-adaptive":
            noise_floor = hll_relative_error(self.sketch_precision)
            if noise_floor >= self.eps:
                raise ValueError(
                    f"config.eps={self.eps} is below the sketch noise floor "
                    f"{noise_floor:.4f} of sketch_precision="
                    f"{self.sketch_precision} (1.04/sqrt(2**p)); raise "
                    "sketch_precision or eps"
                )

    def with_overrides(self, **changes: Any) -> "RunConfig":
        """A copy with the given fields replaced (frozen-safe)."""
        return replace(self, **changes)

    def executor_spec(self) -> ExecutorSpec:
        """The validated executor spec entry points build the executor from."""
        return as_spec(self.executor)

    def describe(self) -> dict[str, Any]:
        """A JSON-friendly summary (graph as its size, plan as its syntax)."""
        out: dict[str, Any] = {}
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.name == "graph":
                value = None if value is None else f"graph(n={value.num_nodes})"
            elif isinstance(value, (FaultPlan, ExecutorSpec)):
                value = value.describe()
            elif isinstance(value, NetworkModel):
                value = value.name
            elif isinstance(value, RetryPolicy):
                value = (
                    f"RetryPolicy(max_attempts={value.max_attempts}, "
                    f"phase_timeout={value.phase_timeout}, backoff={value.backoff}, "
                    f"reassign={value.reassign})"
                )
            out[spec.name] = value
        return out

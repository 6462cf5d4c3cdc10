"""The RoundDriver: one adaptive sampling loop for every RIS algorithm.

Every algorithm in this package — IMM, DIIMM, D-SSA, D-OPIM-C, D-SUBSIM —
is the *same* loop with a different stopping policy::

    repeat:
        generate RR sets up to the round's targets      (distributed RIS)
        fold the new sets into the coverage counts      (incremental)
        select a candidate seed set                     (NEWGREEDI / greedy)
        ask the stopping rule: certified?               (policy-specific)
    until the rule says stop

Previously each entry point carried a private copy of that loop; this
module hoists it into :class:`RoundDriver` and turns the policies into
:class:`StoppingRule` objects:

* :class:`ImmScheduleRule` — IMM's precomputed lower-bound search plus
  final sampling (paper Algorithm 2);
* :class:`SubsimScheduleRule` — the same schedule under SUBSIM's sampler
  (the paper's Fig 7 configuration);
* :class:`StareStoppingRule` — SSA's stop-and-stare comparison against an
  independent verification collection;
* :class:`OpimStoppingRule` — OPIM-C's martingale lower/upper-bound
  certificate.

The driver owns a persistent
:class:`~repro.coverage.state.CoverageState` per tracked collection and
updates it *incrementally* from each wave's sparse ``(node, count)``
deltas — the Section III-C traffic optimisation DIIMM already used, now
applied to all four distributed algorithms and the selection path (D-SSA
and D-OPIM-C previously re-aggregated their full collections before
every selection).  Every phase a round issues is annotated with the
round index and rule name in the run metrics
(:meth:`RunMetrics.annotated <repro.cluster.metrics.RunMetrics.annotated>`),
so ``summarize_rounds`` can attribute time and traffic per round.

Checkpoint/resume: give the driver a
:class:`~repro.core.checkpoint.CheckpointManager` and it snapshots the
full loop state — collections, coverage counts, RNG streams, rule state
and position — after every round it decides to continue past.  A crashed
run resumed from the latest snapshot deterministically re-executes the
interrupted round and finishes with the identical seed set.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from ..cluster.cluster import split_count
from ..cluster.executor import (
    Executor,
    GatherPhase,
    GeneratePhase,
    MapPhase,
    MasterPhase,
)
from ..coverage.greedy import GreedyResult, greedy_max_coverage
from ..coverage.newgreedi import newgreedi
from ..coverage.sketch import SketchCoverageState, sketch_lazy_greedy
from ..coverage.state import CoverageState
from .bounds import ImmParameters, opim_opt_upper_bound, opim_spread_lower_bound

__all__ = [
    "RoundPlan",
    "StoppingRule",
    "ImmScheduleRule",
    "SubsimScheduleRule",
    "StareStoppingRule",
    "OpimStoppingRule",
    "ErrorAdaptiveRule",
    "DriverRun",
    "RoundDriver",
    "SELECTION_MODES",
]

#: Bytes for one scalar (coverage integer) in a gather.
SCALAR_BYTES = 8

#: How the driver runs seed selection each round.
SELECTION_MODES = ("newgreedi", "central")


@dataclass(frozen=True)
class RoundPlan:
    """One round's worth of work, as prescribed by a stopping rule.

    ``targets`` maps each collection key to the *total* number of RR sets
    it must reach this round (growth, not increment — re-running a round
    after a crash generates only what is still missing).

    ``accepts(coverage, num_elements)`` is the round's acceptance test,
    non-decreasing in ``coverage``.  A rule sets it only when the verdict
    is *all* it will read of the round's selection; selection then stops
    as soon as the remaining picks cannot reach it, and hands ``check`` a
    shorter selection that fails the same test.
    """

    label: str
    targets: Mapping[str, int]
    accepts: Callable[[int, int], bool] | None = field(default=None, compare=False)


class StoppingRule(ABC):
    """Policy half of the adaptive loop: scheduling and termination.

    A rule owns the algorithm-specific decisions — how many RR sets the
    next round needs, which collections exist, and whether the current
    selection is good enough to stop — while the
    :class:`RoundDriver` owns the mechanics (generation, incremental
    coverage maintenance, selection, metering, checkpointing).

    Contract: the driver alternates ``plan = rule.next_round()`` and
    ``stop = rule.check(driver, selection, plan)`` until ``check``
    returns ``True``.  Rules carry their results (lower bounds, spread
    estimates, round counts) as attributes, say through :meth:`outcome`
    which of them a run reports, and must round-trip through
    ``state_dict`` / ``load_state_dict`` for checkpointing.
    """

    #: Rule identifier, stamped on every phase record of the run.
    name: str = "abstract"
    #: Collection keys this rule samples into, in generation order.
    collection_keys: Tuple[str, ...] = ()
    #: The key seed selection runs on (its coverage state is maintained).
    selection_key: str = ""

    @abstractmethod
    def next_round(self) -> RoundPlan:
        """Advance to the next round and return its targets."""

    @abstractmethod
    def check(self, driver: "RoundDriver", selection: GreedyResult, plan: RoundPlan) -> bool:
        """Inspect the round's selection; return ``True`` to stop.

        Rules may issue further phases through the driver (e.g. a
        verification-coverage gather via :meth:`RoundDriver.coverage_of`);
        those land inside the same round annotation.
        """

    def outcome(self, n: int, selection: GreedyResult) -> Dict[str, Any]:
        """What a finished run reports of this rule, as the ``IMResult``
        fields ``estimated_spread`` / ``lower_bound`` / ``search_rounds``.

        The single-collection rules estimate the spread on the samples
        that selected the seeds and keep ``lower_bound`` /
        ``search_rounds`` up to date in ``check``; a rule with a held-out
        collection reports what it measured there.
        """
        return {
            "estimated_spread": n * selection.fraction,
            "lower_bound": self.lower_bound,
            "search_rounds": self.search_rounds,
        }

    @abstractmethod
    def state_dict(self) -> Dict[str, Any]:
        """JSON-serializable snapshot of the rule's mutable state."""

    @abstractmethod
    def load_state_dict(self, state: Dict[str, Any]) -> None:
        """Restore a :meth:`state_dict` snapshot."""


class ImmScheduleRule(StoppingRule):
    """IMM's sampling schedule (Algorithm 2): search rounds, then final.

    Search round ``t`` targets ``theta_t = lambda' / x`` RR sets for the
    OPT guess ``x = n / 2^t`` and accepts
    ``LB = n * F_R(S_t) / (1 + eps')`` once the estimate clears
    ``(1 + eps') * x``; the final round grows the collection to
    ``lambda* / LB`` and its selection is the answer.
    """

    name = "imm-schedule"
    collection_keys = ("main",)
    selection_key = "main"

    def __init__(self, params: ImmParameters) -> None:
        self.params = params
        self.t = 0
        self.final_pending = False
        self.lower_bound = 1.0
        self.search_rounds = 0

    def next_round(self) -> RoundPlan:
        if self.final_pending:
            return RoundPlan(
                "final", {"main": self.params.theta_final(self.lower_bound)}
            )
        self.t += 1
        return RoundPlan(
            f"search-{self.t}",
            {"main": self.params.theta_for_round(self.t)},
            accepts=self.certifies,
        )

    def certifies(self, coverage: int, num_elements: int) -> bool:
        """Search round ``t``'s test, ``n * F_R(S_t) >= (1 + eps') * n / 2^t``.

        Non-decreasing in ``coverage`` in floating point as well: a
        correctly rounded quotient and product never decrease when an
        operand grows.
        """
        n = self.params.n
        fraction = coverage / num_elements if num_elements else 0.0
        x = n / (2.0**self.t)
        return n * fraction >= (1.0 + self.params.eps_prime) * x

    def check(self, driver: "RoundDriver", selection: GreedyResult, plan: RoundPlan) -> bool:
        if self.final_pending:
            return True
        n = self.params.n
        self.search_rounds = self.t
        if self.certifies(selection.coverage, selection.num_elements):
            self.lower_bound = n * selection.fraction / (1.0 + self.params.eps_prime)
            self.final_pending = True
        elif self.t >= self.params.max_search_rounds:
            # Search exhausted without certification: fall through to the
            # final round with the trivial bound, exactly as Algorithm 2's
            # for-loop does.
            self.final_pending = True
        return False

    def state_dict(self) -> Dict[str, Any]:
        return {
            "t": self.t,
            "final_pending": self.final_pending,
            "lower_bound": self.lower_bound,
            "search_rounds": self.search_rounds,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.t = int(state["t"])
        self.final_pending = bool(state["final_pending"])
        self.lower_bound = float(state["lower_bound"])
        self.search_rounds = int(state["search_rounds"])


class SubsimScheduleRule(ImmScheduleRule):
    """IMM's schedule driven by SUBSIM's subset-sampling generator.

    SUBSIM (Guo et al., SIGMOD 2020) replaces the RR-set generation
    procedure with subset sampling, cutting the per-set cost from the
    in-degree volume to roughly the set size.  It changes how an RR set
    is *drawn*, not how many are needed, so the rule is the IMM schedule
    under a different name — the name is what round annotations and
    checkpoints record — and, as Section III-C predicts and Fig 7 shows,
    the distributed speedup over single-machine SUBSIM matches DIIMM's
    over IMM.
    """

    name = "subsim-schedule"


class StareStoppingRule(StoppingRule):
    """SSA's stop-and-stare check over selection/verification collections.

    SSA (Nguyen et al., SIGMOD 2016; parameters revisited by Huang et
    al., VLDB 2017) alternates two moves: **stop** — greedy-select a
    candidate ``S`` on ``select`` — and **stare** — re-estimate
    ``sigma(S)`` on the independent, equally large ``verify`` collection.
    The loop stops once the two estimates agree within ``(1 + eps_1)``
    and the candidate's coverage clears the minimum-support threshold;
    otherwise both collections double, capped at IMM's worst-case
    ``theta_max`` so the loop always terminates with the guarantee IMM
    would give.  Both collections are generated by distributed RIS and
    every selection runs through NEWGREEDI.
    """

    name = "stop-and-stare"
    collection_keys = ("select", "verify")
    selection_key = "select"

    def __init__(
        self,
        n: int,
        eps_1: float,
        min_coverage: float,
        theta_initial: int,
        theta_max: int,
    ) -> None:
        self.n = n
        self.eps_1 = eps_1
        self.min_coverage = min_coverage
        self.theta_max = theta_max
        self.theta = min(theta_initial, theta_max)
        self.rounds = 0
        self.verify_estimate = 0.0

    def next_round(self) -> RoundPlan:
        self.rounds += 1
        return RoundPlan(
            f"round-{self.rounds}",
            {"select": self.theta, "verify": self.theta},
        )

    def check(self, driver: "RoundDriver", selection: GreedyResult, plan: RoundPlan) -> bool:
        select_sets = driver.total_sets("select")
        select_estimate = self.n * selection.coverage / select_sets
        verify_coverage = driver.coverage_of(
            "verify", selection.seeds, f"{plan.label}/stare"
        )
        verify_sets = driver.total_sets("verify")
        self.verify_estimate = self.n * verify_coverage / verify_sets

        consistent = self.verify_estimate >= select_estimate / (1.0 + self.eps_1)
        supported = selection.coverage >= self.min_coverage
        if (consistent and supported) or self.theta >= self.theta_max:
            return True
        self.theta = min(self.theta * 2, self.theta_max)
        return False

    def outcome(self, n: int, selection: GreedyResult) -> Dict[str, Any]:
        """The stare estimate — unbiased, unlike the selection
        collection's — is both the spread and the bound reported."""
        return {
            "estimated_spread": self.verify_estimate,
            "lower_bound": self.verify_estimate,
            "search_rounds": self.rounds,
        }

    def state_dict(self) -> Dict[str, Any]:
        return {
            "theta": self.theta,
            "rounds": self.rounds,
            "verify_estimate": self.verify_estimate,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.theta = int(state["theta"])
        self.rounds = int(state["rounds"])
        self.verify_estimate = float(state["verify_estimate"])


class OpimStoppingRule(StoppingRule):
    """OPIM-C's certificate check over the ``R1``/``R2`` collections.

    OPIM-C (Tang et al., SIGMOD 2018) is an *online* RIS framework:
    instead of IMM's precomputed sample budget it doubles two independent
    collections — ``R1`` for seed selection, ``R2`` for validation — and
    stops as soon as a data-dependent bound certifies the current
    solution: a lower bound on ``sigma(S)`` from ``S``'s coverage on
    ``R2`` over an upper bound on OPT from the greedy coverage on ``R1``
    divided by ``(1 - 1/e)``, both via martingale concentration
    (:func:`~repro.core.bounds.opim_spread_lower_bound` /
    :func:`~repro.core.bounds.opim_opt_upper_bound`).  When the ratio
    clears ``1 - 1/e - eps`` — typically far short of IMM's worst-case
    schedule — or the round budget ``i_max`` (which the union-bound term
    ``a`` was sized for) is spent, the run stops.  Validation coverage is
    gathered as a single integer per machine.
    """

    name = "opim-c"
    collection_keys = ("R1", "R2")
    selection_key = "R1"

    def __init__(
        self,
        n: int,
        eps: float,
        theta_initial: int,
        i_max: int,
        a: float,
    ) -> None:
        self.n = n
        self.eps = eps
        self.i_max = i_max
        self.a = a
        self.theta = theta_initial
        self.rounds = 0
        self.certified_ratio = 0.0
        self.estimated_spread = 0.0

    def next_round(self) -> RoundPlan:
        self.rounds += 1
        return RoundPlan(
            f"round-{self.rounds}", {"R1": self.theta, "R2": self.theta}
        )

    def check(self, driver: "RoundDriver", selection: GreedyResult, plan: RoundPlan) -> bool:
        validation_coverage = driver.coverage_of(
            "R2", selection.seeds, f"{plan.label}/validate"
        )
        r1_sets = driver.total_sets("R1")
        r2_sets = driver.total_sets("R2")
        self.estimated_spread = (
            self.n * validation_coverage / r2_sets if r2_sets else 0.0
        )
        sigma_low = opim_spread_lower_bound(validation_coverage, r2_sets, self.n, self.a)
        opt_high = opim_opt_upper_bound(selection.coverage, r1_sets, self.n, self.a)
        self.certified_ratio = sigma_low / opt_high if opt_high > 0 else 0.0
        if self.certified_ratio >= 1.0 - 1.0 / math.e - self.eps:
            return True
        if self.rounds >= self.i_max:
            return True
        self.theta *= 2
        return False

    def outcome(self, n: int, selection: GreedyResult) -> Dict[str, Any]:
        """The validation estimate, and the certified ratio as the bound."""
        return {
            "estimated_spread": self.estimated_spread,
            "lower_bound": self.certified_ratio,
            "search_rounds": self.rounds,
        }

    def state_dict(self) -> Dict[str, Any]:
        return {
            "theta": self.theta,
            "rounds": self.rounds,
            "certified_ratio": self.certified_ratio,
            "estimated_spread": self.estimated_spread,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.theta = int(state["theta"])
        self.rounds = int(state["rounds"])
        self.certified_ratio = float(state["certified_ratio"])
        self.estimated_spread = float(state["estimated_spread"])


class ErrorAdaptiveRule(StoppingRule):
    """Sample until the *measured* relative error satisfies eps.

    The IMM schedule sizes theta for the worst case — ``lambda* / LB``
    with union-bound terms over every candidate seed set — so easy
    instances (high spread, generous eps) pay for sets they never
    needed.  Following the count-distinct-sketch IM line of work
    (Göktürk & Kaya, arXiv:2105.04023), this rule doubles theta and
    stops as soon as the selection's *achieved* error budget

        eps_hat = sqrt(3 ln(2/delta) / coverage) + sketch_error

    drops to eps: the first term is the multiplicative-Chernoff
    deviation of the spread estimate at the observed coverage support,
    the second the backend's register noise floor (``1.04 / sqrt(m)``
    for ``backend="sketch"``, 0 for the exact stores).  Termination is
    unconditional — theta is capped at ``theta_max``, the IMM
    worst-case budget the schedule would have spent anyway.
    """

    name = "error-adaptive"
    collection_keys = ("main",)
    selection_key = "main"

    def __init__(
        self,
        n: int,
        eps: float,
        delta: float,
        theta_initial: int,
        theta_max: int,
        sketch_rel_error: float = 0.0,
    ) -> None:
        if not 0.0 < eps < 1.0:
            raise ValueError(f"eps must be in (0, 1), got {eps}")
        if not 0.0 < delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {delta}")
        if theta_initial < 1 or theta_max < 1:
            raise ValueError("theta_initial and theta_max must be >= 1")
        if sketch_rel_error >= eps:
            raise ValueError(
                f"sketch_rel_error={sketch_rel_error:.4f} already exceeds "
                f"eps={eps}; the error target is unreachable at this "
                "sketch precision"
            )
        self.n = n
        self.eps = eps
        self.delta = delta
        self.theta_max = theta_max
        self.sketch_rel_error = sketch_rel_error
        self.theta = min(theta_initial, theta_max)
        self.rounds = 0
        #: Last measured total relative error (sampling + sketch terms).
        self.measured_error = float("inf")
        self.sampling_error = float("inf")
        #: Spread lower bound implied by the last selection (reported
        #: where the IMM schedule reports its LB).
        self.lower_bound = 1.0
        self.search_rounds = 0

    def next_round(self) -> RoundPlan:
        self.rounds += 1
        return RoundPlan(f"adaptive-{self.rounds}", {"main": self.theta})

    def check(self, driver: "RoundDriver", selection: GreedyResult, plan: RoundPlan) -> bool:
        coverage = float(selection.coverage)
        self.search_rounds = self.rounds
        self.sampling_error = math.sqrt(
            3.0 * math.log(2.0 / self.delta) / max(coverage, 1.0)
        )
        self.measured_error = self.sampling_error + self.sketch_rel_error
        self.lower_bound = max(
            1.0, self.n * selection.fraction / (1.0 + self.measured_error)
        )
        if self.measured_error <= self.eps:
            return True
        if self.theta >= self.theta_max:
            return True
        self.theta = min(self.theta * 2, self.theta_max)
        return False

    def state_dict(self) -> Dict[str, Any]:
        return {
            "theta": self.theta,
            "rounds": self.rounds,
            "measured_error": self.measured_error,
            "sampling_error": self.sampling_error,
            "lower_bound": self.lower_bound,
            "search_rounds": self.search_rounds,
        }

    def load_state_dict(self, state: Dict[str, Any]) -> None:
        self.theta = int(state["theta"])
        self.rounds = int(state["rounds"])
        self.measured_error = float(state["measured_error"])
        self.sampling_error = float(state["sampling_error"])
        self.lower_bound = float(state["lower_bound"])
        self.search_rounds = int(state["search_rounds"])


@dataclass
class DriverRun:
    """Outcome of a :meth:`RoundDriver.run`."""

    #: The stopping round's selection — the algorithm's answer.
    selection: GreedyResult
    #: Driver rounds executed in this process (excludes checkpointed ones).
    rounds_executed: int
    #: Index of the round the run stopped in (counts checkpointed rounds).
    final_round: int
    #: Round index the run resumed after, or ``None`` for a fresh run.
    resumed_from: int | None = None


class RoundDriver:
    """Mechanism half of the adaptive loop: generate, ingest, select.

    Parameters
    ----------
    executor:
        The :class:`~repro.cluster.executor.Executor` all phases run
        through (simulated or multiprocessing — the loop is identical).
    rule:
        The :class:`StoppingRule` providing targets and termination.
    k:
        Seed-set size.
    stores:
        Per-machine RR stores for each of the rule's collection keys,
        ``{key: [store_machine_0, ...]}``.  The driver owns their growth:
        set ``i`` of collection ``key`` on machine ``m`` is drawn at the
        coordinates ``(executor seed, key, m, i)``.
    model:
        Diffusion model of the generation phases' keyed kernel.
    backend:
        RR store (``"flat"`` / ``"sketch"``).
        With ``"sketch"`` the driver maintains a
        :class:`~repro.coverage.sketch.SketchCoverageState` (register
        deltas through the same wave protocol) and runs selection
        master-side over the merged bank regardless of ``selection`` —
        the bank *is* the communicated state, so no per-selection
        element exchange remains.  Warm pools and checkpointing are
        refused (the bank is lossy and its journal is pruned).
    selection:
        ``"newgreedi"`` (default) runs the element-distributed protocol
        of Algorithm 1; ``"central"`` runs the centralized lazy greedy in
        a single metered compute phase — the single-machine baselines'
        mode, which issues no communication phases at all.
    checkpoint:
        Optional :class:`~repro.core.checkpoint.CheckpointManager`.  When
        set, the driver snapshots the loop state after every round whose
        check decides to *continue* (the stopping round produces the
        result, so there is nothing left to resume).
    resume:
        Restore the latest checkpoint before looping.  Raises
        :class:`FileNotFoundError` if the checkpoint directory holds no
        usable snapshot.
    pool:
        Optional :class:`~repro.core.pool.SamplePool`.  When set, the
        driver serves the query *warm*: ``stores`` must be ``None`` (the
        driver reads per-query prefix views of the pool's shared
        collections), "generate until the rule is satisfied" becomes
        "top the pool up until the rule is satisfied", and the coverage
        state is forked copy-on-write from the pool's donated snapshots.
        The executor must be the pool's, and checkpointing is refused.
    """

    def __init__(
        self,
        executor: Executor,
        rule: StoppingRule,
        k: int,
        stores: Dict[str, List] | None = None,
        model: str = "ic",
        backend: str = "flat",
        selection: str = "newgreedi",
        checkpoint=None,
        resume: bool = False,
        pool=None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if selection not in SELECTION_MODES:
            raise ValueError(
                f"selection must be one of {SELECTION_MODES}, got {selection!r}"
            )
        if pool is not None:
            if stores is not None:
                raise ValueError("pass either stores or pool, not both")
            if checkpoint is not None or resume:
                raise ValueError(
                    "checkpointing is not supported on warm-pool queries: the "
                    "pool outlives the query and snapshots would alias it"
                )
            if executor is not pool.executor:
                raise ValueError("a pooled driver must run on the pool's executor")
            stores = pool.view_stores(rule.collection_keys)
        if stores is None:
            raise ValueError("stores is required when no pool is given")
        if set(stores) != set(rule.collection_keys):
            raise ValueError(
                f"stores keys {sorted(stores)} do not match the rule's "
                f"collection keys {sorted(rule.collection_keys)}"
            )
        for key, per_machine in stores.items():
            if len(per_machine) != executor.num_machines:
                raise ValueError(
                    f"collection {key!r} has {len(per_machine)} stores for "
                    f"{executor.num_machines} machines"
                )
        if resume and checkpoint is None:
            raise ValueError("resume=True requires a checkpoint manager")
        if selection == "central" and executor.num_machines != 1:
            raise ValueError(
                "central selection is the single-machine baselines' mode; "
                f"got {executor.num_machines} machines"
            )
        if backend == "sketch":
            if pool is not None:
                raise ValueError(
                    "backend='sketch' cannot serve warm-pool queries: pools "
                    "window exact flat stores to per-query prefixes, which "
                    "a lossy register bank cannot provide"
                )
            if checkpoint is not None or resume:
                raise ValueError(
                    "checkpointing is not supported with backend='sketch': "
                    "the register journal is pruned after every ingest, so "
                    "round snapshots cannot be restored"
                )
        self.executor = executor
        self.rule = rule
        self.k = k
        self.stores = stores
        self.model = model
        self.backend = backend
        self.selection_mode = selection
        self.checkpoint = checkpoint
        self.resume = resume
        self.pool = pool
        # Per-machine cumulative generation targets per collection.  Each
        # round's *total* target is split over machines exactly as the
        # historical per-wave split_count did, but tracked cumulatively:
        # machine i's quota after any round is a pure function of the
        # round targets, which is what lets a warm pool serve the same
        # prefix a cold run would have generated.
        self._needed: Dict[str, List[int]] = {
            key: [store.num_sets for store in per_machine]
            for key, per_machine in stores.items()
        }
        # Lazily replaced by a pool-donated fork at the first ingest.
        self._coverage_forked = pool is None
        num_nodes = stores[rule.selection_key][0].num_nodes
        self.n = num_nodes
        # Only the selection collection needs master-side counts; the
        # verification collections are probed with full coverage_of scans.
        if backend == "sketch":
            self.coverage = SketchCoverageState(
                num_nodes,
                executor.num_machines,
                precision=stores[rule.selection_key][0].precision,
            )
        else:
            self.coverage = CoverageState(num_nodes, executor.num_machines)

    # ------------------------------------------------------------------
    # Helpers (also the rules' view of the run)
    # ------------------------------------------------------------------
    def total_sets(self, key: str) -> int:
        """Total RR sets across machines in collection ``key``."""
        return sum(store.num_sets for store in self.stores[key])

    def total_size(self, key: str) -> int:
        """Total RR-set size (node slots) in collection ``key``."""
        return sum(store.total_size for store in self.stores[key])

    def total_edges_examined(self, key: str) -> int:
        """Total edges examined generating collection ``key``."""
        return sum(store.total_edges_examined for store in self.stores[key])

    def coverage_of(self, key: str, seeds: Sequence[int], label: str) -> int:
        """Total RR sets of collection ``key`` hit by ``seeds``.

        One metered map (each machine scans its own store) plus a gather
        of one scalar per machine — the validation/stare probe of D-SSA
        and D-OPIM-C.
        """
        stores = self.stores[key]

        def scan(mid: int) -> int:
            return stores[mid].coverage_of(seeds)

        per_machine = self.executor.run_phase(MapPhase(label, scan)).results
        self.executor.run_phase(
            GatherPhase(label, (SCALAR_BYTES,) * self.executor.num_machines)
        )
        return sum(per_machine)

    # ------------------------------------------------------------------
    # Round mechanics
    # ------------------------------------------------------------------
    def _generate_label(self, round_label: str, key: str) -> str:
        if len(self.rule.collection_keys) == 1:
            return f"{round_label}/generate"
        return f"{round_label}/generate-{key}"

    def _counts_label(self, round_label: str, key: str) -> str:
        if len(self.rule.collection_keys) == 1:
            return f"{round_label}/counts"
        return f"{round_label}/counts-{key}"

    def _grow(self, key: str, target: int, round_label: str) -> None:
        """Raise collection ``key`` to ``target`` total RR sets.

        The round's increment is split over machines with
        :func:`~repro.cluster.cluster.split_count` and folded into the
        per-machine cumulative quotas ``self._needed[key]``.  Cold mode
        then generates each machine's shortfall — identical, machine for
        machine, to the historical per-wave ``split_count(missing)`` —
        while pool mode tops the shared collections up to the quotas and
        advances this query's prefix views to them.
        """
        needed = self._needed[key]
        total_needed = sum(needed)
        if target > total_needed:
            shares = split_count(target - total_needed, self.executor.num_machines)
            for idx, extra in enumerate(shares):
                needed[idx] += extra
        if self.pool is not None:
            self.pool.ensure(
                key, needed, label=self._generate_label(round_label, key)
            )
            for view, limit in zip(self.stores[key], needed):
                view.set_limit(limit)
            return
        counts = [
            max(0, quota - store.num_sets)
            for quota, store in zip(needed, self.stores[key])
        ]
        if not any(counts):
            return
        self.executor.run_phase(
            GeneratePhase(
                self._generate_label(round_label, key),
                counts=tuple(counts),
                targets=tuple(self.stores[key]),
                model=self.model,
                key=key,
            )
        )

    def _ingest(self, round_label: str) -> None:
        key = self.rule.selection_key
        if not self._coverage_forked:
            # First ingest of a pooled query: adopt the best donated
            # coverage snapshot covered by this round's prefix, so only
            # the sets beyond its watermarks need re-aggregating.
            self._coverage_forked = True
            limits = [store.num_sets for store in self.stores[key]]
            forked = self.pool.fork_coverage(key, limits)
            if forked is not None:
                self.coverage = forked
        self.coverage.ingest(
            self.executor,
            self.stores[key],
            label=self._counts_label(round_label, key),
            communicate=self.selection_mode != "central",
        )

    def _record_memory(self) -> None:
        """Sample resident store/coverage bytes into the run's peaks."""
        rr_store = 0
        for per_machine in self.stores.values():
            for store in per_machine:
                nbytes = getattr(store, "nbytes", None)
                if callable(nbytes):
                    rr_store += int(nbytes())
        self.executor.metrics.record_memory(
            rr_store_nbytes=rr_store, coverage_nbytes=int(self.coverage.nbytes())
        )

    def _select(self, plan: RoundPlan) -> GreedyResult:
        key, round_label = self.rule.selection_key, plan.label
        if self.backend == "sketch":
            # The register deltas already travelled in the ingest gather,
            # so selection is a pure master-side computation over the
            # merged bank — no further communication, and bit-identical
            # across executors because the bank is (max-merge is
            # commutative and idempotent).
            def sketch_select() -> GreedyResult:
                return sketch_lazy_greedy(
                    self.coverage.bank(),
                    self.k,
                    self.total_sets(key),
                    degrees=self.coverage.degrees(),
                )

            return self.executor.run_phase(
                MasterPhase(f"{round_label}/select-sketch", sketch_select)
            ).results
        if self.selection_mode == "newgreedi":
            return newgreedi(
                self.executor,
                self.k,
                stores=self.stores[key],
                label=f"{round_label}/newgreedi",
                coverage_state=self.coverage,
                accepts=plan.accepts,
            )

        stores = self.stores[key]
        counts = self.coverage.selection_counts()

        def central_greedy(mid: int) -> GreedyResult:
            return greedy_max_coverage(
                stores,
                self.k,
                initial_counts=counts,
                accepts=plan.accepts,
            )

        results = self.executor.run_phase(
            MapPhase(f"{round_label}/select", central_greedy)
        ).results
        return results[0]

    # ------------------------------------------------------------------
    # Checkpoint plumbing
    # ------------------------------------------------------------------
    def _save_checkpoint(self, round_index: int) -> None:
        self.checkpoint.save(
            round_index=round_index,
            rule_name=self.rule.name,
            rule_state=self.rule.state_dict(),
            coverage_state=self.coverage.state_dict(),
            stores=self.stores,
            recovery=self.executor.metrics.recovery_state(),
        )

    def _restore_checkpoint(self) -> int:
        snapshot = self.checkpoint.load_latest(
            rule_name=self.rule.name,
            collection_keys=self.rule.collection_keys,
            num_machines=self.executor.num_machines,
        )
        self.rule.load_state_dict(snapshot.rule_state)
        self.coverage.load_state_dict(snapshot.coverage_state)
        for key, per_machine in snapshot.stores.items():
            for idx, store in enumerate(per_machine):
                self.stores[key][idx] = store
        # Checkpoints are taken at round boundaries, where every machine
        # sits exactly at its cumulative quota.
        for key, per_machine in self.stores.items():
            self._needed[key] = [store.num_sets for store in per_machine]
        # Recovery events from before the restart stay visible in the
        # resumed run's metrics; the resumed rounds append after them.
        self.executor.metrics.restore_recovery(snapshot.recovery)
        return snapshot.round_index

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def run(self) -> DriverRun:
        """Execute rounds until the rule stops; return the final selection."""
        resumed_from = None
        round_index = 1
        if self.resume:
            resumed_from = self._restore_checkpoint()
            round_index = resumed_from + 1

        metrics = self.executor.metrics
        rounds_executed = 0
        # The last selection that ran to k seeds, and the per-machine sizes
        # of the selection collection it ran on: a round that grows nothing
        # (a final theta the search already reached) would recompute it
        # seed for seed.  Not checkpointed — a resumed run selects again.
        selection, selected_on = None, None
        while True:
            plan = self.rule.next_round()
            with metrics.annotated(round_index=round_index, rule=self.rule.name):
                for key in self.rule.collection_keys:
                    self._grow(key, int(plan.targets[key]), plan.label)
                self._ingest(plan.label)
                self._record_memory()
                sizes = [store.num_sets for store in self.stores[self.rule.selection_key]]
                if sizes != selected_on:
                    selection = self._select(plan)
                    # A selection cut short by plan.accepts answers that
                    # round only.
                    selected_on = sizes if len(selection.seeds) == self.k else None
                stop = self.rule.check(self, selection, plan)
            rounds_executed += 1
            if stop:
                if self.pool is not None:
                    # Hand the final counts back for later queries to
                    # fork; this driver never touches them again.
                    self.pool.donate_coverage(self.rule.selection_key, self.coverage)
                return DriverRun(
                    selection=selection,
                    rounds_executed=rounds_executed,
                    final_round=round_index,
                    resumed_from=resumed_from,
                )
            if self.checkpoint is not None:
                self._save_checkpoint(round_index)
            round_index += 1

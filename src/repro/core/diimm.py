"""One assembly for every RIS algorithm (paper Algorithm 2, Section III-C).

DIIMM is IMM with both phases distributed over ``l`` machines:

* **Distributed RIS** — every generation wave of ``theta_t - theta_{t-1}``
  RR sets is split evenly; each machine extends its private collection
  ``R_i`` with independently drawn sets (set ``i`` of a collection on
  machine ``m`` is keyed by its coordinates,
  :func:`~repro.ris.rrset.sample_set_range`).  Corollary 1 guarantees
  the per-machine workload concentrates around its mean, so the wave's
  parallel time is close to ``1/l`` of the sequential time.
* **NEWGREEDI seed selection** — every greedy call runs the
  element-distributed protocol of Algorithm 1 and returns *exactly* the
  centralized greedy solution (Lemma 2), so DIIMM inherits IMM's
  ``(1 - 1/e - eps)`` guarantee (Theorem 1) unchanged.

Section III-C observes that both techniques apply unchanged to any RIS
framework, and the code agrees: the loop — generate, ingest sparse
coverage deltas, select, check — is the shared
:class:`~repro.core.driver.RoundDriver`, and an *algorithm* is a row of
:data:`REGISTRY`: a :class:`~repro.core.driver.StoppingRule` factory
(the theta / eps-split arithmetic that genuinely differs) plus a handful
of facts.  :func:`run` is the one place a cluster, an executor, the
per-machine stores, the checkpoint manager and the driver are put
together and an :class:`~repro.core.result.IMResult` is read off; how a
result is read off a rule is the rule's own
:meth:`~repro.core.driver.StoppingRule.outcome`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict

from ..cluster.cluster import SimulatedCluster
from ..cluster.executor import executor_scope, make_executor
from ..cluster.network import shared_memory_server
from ..coverage.sketch import hll_relative_error
from ..graphs.digraph import DirectedGraph
from ..ris import make_collection
from .bounds import ImmParameters
from .checkpoint import manager_for
from .config import RunConfig
from .driver import (
    ErrorAdaptiveRule,
    ImmScheduleRule,
    OpimStoppingRule,
    RoundDriver,
    StareStoppingRule,
    StoppingRule,
    SubsimScheduleRule,
)
from .result import IMResult

__all__ = [
    "REGISTRY",
    "Algorithm",
    "run",
    "imm",
    "diimm",
    "distributed_subsim",
    "distributed_ssa",
    "distributed_opimc",
]


def make_schedule_rule(
    config: RunConfig, n: int, delta: float, rule_type=ImmScheduleRule
) -> StoppingRule:
    """The stopping rule a :class:`RunConfig` asks of the IMM schedule.

    ``stopping="schedule"`` is the IMM/SUBSIM theta schedule (Chen's
    corrected ``lambda*``, arXiv:1808.09363);
    ``stopping="error-adaptive"`` doubles from ``theta_initial`` (or the
    schedule's first search round) until the measured error satisfies
    ``eps``, capped at the schedule's own worst-case final theta — so the
    adaptive run can never sample more than the schedule would have.
    ``rule_type`` names the schedule (:class:`SubsimScheduleRule` for
    D-SUBSIM).
    """
    params = ImmParameters.compute(n, config.k, config.eps, delta)
    if config.stopping == "error-adaptive":
        theta_initial = (
            config.theta_initial
            if config.theta_initial is not None
            else params.theta_for_round(1)
        )
        sketch_error = (
            hll_relative_error(config.sketch_precision)
            if config.backend == "sketch"
            else 0.0
        )
        return ErrorAdaptiveRule(
            n=params.n,
            eps=config.eps,
            delta=delta,
            theta_initial=theta_initial,
            theta_max=params.theta_final(float(config.k)),
            sketch_rel_error=sketch_error,
        )
    return rule_type(params)


def make_subsim_rule(config: RunConfig, n: int, delta: float) -> StoppingRule:
    """D-SUBSIM's rule: the IMM schedule under SUBSIM's name."""
    return make_schedule_rule(config, n, delta, SubsimScheduleRule)


def make_stare_rule(config: RunConfig, n: int, delta: float) -> StoppingRule:
    """D-SSA's rule: ``eps_1 = eps_2 = eps_3 = eps / 3`` (a feasible
    assignment for the corrected guarantee), first round
    ``(2 + 2*eps_1/3) * ln(1/delta) / eps_1^2`` sets (at least 64) unless
    ``config.theta_initial`` says otherwise, doubling capped at IMM's
    worst-case ``lambda* / k``."""
    k, eps = config.k, config.eps
    eps_1 = eps / 3.0
    params = ImmParameters.compute(n, k, eps, delta)
    theta_max = max(int(math.ceil(params.lambda_star / k)), 64)
    theta_initial = config.theta_initial
    if theta_initial is None:
        theta_initial = max(
            int((2 + 2 * eps_1 / 3) * math.log(1 / delta) / (eps_1 * eps_1)), 64
        )
    # Minimum support: a candidate must cover enough RR sets for the
    # stare comparison to be meaningful.
    min_coverage = (1 + eps_1) * (2 + 2 * eps_1 / 3) * math.log(3 / delta) / (eps_1**2)
    return StareStoppingRule(
        n,
        eps_1=eps_1,
        min_coverage=min_coverage,
        theta_initial=theta_initial,
        theta_max=theta_max,
    )


def make_opim_rule(config: RunConfig, n: int, delta: float) -> StoppingRule:
    """D-OPIM-C's rule: first round ``theta_max * eps^2 * k / n`` sets (at
    least 64) unless ``config.theta_initial`` says otherwise, ``i_max``
    doublings to reach ``theta_max``, union-bound term ``a`` sized for
    them."""
    k, eps = config.k, config.eps
    params = ImmParameters.compute(n, k, eps, delta)
    # OPT >= k (the seeds activate at least themselves), so theta_max =
    # lambda*/k RR sets always suffice for IMM's guarantee.
    theta_max = max(int(math.ceil(params.lambda_star / k)), 64)
    theta_initial = config.theta_initial
    if theta_initial is None:
        theta_initial = max(int(theta_max * eps * eps * k / n), 64)
    i_max = max(int(math.ceil(math.log2(max(theta_max / theta_initial, 2.0)))), 1)
    a = math.log(3.0 * i_max / delta)
    return OpimStoppingRule(n, eps=eps, theta_initial=theta_initial, i_max=i_max, a=a)


@dataclass(frozen=True)
class Algorithm:
    """One row of :data:`REGISTRY`: everything that differs between them."""

    #: Reported name (``IMResult.algorithm``, checkpoint identity).
    label: str
    #: ``(config, n, delta) -> StoppingRule``.
    make_rule: Callable[[RunConfig, int, float], StoppingRule]
    #: The ``l = 1`` baseline: one machine whatever ``config.machines``
    #: says, centralized lazy greedy in a single metered compute phase (no
    #: communication phases at all, so single-machine versus distributed
    #: comparisons isolate the distribution machinery).
    single_machine: bool = False
    #: SUBSIM's subset sampling exploits shared in-edge probabilities, so
    #: the row is defined for the IC model only (the LT reverse walk is
    #: already linear); its sets are drawn by the keyed IC kernel, the
    #: same distribution and faster (DESIGN.md).
    ic_only: bool = False
    #: The stopping certificate assumes exact coverage counts and is the
    #: rule's own: ``backend="sketch"`` and ``stopping="error-adaptive"``
    #: are refused.
    exact_counts: bool = False


#: The algorithm table, in dispatch order.  ``api.run``, the CLI,
#: :meth:`RunConfig.validate` and the warm service all read it.
REGISTRY: Dict[str, Algorithm] = {
    "imm": Algorithm("IMM", make_schedule_rule, single_machine=True),
    "diimm": Algorithm("DIIMM", make_schedule_rule),
    "dssa": Algorithm("DSSA", make_stare_rule, exact_counts=True),
    "dsubsim": Algorithm("DSUBSIM", make_subsim_rule, ic_only=True),
    "dopimc": Algorithm("DOPIM-C", make_opim_rule, exact_counts=True),
}


def _check_lent(executor, config: RunConfig, machines: int) -> None:
    """Refuse a lent executor whose shape is not the config's."""
    network = config.network if config.network is not None else shared_memory_server()
    for field, lent, asked in (
        ("machines", executor.num_machines, machines),
        ("seed", executor.seed, config.seed),
        ("network", executor.network, network),
    ):
        if lent != asked:
            raise ValueError(
                f"config asks for {field}={asked!r} but the lent executor has {lent!r}"
            )


def run(config: RunConfig, algorithm: str, *, executor=None, pool=None) -> IMResult:
    """Run the :data:`REGISTRY` row named ``algorithm`` under ``config``.

    ``executor`` lends a pre-built executor: its worker pool and
    shared-memory graph are reused and never closed here.  Its machine
    count, seed and network must be the config's, or the run would draw
    (and price) other streams than a cold run.  ``pool`` serves the query
    warm from a :class:`~repro.core.pool.SamplePool`; the result is
    bit-identical to a cold run with the same config.  Without either, the run builds —
    and on every exit path closes — its own executor.
    """
    entry = REGISTRY[algorithm]
    config.validate(algorithm)
    graph, k = config.graph, config.k
    n = graph.num_nodes
    delta = 1.0 / n if config.delta is None else config.delta
    machines = 1 if entry.single_machine else config.machines
    rule = entry.make_rule(config, n, delta)

    if pool is not None:
        if executor is not None:
            raise ValueError("pass either executor or pool, not both")
        pool.check_config(config, machines=machines)
        exec_, stores, checkpoint = pool.executor, None, None
        scope = pool.query_metrics()
    else:
        if executor is not None:
            _check_lent(executor, config, machines)
        stores = {
            key: [
                make_collection(
                    n,
                    config.backend,
                    machine_id=machine_id,
                    sketch_precision=config.sketch_precision,
                )
                for machine_id in range(machines)
            ]
            for key in rule.collection_keys
        }
        checkpoint = manager_for(
            config.checkpoint_dir,
            algorithm=entry.label,
            n=n,
            k=k,
            eps=config.eps,
            delta=delta,
            seed=config.seed,
            num_machines=machines,
            model=config.model,
            backend=config.backend,
        )
        # Built last, entered at once: nothing that can raise sits between
        # spawning workers and the scope that reaps them.
        exec_ = executor
        if exec_ is None:
            exec_ = make_executor(
                config.executor_spec(),
                SimulatedCluster(machines, network=config.network, seed=config.seed),
                graph=graph,
                faults=config.faults,
                retry=config.retry,
            )
        scope = executor_scope(exec_, owned=executor is None)
    with scope as metrics:
        driver = RoundDriver(
            exec_,
            rule,
            k,
            stores,
            model=config.model,
            backend=config.backend,
            selection="central" if entry.single_machine else "newgreedi",
            checkpoint=checkpoint,
            resume=config.resume,
            pool=pool,
        )
        selection = driver.run().selection

    params = {"k": k, "eps": config.eps, "delta": delta, "num_machines": machines}
    if not entry.single_machine:
        params["executor"] = exec_.name
    keys = rule.collection_keys
    return IMResult(
        seeds=selection.seeds,
        num_rr_sets=sum(driver.total_sets(key) for key in keys),
        total_rr_size=sum(driver.total_size(key) for key in keys),
        total_edges_examined=sum(driver.total_edges_examined(key) for key in keys),
        **rule.outcome(n, selection),
        metrics=metrics,
        algorithm=entry.label,
        model=config.model,
        params=params,
    )


# The keyword entry points: ``options`` are RunConfig fields, documented
# there; ``num_machines`` is ``RunConfig.machines``.


def imm(graph: DirectedGraph, k: int, **options) -> IMResult:
    """Single-machine IMM (Tang et al., SIGMOD 2015, with Chen's 2018
    fix): the baseline, the ``l = 1`` reference point of Figs 5-9."""
    return run(RunConfig(graph=graph, k=k, **options), "imm")


def diimm(graph: DirectedGraph, k: int, num_machines: int, **options) -> IMResult:
    """DIIMM (Algorithm 2) on a cluster of ``num_machines`` machines."""
    return run(RunConfig(graph=graph, k=k, machines=num_machines, **options), "diimm")


def distributed_subsim(
    graph: DirectedGraph, k: int, num_machines: int, **options
) -> IMResult:
    """Distributed SUBSIM under the IC model (paper Fig 7); the
    single-machine baseline is :func:`imm`."""
    return run(RunConfig(graph=graph, k=k, machines=num_machines, **options), "dsubsim")


def distributed_ssa(
    graph: DirectedGraph, k: int, num_machines: int, **options
) -> IMResult:
    """Distributed stop-and-stare; ``lower_bound`` carries the final
    verification estimate of ``sigma(S)``, ``search_rounds`` the number of
    stare rounds."""
    return run(RunConfig(graph=graph, k=k, machines=num_machines, **options), "dssa")


def distributed_opimc(
    graph: DirectedGraph, k: int, num_machines: int, **options
) -> IMResult:
    """Distributed OPIM-C; ``lower_bound`` carries the certified
    approximation ratio."""
    return run(RunConfig(graph=graph, k=k, machines=num_machines, **options), "dopimc")

"""Distributed OPIM-C (extension; paper Section III-C compatibility claim).

OPIM-C (Tang et al., SIGMOD 2018) is an *online* RIS framework: instead of
IMM's precomputed sample budget it doubles two independent RR collections
— ``R1`` for seed selection, ``R2`` for validation — and stops as soon as
a data-dependent bound certifies the current solution:

* a lower bound on ``sigma(S)`` from ``S``'s coverage on ``R2``,
* an upper bound on OPT from the greedy coverage on ``R1`` divided by
  ``(1 - 1/e)``,

both via martingale concentration
(:func:`~repro.core.bounds.opim_spread_lower_bound` /
:func:`~repro.core.bounds.opim_opt_upper_bound`).  When the ratio clears
``1 - 1/e - eps`` the solution is certified and typically needs far fewer
RR sets than IMM's worst-case schedule.

The paper claims (Section III-C, Remark in IV-B) that distributed RIS and
NEWGREEDI accelerate OPIM-C the same way they accelerate IMM; this module
substantiates that claim by running the shared
:class:`~repro.core.driver.RoundDriver` with an
:class:`~repro.core.driver.OpimStoppingRule`: both collections are
generated across machines, ``R1``'s coverage counts are maintained
incrementally, selection runs through NEWGREEDI, and validation coverage
is gathered as a single integer per machine.
"""

from __future__ import annotations

import math

from ..cluster.cluster import SimulatedCluster
from ..cluster.executor import executor_scope, make_executor
from ..cluster.faults import FaultPlan, RetryPolicy
from ..cluster.network import NetworkModel
from ..graphs.digraph import DirectedGraph
from ..ris import make_collection
from .bounds import ImmParameters
from .checkpoint import manager_for
from .config import RunConfig
from .driver import OpimStoppingRule, RoundDriver
from .result import IMResult

__all__ = ["distributed_opimc", "distributed_opimc_from_config"]


def distributed_opimc(
    graph: DirectedGraph,
    k: int,
    num_machines: int,
    eps: float = 0.5,
    delta: float | None = None,
    model: str = "ic",
    method: str = "bfs",
    network: NetworkModel | None = None,
    seed: int = 0,
    theta_initial: int | None = None,
    backend: str = "flat",
    executor: str = "simulated",
    checkpoint_dir: str | None = None,
    resume: bool = False,
    faults: FaultPlan | str | None = None,
    retry: RetryPolicy | None = None,
) -> IMResult:
    """Run distributed OPIM-C; parameters mirror :func:`repro.core.diimm.diimm`.

    This keyword signature is a thin shim over
    :class:`~repro.core.config.RunConfig` /
    :func:`distributed_opimc_from_config`; prefer :func:`repro.api.run`
    in new code.

    ``theta_initial`` overrides the size of the first doubling round
    (defaults to the OPIM-C heuristic
    ``theta_0 = theta_max * eps^2 * k / n``, clamped to at least 64).
    """
    config = RunConfig(
        graph=graph,
        k=k,
        machines=num_machines,
        eps=eps,
        delta=delta,
        model=model,
        method=method,
        seed=seed,
        backend=backend,
        executor=executor,
        network=network,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        theta_initial=theta_initial,
        faults=faults,
        retry=retry,
    )
    return distributed_opimc_from_config(config)


def distributed_opimc_from_config(config: RunConfig, *, executor=None) -> IMResult:
    """Run D-OPIM-C from a validated :class:`~repro.core.config.RunConfig`.

    ``executor`` lends a pre-built executor; the run reuses its worker
    pool, shared-memory graph, and RNG streams and never closes it.
    OPIM-C interleaves draws across ``R1``/``R2``, so it has no warm
    ``pool=`` mode (per-collection prefixes are not stream-deterministic).
    """
    config.validate("dopimc")
    graph, k, eps = config.graph, config.k, config.eps
    n = graph.num_nodes
    delta = 1.0 / n if config.delta is None else config.delta
    params = ImmParameters.compute(n, k, eps, delta)
    # OPT >= k (the seeds activate at least themselves), so theta_max =
    # lambda*/k RR sets always suffice for IMM's guarantee.
    theta_max = max(int(math.ceil(params.lambda_star / k)), 64)
    theta_initial = config.theta_initial
    if theta_initial is None:
        theta_initial = max(int(theta_max * eps * eps * k / n), 64)
    i_max = max(int(math.ceil(math.log2(max(theta_max / theta_initial, 2.0)))), 1)
    a = math.log(3.0 * i_max / delta)

    owns_executor = executor is None
    if owns_executor:
        cluster = SimulatedCluster(
            config.machines, network=config.network, seed=config.seed
        )
        exec_ = make_executor(
            config.executor_spec(),
            cluster,
            graph=graph,
            faults=config.faults,
            retry=config.retry,
        )
    else:
        exec_ = executor
        cluster = exec_.cluster
        if cluster.num_machines != config.machines:
            raise ValueError(
                f"config asks for {config.machines} machines but the lent "
                f"executor has {cluster.num_machines}"
            )
    rule = OpimStoppingRule(n, eps=eps, theta_initial=theta_initial, i_max=i_max, a=a)
    stores = {
        key: [make_collection(n, config.backend) for _ in range(config.machines)]
        for key in rule.collection_keys
    }
    checkpoint = manager_for(
        config.checkpoint_dir,
        algorithm="DOPIM-C",
        n=n,
        k=k,
        eps=eps,
        delta=delta,
        seed=config.seed,
        num_machines=config.machines,
        model=config.model,
        method=config.method,
        backend=config.backend,
    )
    driver = RoundDriver(
        exec_,
        rule,
        k,
        stores,
        model=config.model,
        method=config.method,
        backend=config.backend,
        checkpoint=checkpoint,
        resume=config.resume,
    )
    with executor_scope(exec_, owned=owns_executor) as metrics:
        run = driver.run()

    total_rr = driver.total_sets("R1") + driver.total_sets("R2")
    total_size = driver.total_size("R1") + driver.total_size("R2")
    total_edges = driver.total_edges_examined("R1") + driver.total_edges_examined("R2")
    return IMResult(
        seeds=run.selection.seeds,
        estimated_spread=rule.estimated_spread,
        num_rr_sets=total_rr,
        total_rr_size=total_size,
        total_edges_examined=total_edges,
        lower_bound=rule.certified_ratio,
        search_rounds=rule.rounds,
        metrics=metrics,
        algorithm="DOPIM-C",
        model=config.model,
        method=config.method,
        params={
            "k": k,
            "eps": eps,
            "delta": delta,
            "num_machines": config.machines,
            "executor": exec_.name,
        },
    )

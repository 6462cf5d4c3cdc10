"""Single-machine IMM (Tang et al., SIGMOD 2015, with Chen's 2018 fix).

This is the paper's baseline: the ``l = 1`` reference point of Figs 5-9.
IMM interleaves two phases:

1. **Lower-bound search** — for ``t = 1, 2, ...`` guess ``x = n / 2^t`` for
   OPT, generate ``theta_t = lambda' / x`` RR sets, run greedy, and accept
   ``LB = n * F_R(S_t) / (1 + eps')`` once the estimated spread clears
   ``(1 + eps') * x``.
2. **Final sampling** — grow the collection to ``theta = lambda* / LB``
   RR sets and return the greedy solution on them.

The loop is the shared :class:`~repro.core.driver.RoundDriver` running
the :class:`~repro.core.driver.ImmScheduleRule` over a one-machine
cluster in *central* selection mode: coverage counts are still
maintained incrementally, but selection runs the centralized lazy bucket
greedy in a single metered compute phase and the run issues no
communication phases at all — single-machine versus distributed
comparisons therefore isolate the distribution machinery itself.
"""

from __future__ import annotations

from ..cluster.cluster import SimulatedCluster
from ..cluster.executor import executor_scope, make_executor
from ..cluster.faults import FaultPlan, RetryPolicy
from ..graphs.digraph import DirectedGraph
from ..ris import make_collection
from .bounds import ImmParameters
from .checkpoint import manager_for
from .config import RunConfig
from .diimm import make_schedule_rule
from .driver import RoundDriver
from .result import IMResult

__all__ = ["imm", "imm_from_config"]


def imm(
    graph: DirectedGraph,
    k: int,
    eps: float = 0.5,
    delta: float | None = None,
    model: str = "ic",
    method: str = "bfs",
    seed: int = 0,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    faults: FaultPlan | str | None = None,
    retry: RetryPolicy | None = None,
) -> IMResult:
    """Run IMM on a single machine.

    This keyword signature is a thin shim over
    :class:`~repro.core.config.RunConfig` / :func:`imm_from_config`;
    prefer :func:`repro.api.run` in new code.

    Parameters
    ----------
    graph:
        Weighted directed graph.
    k:
        Seed-set size.
    eps:
        Approximation slack; the guarantee is ``(1 - 1/e - eps)``.
    delta:
        Failure probability; defaults to ``1/n`` (the paper's setting).
    model, method:
        Sampler selection (``"ic"``/``"lt"``, ``"bfs"``/``"subsim"``).
    seed:
        RNG seed.
    checkpoint_dir, resume:
        Driver-level checkpointing, as in :func:`repro.core.diimm.diimm`.
    faults, retry:
        Fault-injection plan and recovery policy (see
        :mod:`repro.cluster.faults`).

    Returns
    -------
    IMResult
        With a metrics breakdown whose communication time is zero.
    """
    config = RunConfig(
        graph=graph,
        k=k,
        eps=eps,
        delta=delta,
        model=model,
        method=method,
        seed=seed,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        faults=faults,
        retry=retry,
    )
    return imm_from_config(config)


def imm_from_config(config: RunConfig, *, executor=None, pool=None) -> IMResult:
    """Run IMM from a validated :class:`~repro.core.config.RunConfig`.

    ``config.machines`` is ignored: the baseline is defined as the
    ``l = 1`` reference point, so it always runs one machine.

    ``executor`` lends a pre-built single-machine executor whose worker
    pool and shared-memory graph the run reuses and never closes; the
    caller also owns the cluster's RNG streams (no reseeding happens).
    ``pool`` serves the query warm from a single-machine
    :class:`~repro.core.pool.SamplePool`; with the default ``"cluster"``
    RNG scheme the result is bit-identical to a cold run with the same
    config.
    """
    config.validate("imm")
    graph, k = config.graph, config.k
    n = graph.num_nodes
    delta = 1.0 / n if config.delta is None else config.delta
    params = ImmParameters.compute(n, k, config.eps, delta)
    rule = make_schedule_rule(config, params, delta)
    # IMM historically ignores config.backend (the baseline is defined on
    # the exact flat store); only the sketch backend opts in, so the
    # single-machine memory-bounded path exists too.
    backend = "sketch" if config.backend == "sketch" else "flat"

    def result(run, driver, metrics) -> IMResult:
        return IMResult(
            seeds=run.selection.seeds,
            estimated_spread=n * run.selection.fraction,
            num_rr_sets=driver.total_sets("main"),
            total_rr_size=driver.total_size("main"),
            total_edges_examined=driver.total_edges_examined("main"),
            lower_bound=rule.lower_bound,
            search_rounds=rule.search_rounds,
            metrics=metrics,
            algorithm="IMM",
            model=config.model,
            method=config.method,
            params={"k": k, "eps": config.eps, "delta": delta, "num_machines": 1},
        )

    if pool is not None:
        if executor is not None:
            raise ValueError("pass either executor or pool, not both")
        pool.check_config(config, machines=1)
        with pool.query_metrics() as metrics:
            driver = RoundDriver(
                pool.executor,
                rule,
                k,
                model=config.model,
                method=config.method,
                backend="flat",
                selection="central",
                pool=pool,
            )
            run = driver.run()
        return result(run, driver, metrics)

    owns_executor = executor is None
    if owns_executor:
        cluster = SimulatedCluster(1, seed=config.seed)
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
        if cluster.num_machines != 1:
            raise ValueError(
                f"IMM is single-machine; the lent executor has "
                f"{cluster.num_machines} machines"
            )
    stores = {
        "main": [
            make_collection(n, backend, sketch_precision=config.sketch_precision)
        ]
    }
    checkpoint = manager_for(
        config.checkpoint_dir,
        algorithm="IMM",
        n=n,
        k=k,
        eps=config.eps,
        delta=delta,
        seed=config.seed,
        num_machines=1,
        model=config.model,
        method=config.method,
        backend=backend,
    )
    driver = RoundDriver(
        exec_,
        rule,
        k,
        stores,
        model=config.model,
        method=config.method,
        backend=backend,
        selection="central",
        checkpoint=checkpoint,
        resume=config.resume,
    )
    with executor_scope(exec_, owned=owns_executor) as metrics:
        run = driver.run()
    return result(run, driver, metrics)

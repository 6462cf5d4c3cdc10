"""DIIMM: distributed IMM (paper Algorithm 2).

DIIMM is IMM with both phases distributed over ``l`` machines:

* **Distributed RIS** — every generation wave of ``theta_t - theta_{t-1}``
  RR sets is split evenly; each machine extends its private collection
  ``R_i`` with its own RNG stream.  Corollary 1 guarantees the per-machine
  workload concentrates around its mean, so the wave's parallel time is
  close to ``1/l`` of the sequential time.
* **NEWGREEDI seed selection** — every greedy call runs the
  element-distributed protocol of Algorithm 1 and returns *exactly* the
  centralized greedy solution (Lemma 2), so DIIMM inherits IMM's
  ``(1 - 1/e - eps)`` guarantee (Theorem 1) unchanged.

The loop itself — generate, ingest sparse coverage deltas, select, check
— is the shared :class:`~repro.core.driver.RoundDriver` running the
:class:`~repro.core.driver.ImmScheduleRule`; this module only assembles
the pieces and reads the result.
"""

from __future__ import annotations

from ..cluster.cluster import SimulatedCluster
from ..cluster.executor import executor_scope, make_executor
from ..cluster.faults import FaultPlan, RetryPolicy
from ..cluster.network import NetworkModel
from ..coverage.sketch import hll_relative_error
from ..graphs.digraph import DirectedGraph
from ..ris import make_collection
from .bounds import ImmParameters
from .checkpoint import manager_for
from .config import RunConfig
from .driver import (
    ErrorAdaptiveRule,
    ImmScheduleRule,
    RoundDriver,
    SubsimScheduleRule,
)
from .result import IMResult


def make_schedule_rule(config: RunConfig, params: ImmParameters, delta: float):
    """The stopping rule a :class:`RunConfig` asks for.

    ``stopping="schedule"`` is the IMM/SUBSIM theta schedule;
    ``stopping="error-adaptive"`` doubles from ``theta_initial`` (or the
    schedule's first search round) until the measured error satisfies
    ``eps``, capped at the schedule's own worst-case final theta — so the
    adaptive run can never sample more than the schedule would have.
    """
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
    rule_type = SubsimScheduleRule if config.method == "subsim" else ImmScheduleRule
    return rule_type(params)


__all__ = ["diimm", "diimm_from_config"]


def diimm(
    graph: DirectedGraph,
    k: int,
    num_machines: int,
    eps: float = 0.5,
    delta: float | None = None,
    model: str = "ic",
    method: str = "bfs",
    network: NetworkModel | None = None,
    seed: int = 0,
    algorithm_label: str = "DIIMM",
    backend: str = "flat",
    executor: str = "simulated",
    checkpoint_dir: str | None = None,
    resume: bool = False,
    faults: FaultPlan | str | None = None,
    retry: RetryPolicy | None = None,
) -> IMResult:
    """Run DIIMM on a simulated cluster of ``num_machines`` machines.

    This keyword signature is a thin shim over
    :class:`~repro.core.config.RunConfig` /
    :func:`diimm_from_config`; prefer :func:`repro.api.run` in new code.

    Parameters mirror :func:`repro.core.imm.imm` plus:

    num_machines:
        Number of worker machines ``l``.
    network:
        Cost model for master<->slave traffic; defaults to the
        shared-memory server profile.
    algorithm_label:
        Reported algorithm name (the SUBSIM wrapper overrides it).
    backend:
        Coverage backend: ``"flat"`` (default) keeps each machine's
        ``R_i`` in CSR arrays and selects seeds through the vectorized
        kernel; ``"reference"`` uses the dict-indexed store and loops
        (seeds are identical either way — Lemma 2 holds for both);
        ``"sketch"`` keeps per-node HyperLogLog register banks instead
        of set contents, trading exactness for ``O(n * 2**precision)``
        memory (see :mod:`repro.coverage.sketch`).
    executor:
        Execution backend for the phase plans: ``"simulated"``
        (sequential metered execution, the default), or an
        :class:`~repro.cluster.spec.ExecutorSpec` / shorthand such as
        ``"multiprocessing:4"`` (generation fanned out over OS processes).
        Seeds and collections are identical for a fixed random seed.
    checkpoint_dir:
        When set, the driver snapshots the loop state there after every
        non-final round (collections, coverage counts, RNG streams, rule
        position) — see :mod:`repro.core.checkpoint`.
    resume:
        Restore the latest snapshot from ``checkpoint_dir`` and continue
        the run from there.  The resumed run ends in the identical seed
        set a fresh run would produce.
    faults, retry:
        Fault-injection plan and recovery policy for the executors (see
        :mod:`repro.cluster.faults`); the selected seeds are identical
        with or without them.

    Returns
    -------
    IMResult
        ``metrics`` carries the Fig 5-9 breakdown (generation /
        computation / communication, all simulated-parallel), with every
        phase annotated by its round index and stopping rule.
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
        faults=faults,
        retry=retry,
    )
    return diimm_from_config(config, algorithm_label=algorithm_label)


def diimm_from_config(
    config: RunConfig,
    algorithm_label: str = "DIIMM",
    *,
    executor=None,
    pool=None,
) -> IMResult:
    """Run DIIMM from a validated :class:`~repro.core.config.RunConfig`.

    ``executor`` lends a pre-built executor (its worker pool,
    shared-memory graph, and RNG streams are reused and never closed or
    reseeded here).  ``pool`` serves the query warm from a
    :class:`~repro.core.pool.SamplePool`; the result is bit-identical to
    a cold run with the same config.
    """
    config.validate("diimm")
    graph, k = config.graph, config.k
    n = graph.num_nodes
    delta = 1.0 / n if config.delta is None else config.delta
    params = ImmParameters.compute(n, k, config.eps, delta)
    rule = make_schedule_rule(config, params, delta)

    def result(run, driver, metrics, executor_name: str) -> IMResult:
        return IMResult(
            seeds=run.selection.seeds,
            estimated_spread=n * run.selection.fraction,
            num_rr_sets=driver.total_sets("main"),
            total_rr_size=driver.total_size("main"),
            total_edges_examined=driver.total_edges_examined("main"),
            lower_bound=rule.lower_bound,
            search_rounds=rule.search_rounds,
            metrics=metrics,
            algorithm=algorithm_label,
            model=config.model,
            method=config.method,
            params={
                "k": k,
                "eps": config.eps,
                "delta": delta,
                "num_machines": config.machines,
                "executor": executor_name,
            },
        )

    if pool is not None:
        if executor is not None:
            raise ValueError("pass either executor or pool, not both")
        pool.check_config(config, machines=config.machines)
        with pool.query_metrics() as metrics:
            driver = RoundDriver(
                pool.executor,
                rule,
                k,
                model=config.model,
                method=config.method,
                backend="flat",
                pool=pool,
            )
            run = driver.run()
        return result(run, driver, metrics, pool.executor.name)

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
    stores = {
        "main": [
            make_collection(
                n,
                config.backend,
                machine_id=machine_id,
                sketch_precision=config.sketch_precision,
            )
            for machine_id in range(config.machines)
        ]
    }
    checkpoint = manager_for(
        config.checkpoint_dir,
        algorithm=algorithm_label,
        n=n,
        k=k,
        eps=config.eps,
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
    return result(run, driver, metrics, exec_.name)

"""repro — reproduction of "Distributed Influence Maximization for
Large-Scale Online Social Networks" (Tang, Tang, Zhu, Han; ICDE 2022).

The library implements the paper's two building blocks and everything they
stand on:

* **Distributed reverse influence sampling** — one keyed RR-set kernel
  each for the IC and LT models (SUBSIM's subset sampler and the scalar
  samplers kept as references), drawn independently per simulated
  machine (:mod:`repro.ris`, :mod:`repro.cluster`).
* **NEWGREEDI** — element-distributed maximum coverage with the exact
  ``(1 - 1/e)`` guarantee (:mod:`repro.coverage`).
* **DIIMM** — the IMM framework on top of both, returning
  ``(1 - 1/e - eps)``-approximate seed sets (:mod:`repro.core`), plus
  distributed SUBSIM and OPIM-C variants.

Quickstart::

    import numpy as np
    from repro import RunConfig, run, load_dataset, evaluate_seeds

    dataset = load_dataset("facebook")
    result = run("diimm", RunConfig(graph=dataset.graph, k=50, machines=16, eps=0.5))
    spread = evaluate_seeds(
        dataset.graph, result.seeds, "ic", 1000, np.random.default_rng(0)
    )
    print(result.seeds[:5], spread.mean)

:func:`repro.api.run` with a :class:`~repro.core.config.RunConfig` is the
primary entry point; the per-algorithm functions (``imm``, ``diimm``, ...)
build a ``RunConfig`` from their keywords and call the same assembly.
"""

from .analysis import approximation_ratio_exact, evaluate_seeds
from .api import ALGORITHMS, run
from .applications import (
    budgeted_influence_maximization,
    profit_maximization,
    seed_minimization,
    targeted_influence_maximization,
)
from .baselines import celf_greedy, degree_discount, max_degree, pagerank_seeds
from .cluster import (
    ExecutorSpec,
    FaultPlan,
    MultiprocessingSpec,
    NetworkModel,
    RetryPolicy,
    SimulatedCluster,
    SimulatedExecutor,
    SimulatedSpec,
    SocketSpec,
    gigabit_cluster,
    shared_memory_server,
)
from .core import (
    ImmParameters,
    IMResult,
    RunConfig,
    diimm,
    distributed_opimc,
    distributed_subsim,
    imm,
)
from .coverage import (
    greedi,
    greedy_max_coverage,
    newgreedi,
    randgreedi,
)
from .diffusion import (
    IndependentCascade,
    LinearThreshold,
    estimate_spread,
    get_model,
)
from .graphs import (
    DATASET_NAMES,
    DirectedGraph,
    GraphBuilder,
    load_dataset,
    read_edge_list,
    weighted_cascade,
)
from .ris import FlatRRCollection, make_sampler

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # api
    "run",
    "RunConfig",
    "ALGORITHMS",
    # graphs
    "DirectedGraph",
    "GraphBuilder",
    "load_dataset",
    "DATASET_NAMES",
    "read_edge_list",
    "weighted_cascade",
    # diffusion
    "IndependentCascade",
    "LinearThreshold",
    "get_model",
    "estimate_spread",
    # ris
    "make_sampler",
    "FlatRRCollection",
    # cluster
    "SimulatedCluster",
    "SimulatedExecutor",
    "NetworkModel",
    "gigabit_cluster",
    "shared_memory_server",
    "FaultPlan",
    "RetryPolicy",
    "ExecutorSpec",
    "SimulatedSpec",
    "MultiprocessingSpec",
    "SocketSpec",
    # coverage
    "greedy_max_coverage",
    "newgreedi",
    "greedi",
    "randgreedi",
    # core
    "imm",
    "diimm",
    "distributed_subsim",
    "distributed_opimc",
    "ImmParameters",
    "IMResult",
    # analysis
    "evaluate_seeds",
    "approximation_ratio_exact",
    # applications
    "targeted_influence_maximization",
    "budgeted_influence_maximization",
    "seed_minimization",
    "profit_maximization",
    # baselines
    "max_degree",
    "degree_discount",
    "pagerank_seeds",
    "celf_greedy",
]

"""The unified entry point: ``run(algorithm, config)``.

Every algorithm in the reproduction — single-machine IMM, DIIMM, D-SSA,
D-SUBSIM and D-OPIM-C — takes the same knobs: a graph, ``k``, the
cluster shape, the sampler, the executor, checkpointing and the fault
plan.  This module is the front door to the one place those knobs meet
the algorithms:

    from repro.api import RunConfig, run

    config = RunConfig(graph=g, k=50, machines=16, eps=0.3, seed=7)
    result = run("diimm", config)

``run`` normalises the name, looks its row up in the algorithm table
(:data:`repro.core.diimm.REGISTRY`) and hands both to the one assembly,
:func:`repro.core.diimm.run`, which validates the config (uniform
``ValueError`` messages, see :meth:`RunConfig.validate
<repro.core.config.RunConfig.validate>`) before any work starts.  The
keyword entry points (:func:`repro.imm` and friends) build a
:class:`RunConfig` and call the same function, so both styles return
bit-identical results.
"""

from __future__ import annotations

from .core.config import RunConfig
from .core.diimm import REGISTRY
from .core.diimm import run as _run_row
from .core.result import IMResult

__all__ = ["ALGORITHMS", "RunConfig", "run"]

#: The registered algorithm names, in table order.
ALGORITHMS: tuple[str, ...] = tuple(REGISTRY)


def run(algorithm: str, config: RunConfig, *, executor=None, pool=None) -> IMResult:
    """Run ``algorithm`` under ``config`` and return its :class:`IMResult`.

    Parameters
    ----------
    algorithm:
        One of :data:`ALGORITHMS`: ``"imm"`` (single-machine baseline),
        ``"diimm"``, ``"dssa"``, ``"dsubsim"`` or ``"dopimc"``; case,
        ``-`` and ``_`` are ignored.
    config:
        The run's :class:`~repro.core.config.RunConfig`; validated first,
        so a bad field fails before any work starts.
    executor:
        Optional pre-built :class:`~repro.cluster.executor.Executor` to
        lend the run.  Its worker pool, shared-memory graph, and cluster
        seed are reused; the run never closes or reseeds a lent
        executor — the caller keeps ownership.  Mutually exclusive with
        ``pool``.
    pool:
        Optional :class:`~repro.core.pool.SamplePool` to serve the query
        warm from.  The pool's collections are grown as needed and retained; the
        result is bit-identical to a cold ``run`` with the same config.
    """
    key = algorithm.lower().replace("-", "").replace("_", "")
    if key not in REGISTRY:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
        )
    return _run_row(config, key, executor=executor, pool=pool)

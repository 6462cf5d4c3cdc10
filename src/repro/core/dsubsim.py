"""Distributed SUBSIM (paper Fig 7).

SUBSIM (Guo et al., SIGMOD 2020) keeps IMM's sampling *schedule* but
replaces the RR-set generation procedure with subset sampling, cutting the
per-set cost from the in-degree volume to roughly the set size.  Section
III-C of the paper observes that the distributed techniques apply to any
RIS framework, and Fig 7 demonstrates it on SUBSIM: the speedup ratio over
single-machine SUBSIM matches DIIMM's over IMM.

Accordingly, this module runs the DIIMM driver with the
:class:`~repro.ris.subsim.SubsimSampler`; the single-machine baseline is
:func:`repro.core.imm.imm` with ``method="subsim"``.
"""

from __future__ import annotations

from ..cluster.faults import FaultPlan, RetryPolicy
from ..cluster.network import NetworkModel
from ..graphs.digraph import DirectedGraph
from .config import RunConfig
from .diimm import diimm_from_config
from .result import IMResult

__all__ = ["distributed_subsim", "distributed_subsim_from_config"]


def distributed_subsim(
    graph: DirectedGraph,
    k: int,
    num_machines: int,
    eps: float = 0.5,
    delta: float | None = None,
    network: NetworkModel | None = None,
    seed: int = 0,
    backend: str = "flat",
    executor: str = "simulated",
    checkpoint_dir: str | None = None,
    resume: bool = False,
    faults: FaultPlan | str | None = None,
    retry: RetryPolicy | None = None,
) -> IMResult:
    """Distributed SUBSIM under the IC model.

    This keyword signature is a thin shim over
    :class:`~repro.core.config.RunConfig` /
    :func:`distributed_subsim_from_config`; prefer :func:`repro.api.run`
    in new code.

    Subset sampling exploits shared in-edge probabilities; it is defined
    for the IC model only (the LT reverse walk is already linear in the
    walk length), hence no ``model`` parameter.  The DIIMM driver runs a
    :class:`~repro.core.driver.SubsimScheduleRule` for it, so round
    annotations and checkpoints carry the SUBSIM identity.
    """
    config = RunConfig(
        graph=graph,
        k=k,
        machines=num_machines,
        eps=eps,
        delta=delta,
        model="ic",
        method="subsim",
        network=network,
        seed=seed,
        backend=backend,
        executor=executor,
        checkpoint_dir=checkpoint_dir,
        resume=resume,
        faults=faults,
        retry=retry,
    )
    return distributed_subsim_from_config(config)


def distributed_subsim_from_config(
    config: RunConfig, *, executor=None, pool=None
) -> IMResult:
    """Run D-SUBSIM from a validated :class:`~repro.core.config.RunConfig`.

    Forces ``method="subsim"`` and validates the IC-only constraint, then
    delegates to the DIIMM driver under the ``DSUBSIM`` label.
    ``executor`` and ``pool`` are forwarded unchanged (SUBSIM's sampler
    is per-set stream-deterministic, so warm pools apply to it exactly as
    to DIIMM).
    """
    config = config.with_overrides(method="subsim")
    config.validate("dsubsim")
    return diimm_from_config(
        config, algorithm_label="DSUBSIM", executor=executor, pool=pool
    )

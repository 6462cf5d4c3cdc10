"""Reverse influence sampling: RR-set samplers, the RR-set store and statistics."""

from .flat import FlatPrefixView, FlatRRCollection, append_batch, make_collection
from .ic_sampler import ICReverseBFSSampler
from .lt_sampler import LTReverseWalkSampler
from .rrset import (
    FlatBatch,
    RRSample,
    RRSampler,
    concat_batches,
    pack_samples,
    sample_set_range,
)
from .stats import (
    RRSetStatistics,
    collect_statistics,
    empirical_eps,
    empirical_ept,
    lemma3_check,
)
from .serialization import (
    FORMAT_MAGIC,
    FORMAT_VERSION,
    MESSAGE_MAGIC,
    MESSAGE_VERSION,
    CheckpointFormatError,
    PayloadCorruptionError,
    load_collection,
    pack_message,
    save_collection,
    unpack_message,
)
from .subsim import SubsimSampler
from .triggering_sampler import TriggeringRRSampler
from .vectorized import (
    DEFAULT_BLOCK,
    VectorizedICSampler,
    VectorizedLTSampler,
    VectorizedTriggeringSampler,
)

__all__ = [
    "FlatBatch",
    "RRSample",
    "RRSampler",
    "pack_samples",
    "sample_set_range",
    "concat_batches",
    "append_batch",
    "ICReverseBFSSampler",
    "LTReverseWalkSampler",
    "SubsimSampler",
    "FlatRRCollection",
    "FlatPrefixView",
    "make_collection",
    "RRSetStatistics",
    "collect_statistics",
    "empirical_eps",
    "empirical_ept",
    "lemma3_check",
    "make_sampler",
    "save_collection",
    "load_collection",
    "FORMAT_MAGIC",
    "FORMAT_VERSION",
    "MESSAGE_MAGIC",
    "MESSAGE_VERSION",
    "CheckpointFormatError",
    "PayloadCorruptionError",
    "pack_message",
    "unpack_message",
    "TriggeringRRSampler",
    "DEFAULT_BLOCK",
    "VectorizedICSampler",
    "VectorizedLTSampler",
    "VectorizedTriggeringSampler",
]


def make_sampler(graph, model: str = "ic", method: str = "bfs") -> RRSampler:
    """Factory resolving ``(model, method)`` to a concrete sampler.

    Parameters
    ----------
    graph:
        The weighted :class:`~repro.graphs.digraph.DirectedGraph` or a
        :class:`~repro.graphs.digraph.VersionedGraph`.
    model:
        ``"ic"`` or ``"lt"``.
    method:
        ``"bfs"`` or ``"vectorized"`` — the same keyed block kernel
        (reverse BFS for IC, reverse walk for LT; see
        :mod:`repro.ris.vectorized`) — or ``"subsim"`` (IC only).
    """
    model_key, method_key = model.lower(), method.lower()
    if model_key not in ("ic", "lt"):
        raise ValueError(f"unknown diffusion model {model!r}")
    if method_key == "subsim":
        if model_key == "lt":
            raise ValueError("SUBSIM subset sampling applies to the IC model only")
        return SubsimSampler(graph)
    if method_key not in ("bfs", "vectorized"):
        raise ValueError(f"unknown sampling method {method!r}")
    return VectorizedICSampler(graph) if model_key == "ic" else VectorizedLTSampler(graph)

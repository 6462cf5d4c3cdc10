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
        The weighted :class:`~repro.graphs.digraph.DirectedGraph`.
    model:
        ``"ic"`` or ``"lt"``.
    method:
        ``"bfs"`` (plain reverse BFS / walk), ``"subsim"`` (IC only), or
        ``"vectorized"`` (blocked frontier kernels advancing many RR
        sets per NumPy call; see :mod:`repro.ris.vectorized`).
    """
    model_key, method_key = model.lower(), method.lower()
    if method_key == "vectorized":
        from ..graphs.digraph import VersionedGraph

        if isinstance(graph, VersionedGraph):
            raise ValueError(
                "method='vectorized' is not offered on a VersionedGraph overlay "
                "(its LT kernel reads base CSR arrays only); call graph.compact() "
                "(or rebase()) and sample the compacted graph instead"
            )
    if model_key == "lt":
        if method_key == "subsim":
            raise ValueError("SUBSIM subset sampling applies to the IC model only")
        if method_key == "vectorized":
            return VectorizedLTSampler(graph)
        if method_key == "bfs":
            return LTReverseWalkSampler(graph)
        raise ValueError(f"unknown sampling method {method!r}")
    if model_key == "ic":
        if method_key == "subsim":
            return SubsimSampler(graph)
        if method_key == "vectorized":
            return VectorizedICSampler(graph)
        if method_key == "bfs":
            return ICReverseBFSSampler(graph)
        raise ValueError(f"unknown sampling method {method!r}")
    raise ValueError(f"unknown diffusion model {model!r}")

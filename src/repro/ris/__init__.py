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
]


#: What a ``method=`` vestige accepts.  ``method`` once chose the RR-set
#: generation procedure and now selects nothing: every set is drawn by its
#: model's keyed kernel.  ``RunConfig``, ``SamplePool``, ``GeneratePhase``
#: and :func:`make_sampler` accept it because the frozen benchmark harness
#: passes it; the next ``[benchmark]`` PR drops it.
METHOD_VESTIGES: tuple[str, ...] = ("bfs", "subsim", "vectorized")


def check_method_vestige(method: str, name: str = "method") -> None:
    """Refuse a ``method=`` vestige other than :data:`METHOD_VESTIGES`."""
    if method not in METHOD_VESTIGES:
        raise ValueError(
            f"{name} must be one of {METHOD_VESTIGES}, got {method!r} (a vestige: "
            "every RR set is drawn by its model's keyed kernel)"
        )


def make_sampler(graph, model: str = "ic", method: str = "bfs") -> RRSampler:
    """The keyed block kernel of ``model`` over ``graph``.

    Parameters
    ----------
    graph:
        The weighted :class:`~repro.graphs.digraph.DirectedGraph` or a
        :class:`~repro.graphs.digraph.VersionedGraph`.
    model:
        ``"ic"`` (reverse BFS) or ``"lt"`` (reverse walk); see
        :mod:`repro.ris.vectorized`.
    method:
        Vestige (:data:`METHOD_VESTIGES`): accepted, changes nothing.
    """
    check_method_vestige(method.lower())
    model_key = model.lower()
    if model_key not in ("ic", "lt"):
        raise ValueError(f"unknown diffusion model {model!r}")
    return VectorizedICSampler(graph) if model_key == "ic" else VectorizedLTSampler(graph)

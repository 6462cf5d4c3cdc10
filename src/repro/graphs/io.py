"""Graph input/output: SNAP-style edge lists and binary snapshots.

The paper's datasets are distributed as SNAP edge-list text files (one
``u<TAB>v`` pair per line, ``#`` comments).  :func:`read_edge_list`
understands that format plus an optional third probability column.
:func:`save_npz` / :func:`load_npz` snapshot a finished graph (including
edge probabilities) to a single compressed file for fast reloads.
"""

from __future__ import annotations

import os
from typing import IO, Iterator, Tuple, Union

import numpy as np

from .builder import GraphBuilder
from .digraph import _CSR_FIELDS, DirectedGraph, _kept_copy, _pair_order, _pair_starts

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "iter_edge_lines",
    "save_npz",
    "load_npz",
]

PathOrFile = Union[str, os.PathLike, IO[str]]


def iter_edge_lines(handle: IO[str]) -> Iterator[Tuple[int, int, float | None]]:
    """Yield ``(u, v, prob_or_None)`` from an edge-list text stream.

    Lines starting with ``#`` or ``%`` and blank lines are skipped.  Fields
    may be separated by any whitespace.  A malformed line raises
    ``ValueError`` with the offending line number.
    """
    for lineno, raw in enumerate(handle, start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("%"):
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ValueError(f"line {lineno}: expected 2 or 3 fields, got {len(parts)}")
        try:
            u, v = int(parts[0]), int(parts[1])
            prob = float(parts[2]) if len(parts) == 3 else None
        except ValueError as exc:
            raise ValueError(f"line {lineno}: cannot parse {line!r}") from exc
        yield u, v, prob


def read_edge_list(
    path_or_file: PathOrFile,
    undirected: bool = False,
    num_nodes: int | None = None,
) -> DirectedGraph:
    """Read a SNAP-style edge list into a :class:`DirectedGraph`.

    Parameters
    ----------
    path_or_file:
        Filesystem path or open text handle.
    undirected:
        Mirror each edge, as for the Facebook friendship dataset.
    num_nodes:
        Optional explicit node count (ids must be dense ``0..n-1``).
    """
    builder = GraphBuilder(num_nodes=num_nodes, undirected=undirected)

    def _consume(handle: IO[str]) -> None:
        for u, v, prob in iter_edge_lines(handle):
            builder.add_edge(u, v, prob if prob is not None else 0.0)

    if hasattr(path_or_file, "read"):
        _consume(path_or_file)  # type: ignore[arg-type]
    elif str(path_or_file).endswith(".gz"):
        # SNAP distributes its edge lists gzip-compressed.
        import gzip

        with gzip.open(path_or_file, "rt", encoding="utf-8") as handle:
            _consume(handle)
    else:
        with open(path_or_file, "r", encoding="utf-8") as handle:
            _consume(handle)
    return builder.build()


def write_edge_list(
    graph: DirectedGraph,
    path_or_file: PathOrFile,
    include_probs: bool = True,
) -> None:
    """Write a graph as an edge-list text file (``u v [prob]`` per line)."""

    def _emit(handle: IO[str]) -> None:
        handle.write(f"# nodes={graph.num_nodes} edges={graph.num_edges}\n")
        for u, v, prob in graph.edges():
            if include_probs:
                handle.write(f"{u}\t{v}\t{prob:.10g}\n")
            else:
                handle.write(f"{u}\t{v}\n")

    if hasattr(path_or_file, "write"):
        _emit(path_or_file)  # type: ignore[arg-type]
    else:
        with open(path_or_file, "w", encoding="utf-8") as handle:
            _emit(handle)


def save_npz(graph: DirectedGraph, path: str | os.PathLike) -> None:
    """Snapshot a graph (structure + probabilities) to a compressed file.

    Both CSR directions are written as they are, so the reloaded graph
    lists every row in the same order (an updated
    :class:`~repro.graphs.digraph.VersionedGraph`'s rank-stable in-rows
    included) and draws the same RR sets.
    """
    np.savez_compressed(
        path,
        num_nodes=np.int64(graph.num_nodes),
        **{field: getattr(graph, field) for field in _CSR_FIELDS},
    )


def load_npz(path: str | os.PathLike) -> DirectedGraph:
    """Load a graph previously written by :func:`save_npz`.

    The saved CSR arrays are checked and adopted as they are, with no
    sort.  A file in the older edge-list layout (``sources`` /
    ``targets`` / ``probs``) is rebuilt through :class:`DirectedGraph`.
    """
    with np.load(path) as data:
        num_nodes = int(data["num_nodes"])
        if "sources" in data:
            return DirectedGraph(num_nodes, data["sources"], data["targets"], data["probs"])
        return _checked_csr(num_nodes, {field: data[field] for field in _CSR_FIELDS})


def _checked_csr(num_nodes: int, arrays: dict) -> DirectedGraph:
    """A graph over saved CSR arrays, refused with ``ValueError`` unless
    each direction is well-formed and both hold the same edges."""
    if num_nodes < 0:
        raise ValueError(f"num_nodes must be non-negative, got {num_nodes}")
    for field, dtype in zip(_CSR_FIELDS, (np.int64, np.int32, np.float64) * 2):
        if arrays[field].ndim != 1:
            raise ValueError(f"{field} must be one-dimensional")
        arrays[field] = _kept_copy(arrays[field], dtype)
    edges = {}
    for side in ("out", "in"):
        indptr, indices, probs = (arrays[f"{side}_{x}"] for x in ("indptr", "indices", "probs"))
        if indptr.shape != (num_nodes + 1,) or indptr[0] != 0 or np.any(np.diff(indptr) < 0):
            raise ValueError(f"{side}_indptr is not a row pointer array over {num_nodes} nodes")
        if indices.shape != (indptr[-1],) or probs.shape != indices.shape:
            raise ValueError(f"{side}_indices and {side}_probs must hold {indptr[-1]} entries")
        if indices.size and (indices.min() < 0 or indices.max() >= num_nodes):
            raise ValueError(f"{side}_indices hold a node id outside [0, {num_nodes})")
        if probs.size and (probs.min() < 0.0 or probs.max() > 1.0):
            raise ValueError("edge probabilities must lie in [0, 1]")
        owners = np.repeat(np.arange(num_nodes, dtype=np.int32), np.diff(indptr))
        pair = (owners, indices) if side == "out" else (indices, owners)
        edges[side] = _sorted_edges(*pair, probs, num_nodes)
    if not all(map(np.array_equal, edges["out"], edges["in"])):
        raise ValueError("out_* and in_* do not hold the same (source, target, prob) edges")
    return DirectedGraph._over(arrays)


def _sorted_edges(sources, targets, probs, num_nodes):
    """The ``(source, target, prob)`` triples in lexicographic order: the
    pairs by counting passes, then the probabilities of each repeated
    pair (a multi-edge) by value."""
    order = _pair_order(sources, targets, num_nodes)
    sources, targets, probs = sources[order], targets[order], probs[order]
    starts = _pair_starts(sources, targets)
    repeated = ~starts
    repeated[:-1] |= ~starts[1:]
    at = np.flatnonzero(repeated)
    if at.size:
        probs[at] = probs[at][np.lexsort((probs[at], np.cumsum(starts)[at]))]
    return sources, targets, probs

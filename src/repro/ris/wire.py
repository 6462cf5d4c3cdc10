"""Compressed wire format for RR-set payloads.

The multiprocessing executor ships every generation batch from worker to
master, and the simulated :class:`~repro.cluster.network.NetworkModel`
charges communication time for the same payloads.  Both previously paid
for the raw CSR arrays — 4 bytes per node id plus 8-byte offsets, roots
and edge counts.  RR sets compress extremely well: each set's node ids
are sorted, so consecutive differences are small, and a delta + varint
encoding shrinks a typical id from 4 bytes to 1–2.

Layout
------
A :class:`~repro.ris.rrset.FlatBatch` body is **one** contiguous LEB128
varint stream (7 value bits per byte, high bit = continuation)::

    [ S | length x S | delta x total | root x S | edges_examined x S ]

where ``S`` is the number of sets and ``total`` the summed set sizes.
Within each set the first node id is stored raw and every later id as
the difference from its predecessor (non-negative, since sets are
sorted).  The same scheme, minus roots/edges, serialises the sparse
``(node, count)`` vectors the coverage layer gathers each round::

    [ S | delta(node) x S | count x S ]

Robustness: :func:`decode_varints` refuses streams whose final byte has
the continuation bit set (truncation) or that contain a varint longer
than :data:`MAX_VARINT_BYTES` (corruption), and :func:`decode_batch`
additionally validates that the stream holds exactly the number of
values its own header promises — all surfaced as the
:class:`~repro.ris.serialization.PayloadCorruptionError` the executor's
retry machinery already understands.  The encoded body normally travels
behind :func:`~repro.ris.serialization.pack_message`'s magic/version/
CRC32 frame, so random corruption is caught by the checksum first and
these checks are the defence for the (checksum-colliding or framing-
bypassing) remainder.

Everything here is vectorised: encoding loops over the at most
:data:`MAX_VARINT_BYTES` byte *positions*, never over values, and
decoding reconstructs all values with one ``np.add.reduceat``.
"""

from __future__ import annotations

import numpy as np

from .rrset import FlatBatch
from .serialization import PayloadCorruptionError

__all__ = [
    "MAX_VARINT_BYTES",
    "varint_sizes",
    "encode_varints",
    "decode_varints",
    "encode_batch",
    "decode_batch",
    "encoded_batch_nbytes",
    "tuple_vector_nbytes",
]

#: Longest admissible varint: 10 x 7 value bits covers the uint64 range.
MAX_VARINT_BYTES = 10

#: ``varint_sizes`` thresholds: a value needs ``k+1`` bytes when it is
#: >= 2**(7k).  ``2**63`` must be formed in uint64 — it overflows int64.
_SIZE_THRESHOLDS = np.power(
    np.uint64(2), np.uint64(7) * np.arange(1, MAX_VARINT_BYTES, dtype=np.uint64)
)

_U7F = np.uint64(0x7F)
_SEVEN = np.uint64(7)


def varint_sizes(values: np.ndarray) -> np.ndarray:
    """Encoded byte length of each value (vectorised, no encoding)."""
    values = np.asarray(values, dtype=np.uint64)
    return np.searchsorted(_SIZE_THRESHOLDS, values, side="right").astype(np.int64) + 1


def encode_varints(values: np.ndarray) -> bytes:
    """Encode non-negative integers as one contiguous LEB128 stream."""
    values = np.ascontiguousarray(values, dtype=np.uint64)
    if values.size == 0:
        return b""
    sizes = varint_sizes(values)
    starts = np.zeros(values.size, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    out = np.empty(starts[-1] + sizes[-1], dtype=np.uint8)
    for position in range(MAX_VARINT_BYTES):
        mask = sizes > position
        if not mask.any():
            break
        chunk = (values[mask] >> (_SEVEN * np.uint64(position))) & _U7F
        continuation = (sizes[mask] > position + 1).astype(np.uint8) << 7
        out[starts[mask] + position] = chunk.astype(np.uint8) | continuation
    return out.tobytes()


def decode_varints(data: bytes | np.ndarray) -> np.ndarray:
    """Decode a LEB128 stream produced by :func:`encode_varints`.

    Raises :class:`PayloadCorruptionError` when the stream ends
    mid-value or contains a varint longer than :data:`MAX_VARINT_BYTES`.
    """
    raw = np.frombuffer(data, dtype=np.uint8) if isinstance(data, bytes) else data
    if raw.size == 0:
        return np.zeros(0, dtype=np.uint64)
    terminators = raw < 0x80
    if not terminators[-1]:
        raise PayloadCorruptionError(
            "varint stream truncated: final byte still has its continuation bit set"
        )
    ends = np.nonzero(terminators)[0]
    starts = np.empty(ends.size, dtype=np.int64)
    starts[0] = 0
    starts[1:] = ends[:-1] + 1
    lengths = ends - starts + 1
    if int(lengths.max()) > MAX_VARINT_BYTES:
        raise PayloadCorruptionError(
            f"varint stream corrupt: value spans {int(lengths.max())} bytes "
            f"(maximum is {MAX_VARINT_BYTES})"
        )
    positions = (np.arange(raw.size, dtype=np.int64) - np.repeat(starts, lengths)).astype(
        np.uint64
    )
    contributions = (raw & np.uint8(0x7F)).astype(np.uint64) << (_SEVEN * positions)
    return np.add.reduceat(contributions, starts)


def _delta_stream(nodes: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-set delta coding: first id raw, later ids as differences."""
    deltas = nodes.astype(np.int64, copy=True)
    if deltas.size:
        deltas[1:] -= nodes[:-1]
        set_starts = offsets[:-1][np.diff(offsets) > 0]
        deltas[set_starts] = nodes[set_starts]
    return deltas


def _undelta_stream(deltas: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Invert :func:`_delta_stream` given the per-set lengths."""
    if deltas.size == 0:
        return deltas
    running = np.cumsum(deltas)
    nonempty = lengths[lengths > 0]
    set_starts = np.zeros(nonempty.size, dtype=np.int64)
    np.cumsum(nonempty[:-1], out=set_starts[1:])
    bases = running[set_starts] - deltas[set_starts]
    return running - np.repeat(bases, nonempty)


def _batch_stream(batch: FlatBatch) -> np.ndarray:
    """The batch's value stream in wire order (see module docstring)."""
    lengths = np.diff(batch.offsets)
    deltas = _delta_stream(batch.nodes, batch.offsets)
    stream = np.empty(1 + lengths.size * 3 + deltas.size, dtype=np.uint64)
    stream[0] = lengths.size
    cursor = 1
    for part in (lengths, deltas, batch.roots, batch.edges_examined):
        stream[cursor : cursor + part.size] = part.astype(np.uint64, copy=False)
        cursor += part.size
    return stream


def encode_batch(batch: FlatBatch) -> bytes:
    """Serialise a :class:`FlatBatch` as a delta + varint body."""
    return encode_varints(_batch_stream(batch))


def encoded_batch_nbytes(batch: FlatBatch) -> int:
    """Size in bytes of :func:`encode_batch`'s output, without encoding."""
    return int(varint_sizes(_batch_stream(batch)).sum())


def decode_batch(body: bytes) -> FlatBatch:
    """Invert :func:`encode_batch`, validating the stream's structure."""
    stream = decode_varints(body)
    if stream.size == 0:
        raise PayloadCorruptionError("batch body is empty: missing set-count header")
    count = int(stream[0])
    if 1 + count > stream.size:
        raise PayloadCorruptionError(
            f"batch body declares {count} sets but only holds "
            f"{stream.size - 1} values"
        )
    lengths = stream[1 : 1 + count].astype(np.int64)
    if lengths.size and int(lengths.max(initial=0)) > stream.size:
        raise PayloadCorruptionError("batch body declares a set longer than the stream")
    total = int(lengths.sum())
    expected = 1 + 3 * count + total
    if stream.size != expected:
        raise PayloadCorruptionError(
            f"batch body holds {stream.size} values but its header implies {expected}"
        )
    deltas = stream[1 + count : 1 + count + total].astype(np.int64)
    roots = stream[1 + count + total : 1 + 2 * count + total].astype(np.int64)
    edges = stream[1 + 2 * count + total :].astype(np.int64)
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    nodes = _undelta_stream(deltas, lengths).astype(np.int32)
    return FlatBatch(nodes, offsets, roots, edges)


def tuple_vector_nbytes(nodes: np.ndarray, counts: np.ndarray) -> int:
    """Wire size of a sorted sparse ``(node, count)`` vector.

    This is the unit the coverage layer gathers every round; charging
    its delta + varint size (plus the one-varint length header) keeps
    the simulated communication curves consistent with what the real
    data plane would ship.  ``nodes`` must be sorted ascending — both
    coverage backends produce their deltas that way.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    size = nodes.size
    stream = np.empty(2 * size + 1, dtype=np.uint64)
    stream[0] = size
    if size:
        stream[1] = nodes[0]
        np.subtract(nodes[1:], nodes[:-1], out=stream[2 : size + 1], casting="unsafe")
        stream[size + 1 :] = counts
    # One byte per value, plus one for each value at or past each 7-bit
    # boundary; almost none are, so the survivors run out after a pass or two.
    total = stream.size
    for threshold in _SIZE_THRESHOLDS:
        stream = stream[stream >= threshold]
        if not stream.size:
            break
        total += stream.size
    return total

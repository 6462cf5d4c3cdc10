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
values its own header promises, that no set is longer than the stream
and that every node id lies in ``[0, 2**31)`` — all surfaced as the
:class:`~repro.ris.serialization.PayloadCorruptionError` the executor's
retry machinery already understands.  The encoded body normally travels
behind :func:`~repro.ris.serialization.pack_message`'s magic/version/
CRC32 frame, so random corruption is caught by the checksum first and
these checks are the defence for the (checksum-colliding or framing-
bypassing) remainder.

Everything here is vectorised, and the work is per value, not per byte:

* sizing makes one compare-and-add pass per 7-bit threshold at or below
  the stream's largest value (two or three for node deltas);
* encoding writes byte 0 of every value in one scatter, then each later
  byte position only for the values that still have bits left;
* decoding reads every value's last, most significant group off the
  terminating bytes, then folds in the earlier groups by Horner steps
  (``v = v << 7 | low7``) over the shrinking set of multi-byte values;
* a batch's per-set deltas are written straight into the value stream,
  and undone by one running sum after each set's first delta is rebased
  on the previous set's last id.
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

_INT_THRESHOLDS = _SIZE_THRESHOLDS.tolist()  # exact against signed arrays

_U7F = np.uint64(0x7F)
_SEVEN = np.uint64(7)


def _byte_counts(values: np.ndarray) -> np.ndarray:
    """Encoded byte length of each ``uint64`` value, as ``uint8``.

    One compare-and-add per 7-bit threshold at or below the largest value:
    two or three passes for node deltas.
    """
    counts = np.ones(values.shape, dtype=np.uint8)
    if values.size:
        top = values.max()
        for threshold in _SIZE_THRESHOLDS:
            if threshold > top:
                break
            counts += values >= threshold
    return counts


def varint_sizes(values: np.ndarray) -> np.ndarray:
    """Encoded byte length of each value (vectorised, no encoding)."""
    return _byte_counts(np.asarray(values, dtype=np.uint64)).astype(np.int64)


def _low_groups(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's low 7 bits as a byte with the continuation bit set
    where more bits remain, and the mask of those values."""
    more = values > _U7F
    groups = values.astype(np.uint8)
    groups &= 0x7F
    groups |= more.view(np.uint8) << 7
    return groups, more


def encode_varints(values: np.ndarray) -> bytes:
    """Encode non-negative integers as one contiguous LEB128 stream.

    Byte 0 of every value lands in one scatter; each later byte position
    is written only for the values that still have bits left, a set that
    shrinks with every position.
    """
    values = np.ascontiguousarray(values, dtype=np.uint64)
    if values.size == 0:
        return b""
    counts = _byte_counts(values)
    starts = counts.astype(np.int64)
    np.cumsum(starts, out=starts)
    out = np.empty(int(starts[-1]), dtype=np.uint8)
    starts -= counts
    groups, more = _low_groups(values)
    out[starts] = groups
    rest = np.compress(more, values)
    positions = np.compress(more, starts)
    while rest.size:
        rest >>= _SEVEN
        positions += 1
        groups, more = _low_groups(rest)
        out[positions] = groups
        rest = np.compress(more, rest)
        positions = np.compress(more, positions)
    return out.tobytes()


def decode_varints(data: bytes | np.ndarray) -> np.ndarray:
    """Decode a LEB128 stream produced by :func:`encode_varints`.

    Each value starts as its last, most significant group (the byte
    without a continuation bit); the earlier groups are folded in by
    Horner steps, ``v = v << 7 | low7``, over the shrinking set of values
    that still have a byte before the one just folded.

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
    values = np.compress(terminators, raw).astype(np.uint64)
    # A multi-byte value's last continuation byte is one followed by a
    # terminator.  If it sits at position p behind r other continuation
    # bytes, its value is number p - r: of the p + 2 bytes up to its
    # terminator, r + 1 continue and the rest each end a value.  (The
    # final byte is a terminator, so ``terminators[1:]`` reaches past
    # every continuation byte.)
    continued = np.flatnonzero(~terminators)
    ranks = np.flatnonzero(terminators[1:][continued])
    positions = continued[ranks]
    index = np.subtract(positions, ranks, out=ranks)
    folded = values[index]
    spanned = 1
    while index.size:
        spanned += 1
        if spanned > MAX_VARINT_BYTES:
            lengths = np.diff(np.flatnonzero(terminators), prepend=-1)
            raise PayloadCorruptionError(
                f"varint stream corrupt: value spans {int(lengths.max())} bytes "
                f"(maximum is {MAX_VARINT_BYTES})"
            )
        folded <<= _SEVEN
        folded |= raw[positions] & 0x7F
        values[index] = folded
        # Position -1 wraps to the final byte, a terminator, so a value
        # that starts the stream stops there like every other.
        positions -= 1
        more = raw[positions] >= 0x80
        index = np.compress(more, index)
        positions = np.compress(more, positions)
        folded = np.compress(more, folded)
    return values


#: Node ids travel as int32 on the master: a decoded id or delta at or past
#: this bound can only come from a corrupt stream.
_NODE_ID_LIMIT = 2**31


def _batch_stream(batch: FlatBatch) -> np.ndarray:
    """The batch's value stream in wire order (see module docstring).

    Within each set the first node id is stored raw and every later id as
    the difference from its predecessor; the differences are written
    straight into the stream.
    """
    nodes, offsets = batch.nodes, batch.offsets
    count, total = offsets.size - 1, nodes.size
    stream = np.empty(1 + 3 * count + total, dtype=np.uint64)
    stream[0] = count
    np.subtract(offsets[1:], offsets[:-1], out=stream[1 : 1 + count], casting="unsafe")
    if total:
        deltas = stream[1 + count : 1 + count + total].view(np.int64)
        np.subtract(nodes[1:], nodes[:-1], out=deltas[1:], dtype=np.int64)
        set_starts = offsets[:-1][offsets[:-1] < offsets[1:]]
        deltas[set_starts] = nodes[set_starts]
    stream[1 + count + total : 1 + 2 * count + total] = batch.roots.astype(np.uint64, copy=False)
    stream[1 + 2 * count + total :] = batch.edges_examined.astype(np.uint64, copy=False)
    return stream


def encode_batch(batch: FlatBatch) -> bytes:
    """Serialise a :class:`FlatBatch` as a delta + varint body."""
    return encode_varints(_batch_stream(batch))


def encoded_batch_nbytes(batch: FlatBatch) -> int:
    """Size in bytes of :func:`encode_batch`'s output, without encoding."""
    return int(varint_sizes(_batch_stream(batch)).sum())


def _undelta(deltas: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Invert the per-set delta coding in place and return the node ids.

    Each set's first delta is rebased on the previous set's last id (the
    sum of that set's deltas), so one running sum over the whole stream
    yields every id.  ``deltas`` must hold values below
    :data:`_NODE_ID_LIMIT`, so no sum wraps.
    """
    if deltas.size:
        nonempty = lengths[lengths > 0]
        set_starts = np.zeros(nonempty.size, dtype=np.int64)
        np.cumsum(nonempty[:-1], out=set_starts[1:])
        lasts = np.add.reduceat(deltas, set_starts)
        deltas[set_starts[1:]] -= lasts[:-1]
        np.cumsum(deltas, out=deltas)
    return deltas


def decode_batch(body: bytes) -> FlatBatch:
    """Invert :func:`encode_batch`, validating the stream's structure.

    Besides the value count its header implies, a set length past the
    stream's size and a node id outside ``[0, 2**31)`` are refused: both
    can only come from corruption, and both would otherwise wrap into
    negative offsets or wrong ids.
    """
    stream = decode_varints(body)
    if stream.size == 0:
        raise PayloadCorruptionError("batch body is empty: missing set-count header")
    count = int(stream[0])
    if 1 + count > stream.size:
        raise PayloadCorruptionError(
            f"batch body declares {count} sets but only holds "
            f"{stream.size - 1} values"
        )
    if count and int(stream[1 : 1 + count].max()) > stream.size:
        raise PayloadCorruptionError("batch body declares a set longer than the stream")
    lengths = stream[1 : 1 + count].astype(np.int64)
    total = int(lengths.sum())
    expected = 1 + 3 * count + total
    if stream.size != expected:
        raise PayloadCorruptionError(
            f"batch body holds {stream.size} values but its header implies {expected}"
        )
    deltas = stream[1 + count : 1 + count + total]
    if total and int(deltas.max()) >= _NODE_ID_LIMIT:
        raise PayloadCorruptionError("batch body holds a node delta past the int32 id range")
    ids = _undelta(deltas.view(np.int64), lengths)
    if total and int(ids.max()) >= _NODE_ID_LIMIT:
        raise PayloadCorruptionError("batch body decodes to a node id past the int32 id range")
    roots = stream[1 + count + total : 1 + 2 * count + total].astype(np.int64)
    edges = stream[1 + 2 * count + total :].astype(np.int64)
    offsets = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return FlatBatch(ids.astype(np.int32), offsets, roots, edges)


def _varint_nbytes(value: int) -> int:
    """Encoded byte length of one non-negative integer."""
    return max(1, -(-value.bit_length() // 7))


def _bytes_past_first(values: np.ndarray) -> int:
    """Bytes past one per value that non-negative ``values`` encode to:
    one per value at or past each 7-bit boundary up to the largest."""
    top = int(values.max(initial=0))
    extra = 0
    for threshold in _INT_THRESHOLDS:
        if top < threshold:
            break
        extra += int(np.count_nonzero(values >= threshold))
    return extra


def tuple_vector_nbytes(nodes: np.ndarray, counts: np.ndarray) -> int:
    """Wire size of a sorted sparse ``(node, count)`` vector.

    This is the unit the coverage layer gathers every round; charging
    its delta + varint size (plus the one-varint length header) keeps
    the simulated communication curves consistent with what the real
    data plane would ship.  ``nodes`` must be sorted ascending — both
    coverage backends produce their deltas that way.  Priced from the
    node gaps and the counts directly; no stream is built.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    size = nodes.size
    total = _varint_nbytes(size)
    if size:
        total += 2 * size - 1 + _varint_nbytes(int(nodes[0]))
        total += _bytes_past_first(nodes[1:] - nodes[:-1])
        total += _bytes_past_first(np.asarray(counts))
    return total

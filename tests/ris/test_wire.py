"""Round-trip and corruption tests for the delta + varint wire codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ris import make_sampler
from repro.ris.rrset import FlatBatch, pack_samples
from repro.ris.serialization import PayloadCorruptionError, pack_message
from repro.ris.wire import (
    MAX_VARINT_BYTES,
    decode_batch,
    decode_varints,
    encode_batch,
    encode_varints,
    encoded_batch_nbytes,
    tuple_vector_nbytes,
    varint_sizes,
)
from tests.oracle import (
    reference_decode_varints,
    reference_encode_varints,
    reference_varint_sizes,
)

#: Every 7-bit boundary, one either side of it, and the top of uint64.
BOUNDARIES = sorted(
    {max(0, 2 ** (7 * k) + d) for k in range(1, 10) for d in (-1, 0, 1)} | {0, 2**64 - 1}
)

UINT64 = st.one_of(
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**21),
    st.sampled_from(BOUNDARIES),
)


def batch_from_sets(sets, num_nodes=None):
    sizes = np.asarray([len(s) for s in sets], dtype=np.int64)
    offsets = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    nodes = (
        np.concatenate([np.asarray(s, dtype=np.int32) for s in sets])
        if sets and offsets[-1]
        else np.zeros(0, dtype=np.int32)
    )
    roots = np.asarray([s[0] if len(s) else 0 for s in sets], dtype=np.int64)
    edges = np.arange(len(sets), dtype=np.int64)
    return FlatBatch(nodes, offsets, roots, edges)


def assert_batches_equal(left, right):
    assert left.nodes.dtype == right.nodes.dtype == np.int32
    assert left.offsets.dtype == right.offsets.dtype == np.int64
    assert np.array_equal(left.nodes, right.nodes)
    assert np.array_equal(left.offsets, right.offsets)
    assert np.array_equal(left.roots, right.roots)
    assert np.array_equal(left.edges_examined, right.edges_examined)


class TestVarints:
    def test_known_boundaries(self):
        values = np.asarray(
            [0, 1, 127, 128, 16383, 16384, 2**31 - 1, 2**63 - 1, 2**64 - 1],
            dtype=np.uint64,
        )
        sizes = varint_sizes(values)
        assert sizes.tolist() == [1, 1, 1, 2, 2, 3, 5, 9, 10]
        encoded = encode_varints(values)
        assert len(encoded) == int(sizes.sum())
        assert np.array_equal(decode_varints(encoded), values)

    def test_single_byte_wire_values(self):
        assert encode_varints(np.asarray([0], dtype=np.uint64)) == b"\x00"
        assert encode_varints(np.asarray([300], dtype=np.uint64)) == b"\xac\x02"

    def test_empty_stream(self):
        assert encode_varints(np.zeros(0, dtype=np.uint64)) == b""
        assert decode_varints(b"").size == 0

    @pytest.mark.parametrize("trial", range(20))
    def test_random_round_trip(self, trial):
        rng = np.random.default_rng(trial)
        count = int(rng.integers(1, 500))
        # Mix magnitudes so every encoded length occurs.
        magnitudes = rng.integers(0, 64, size=count).astype(np.uint64)
        values = rng.integers(0, 2**63, size=count, dtype=np.uint64) >> magnitudes
        encoded = encode_varints(values)
        assert len(encoded) == int(varint_sizes(values).sum())
        assert np.array_equal(decode_varints(encoded), values)

    def test_truncated_stream_raises(self):
        encoded = encode_varints(np.asarray([5, 70000], dtype=np.uint64))
        with pytest.raises(PayloadCorruptionError, match="truncated"):
            decode_varints(encoded[:-1])

    def test_overlong_varint_raises(self):
        stream = b"\x80" * MAX_VARINT_BYTES + b"\x01"
        with pytest.raises(PayloadCorruptionError, match="spans"):
            decode_varints(stream)



def decode_outcome(decode, data):
    """What ``decode`` makes of ``data``: its values, or its error message."""
    try:
        return decode(data).tolist()
    except PayloadCorruptionError as error:
        return f"error: {error}"


class TestAgainstPerByteReference:
    """The per-value codec against the per-byte one it replaced
    (``tests/oracle.py``): same bytes, same values, same sizes, and the
    same refusals with the same messages."""

    def test_every_boundary(self):
        values = np.asarray(BOUNDARIES, dtype=np.uint64)
        encoded = encode_varints(values)
        assert encoded == reference_encode_varints(values)
        assert np.array_equal(varint_sizes(values), reference_varint_sizes(values))
        assert varint_sizes(values).dtype == np.int64
        assert np.array_equal(decode_varints(encoded), values)

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(UINT64, max_size=300))
    def test_random_streams(self, values):
        values = np.asarray(values, dtype=np.uint64)
        encoded = encode_varints(values)
        assert encoded == reference_encode_varints(values)
        assert np.array_equal(varint_sizes(values), reference_varint_sizes(values))
        decoded = decode_varints(encoded)
        assert decoded.dtype == np.uint64
        assert np.array_equal(decoded, reference_decode_varints(encoded))
        assert np.array_equal(decoded, values)

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(UINT64, min_size=1, max_size=50), data=st.data())
    def test_truncated_and_overlong_streams(self, values, data):
        encoded = encode_varints(np.asarray(values, dtype=np.uint64))
        cut = data.draw(st.integers(1, len(encoded)))
        at = data.draw(st.integers(0, len(encoded)))
        for broken in (
            encoded[:cut] + b"\x80",
            encoded[:at] + b"\x80" * MAX_VARINT_BYTES + b"\x01" + encoded[at:],
        ):
            outcome = decode_outcome(decode_varints, broken)
            assert outcome.startswith("error: ")
            assert outcome == decode_outcome(reference_decode_varints, broken)

    @settings(max_examples=300, deadline=None)
    @given(data=st.binary(max_size=80))
    def test_arbitrary_bytes(self, data):
        assert decode_outcome(decode_varints, data) == decode_outcome(
            reference_decode_varints, data
        )

class TestBatchCodec:
    def test_empty_batch(self):
        batch = batch_from_sets([])
        assert_batches_equal(decode_batch(encode_batch(batch)), batch)

    def test_empty_and_single_node_sets(self):
        batch = batch_from_sets([[7], [], [0], [2**31 - 1], []])
        assert_batches_equal(decode_batch(encode_batch(batch)), batch)

    def test_max_int32_node_ids(self):
        top = 2**31 - 1
        batch = batch_from_sets([[top - 2, top - 1, top], [0, top]])
        round_tripped = decode_batch(encode_batch(batch))
        assert_batches_equal(round_tripped, batch)
        assert round_tripped.nodes.max() == top

    @pytest.mark.parametrize("trial", range(20))
    def test_random_sorted_sets_round_trip(self, trial):
        rng = np.random.default_rng(1000 + trial)
        sets = []
        for __ in range(int(rng.integers(0, 40))):
            size = int(rng.integers(0, 60))
            high = int(rng.integers(1, 2**31))
            ids = np.unique(rng.integers(0, high, size=size))
            sets.append(ids.tolist())
        batch = batch_from_sets(sets)
        encoded = encode_batch(batch)
        assert len(encoded) == encoded_batch_nbytes(batch)
        assert_batches_equal(decode_batch(encoded), batch)

    def test_sampler_batch_round_trip(self, small_wc_graph):
        sampler = make_sampler(small_wc_graph, "ic", "bfs")
        batch = sampler.sample_batch(np.random.default_rng(7), 200)
        encoded = encode_batch(batch)
        assert_batches_equal(decode_batch(encoded), batch)
        # The whole point: compressed body well under the raw arrays.
        raw = sum(arr.nbytes for arr in batch)
        assert len(encoded) * 2 <= raw

    def test_round_trip_matches_pack_samples(self, small_wc_graph):
        sampler = make_sampler(small_wc_graph, "ic", "bfs")
        samples = sampler.sample_many(50, np.random.default_rng(3))
        batch = pack_samples(samples)
        assert_batches_equal(decode_batch(encode_batch(batch)), batch)

    def test_truncated_body_raises(self):
        batch = batch_from_sets([[1, 5, 9], [2, 4]])
        encoded = encode_batch(batch)
        with pytest.raises(PayloadCorruptionError):
            decode_batch(encoded[: len(encoded) // 2])

    def test_missing_header_raises(self):
        with pytest.raises(PayloadCorruptionError, match="missing set-count"):
            decode_batch(b"")

    def test_wrong_value_count_raises(self):
        # Header promises 3 sets but the stream holds nothing else.
        with pytest.raises(PayloadCorruptionError, match="declares 3 sets"):
            decode_batch(encode_varints(np.asarray([3], dtype=np.uint64)))

    def test_inconsistent_lengths_raise(self):
        # One set of length 2, but only one delta follows.
        stream = np.asarray([1, 2, 42, 0, 0], dtype=np.uint64)
        with pytest.raises(PayloadCorruptionError, match="implies"):
            decode_batch(encode_varints(stream))


    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_nbytes_equals_encoding_on_sampler_batches(self, small_wc_graph, model):
        sampler = make_sampler(small_wc_graph, model)
        drawn = sampler.sample_batch(np.random.default_rng(5), 150)
        sets = [drawn.nodes[drawn.offsets[i] : drawn.offsets[i + 1]] for i in range(drawn.count)]
        # Interleave empty sets and single-node sets with the drawn ones.
        mixed = [s.tolist() for s in sets[:60]] + [[], [3], []] + [s.tolist() for s in sets[60:]]
        for batch in (drawn, batch_from_sets(mixed), batch_from_sets([[], [0]])):
            encoded = encode_batch(batch)
            assert encoded_batch_nbytes(batch) == len(encoded)
            assert_batches_equal(decode_batch(encoded), batch)

    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_frame_is_smaller_than_pickled_arrays(self, small_wc_graph, model):
        """The framed encoding of a 2,000-set batch is at least 1.5x smaller
        than the same frame around the batch's pickled arrays."""
        batch = make_sampler(small_wc_graph, model).sample_batch(np.random.default_rng(0), 2000)
        assert 1.5 * len(pack_message(encode_batch(batch))) <= len(pack_message(batch))

    def test_tombstone_roots_round_trip(self):
        batch = batch_from_sets([[4, 6], [], [1]])
        batch = FlatBatch(batch.nodes, batch.offsets, np.array([4, -1, 1]), batch.edges_examined)
        assert_batches_equal(decode_batch(encode_batch(batch)), batch)

    def test_set_length_past_int64_raises(self):
        # 2**64 - 1 read as an int64 length would be -1: offsets [0, -1, 1].
        stream = np.asarray([2, 2**64 - 1, 2, 5, 1, 1, 7, 7], dtype=np.uint64)
        with pytest.raises(PayloadCorruptionError, match="longer than the stream"):
            decode_batch(encode_varints(stream))

    def test_node_delta_that_wraps_raises(self):
        # 5 + (2**63 + 3) wraps to 8 in int32 arithmetic.
        stream = np.asarray([1, 2, 5, 2**63 + 3, 1, 1], dtype=np.uint64)
        with pytest.raises(PayloadCorruptionError, match="int32 id range"):
            decode_batch(encode_varints(stream))

    def test_node_id_past_int32_raises(self):
        # Each delta fits, but their running sum leaves the int32 range.
        stream = np.asarray([1, 2, 2**31 - 1, 1, 0, 0], dtype=np.uint64)
        with pytest.raises(PayloadCorruptionError, match="int32 id range"):
            decode_batch(encode_varints(stream))

class TestTupleVectorSize:
    def test_empty_vector_costs_header_only(self):
        assert tuple_vector_nbytes(np.zeros(0, dtype=np.int64), np.zeros(0)) == 1

    def test_sorted_vector_smaller_than_tuples(self):
        rng = np.random.default_rng(0)
        nodes = np.unique(rng.integers(0, 100000, size=500))
        counts = rng.integers(1, 50, size=nodes.size)
        size = tuple_vector_nbytes(nodes, counts)
        assert 0 < size < 8 * nodes.size

    def test_matches_explicit_encoding(self):
        nodes = np.asarray([3, 10, 11, 500, 70000], dtype=np.int64)
        counts = np.asarray([1, 2, 3, 4, 5], dtype=np.int64)
        deltas = np.asarray([3, 7, 1, 489, 69500], dtype=np.uint64)
        explicit = len(
            encode_varints(np.asarray([5], dtype=np.uint64))
            + encode_varints(deltas)
            + encode_varints(counts.astype(np.uint64))
        )
        assert tuple_vector_nbytes(nodes, counts) == explicit

    @staticmethod
    def encoded_vector(nodes, counts):
        """The wire layout the size stands for: header, deltas, counts."""
        nodes = np.asarray(nodes, dtype=np.uint64)
        deltas = np.diff(nodes, prepend=np.uint64(0))
        header = np.asarray([nodes.size], dtype=np.uint64)
        return encode_varints(np.concatenate([header, deltas, np.asarray(counts, np.uint64)]))

    @pytest.mark.parametrize("position", range(1, MAX_VARINT_BYTES))
    def test_size_equals_encoding_across_each_7_bit_boundary(self, position):
        boundary = 2 ** (7 * position)
        around = [boundary - 1, boundary, boundary + 1]
        # Counts straddle the boundary as values; node *gaps* straddle it
        # as deltas (node ids are int64, so the last boundary, 2**63, is
        # only reachable on the counts side).
        counts = np.asarray(around, dtype=np.uint64)
        if boundary < 2**62:
            nodes = np.cumsum(np.asarray(around, dtype=np.int64))
        else:
            nodes = np.asarray([0, 2**62 - 1, 2**63 - 1], dtype=np.int64)
        size = tuple_vector_nbytes(nodes, counts)
        assert size == len(self.encoded_vector(nodes, counts))
        assert size == 1 + int(varint_sizes(np.diff(nodes, prepend=0)).sum()) + int(
            varint_sizes(counts).sum()
        )

    @pytest.mark.parametrize("trial", range(20))
    def test_size_equals_encoding_on_random_vectors(self, trial):
        rng = np.random.default_rng(trial)
        size = int(rng.integers(0, 300))
        nodes = np.unique(rng.integers(0, 2 ** int(rng.integers(1, 63)), size=size))
        counts = rng.integers(0, 2 ** int(rng.integers(1, 63)), size=nodes.size)
        assert tuple_vector_nbytes(nodes, counts) == len(self.encoded_vector(nodes, counts))

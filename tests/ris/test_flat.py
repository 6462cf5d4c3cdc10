"""Determinism tests for the CSR-backed FlatRRCollection."""

import numpy as np
import pytest

import repro.ris.flat as flat_module
from repro.coverage.sketch import SketchRRCollection
from repro.ris import FlatPrefixView, FlatRRCollection, make_collection, make_sampler
from repro.ris.flat import _set_id_bits, build_inverted_index, gather_rows
from repro.ris.rrset import FlatBatch, RRSample
from tests.oracle import RRCollection


def make_sample(nodes, edges=0):
    arr = np.unique(np.asarray(nodes, dtype=np.int32))
    root = int(arr[0]) if arr.size else 0
    return RRSample(nodes=arr, root=root, edges_examined=edges)


def drawn_samples(graph, count, seed=0, model="ic"):
    sampler = make_sampler(graph, model)
    return sampler.sample_many(count, np.random.default_rng(seed))


class TestGatherRows:
    def test_multi_row_gather(self):
        values = np.asarray([10, 11, 20, 30, 31, 32], dtype=np.int32)
        offsets = np.asarray([0, 2, 3, 3, 6], dtype=np.int64)
        got = gather_rows(values, offsets, np.asarray([0, 2, 3]))
        assert got.tolist() == [10, 11, 30, 31, 32]

    def test_empty_rows(self):
        values = np.asarray([1, 2], dtype=np.int32)
        offsets = np.asarray([0, 2], dtype=np.int64)
        assert gather_rows(values, offsets, np.zeros(0, dtype=np.int64)).size == 0


class TestRoundTrip:
    def test_from_collection_preserves_sets(self, small_wc_graph):
        """``from_store`` copies any store — here the oracle's dict one."""
        reference = RRCollection(small_wc_graph.num_nodes)
        reference.extend(drawn_samples(small_wc_graph, 150))
        flat = FlatRRCollection.from_store(reference)
        assert flat.num_sets == reference.num_sets
        assert flat.total_size == reference.total_size
        assert flat.total_edges_examined == reference.total_edges_examined
        for idx in range(reference.num_sets):
            assert np.array_equal(flat.get(idx), reference.get(idx))

    def test_to_collection_round_trip(self, small_wc_graph):
        """Flat -> the oracle's dict store -> flat keeps every array."""
        flat = FlatRRCollection(small_wc_graph.num_nodes)
        flat.extend(drawn_samples(small_wc_graph, 120, seed=3))
        back = RRCollection.from_store(flat)
        assert back.num_sets == flat.num_sets
        assert back.total_size == flat.total_size
        assert back.total_edges_examined == flat.total_edges_examined
        for idx in range(flat.num_sets):
            assert np.array_equal(back.get(idx), flat.get(idx))
        again = FlatRRCollection.from_store(back)
        assert np.array_equal(again.nodes, flat.nodes)
        assert np.array_equal(again.offsets, flat.offsets)

    def test_from_store_accepts_flat(self, small_wc_graph):
        flat = FlatRRCollection(small_wc_graph.num_nodes)
        flat.extend(drawn_samples(small_wc_graph, 40, seed=9))
        copy = FlatRRCollection.from_store(flat)
        assert copy is not flat
        assert np.array_equal(copy.nodes, flat.nodes)


class TestIncrementalAppend:
    def test_waves_match_one_shot(self, small_wc_graph):
        """Appending in DIIMM-style waves gives the same CSR arrays and
        inverted index as building from all samples at once."""
        samples = drawn_samples(small_wc_graph, 200, seed=5)
        one_shot = FlatRRCollection(small_wc_graph.num_nodes)
        one_shot.extend(samples)

        waved = FlatRRCollection(small_wc_graph.num_nodes)
        cut_a, cut_b = 70, 150
        waved.extend(samples[:cut_a])
        # Interleave reads so the index is rebuilt mid-growth.
        assert waved.num_sets == cut_a
        waved.coverage_counts()
        waved.extend(samples[cut_a:cut_b])
        waved.sets_containing(0)
        waved.extend(samples[cut_b:])

        assert np.array_equal(waved.nodes, one_shot.nodes)
        assert np.array_equal(waved.offsets, one_shot.offsets)
        assert np.array_equal(waved.inv_sets, one_shot.inv_sets)
        assert np.array_equal(waved.inv_offsets, one_shot.inv_offsets)

    def test_append_arrays_matches_add(self, small_wc_graph):
        samples = drawn_samples(small_wc_graph, 50, seed=8)
        by_add = FlatRRCollection(small_wc_graph.num_nodes)
        by_add.extend(samples)
        sizes = np.asarray([s.nodes.size for s in samples], dtype=np.int64)
        offsets = np.zeros(sizes.size + 1, dtype=np.int64)
        np.cumsum(sizes, out=offsets[1:])
        nodes = np.concatenate([s.nodes for s in samples]).astype(np.int32)
        edges = sum(s.edges_examined for s in samples)
        by_batch = FlatRRCollection(small_wc_graph.num_nodes)
        by_batch.append_arrays(nodes, offsets, edges_examined=edges)
        assert np.array_equal(by_batch.nodes, by_add.nodes)
        assert np.array_equal(by_batch.offsets, by_add.offsets)
        assert by_batch.total_edges_examined == by_add.total_edges_examined

    def test_append_arrays_rejects_bad_offsets(self):
        flat = FlatRRCollection(4)
        with pytest.raises(ValueError, match="offsets"):
            flat.append_arrays(np.asarray([0, 1], dtype=np.int32), np.asarray([0, 1]))


class TestInvertedIndexAgreement:
    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_index_matches_reference_node_for_node(self, small_wc_graph, model):
        samples = drawn_samples(small_wc_graph, 180, seed=11, model=model)
        reference = RRCollection(small_wc_graph.num_nodes)
        reference.extend(samples)
        flat = FlatRRCollection(small_wc_graph.num_nodes)
        flat.extend(samples)
        for node in range(small_wc_graph.num_nodes):
            assert flat.sets_containing(node).tolist() == reference.sets_containing(node)

    def test_coverage_views_match_reference(self, small_wc_graph):
        samples = drawn_samples(small_wc_graph, 150, seed=13)
        reference = RRCollection(small_wc_graph.num_nodes)
        reference.extend(samples)
        flat = FlatRRCollection(small_wc_graph.num_nodes)
        flat.extend(samples)
        assert np.array_equal(flat.coverage_counts(), reference.coverage_counts())
        assert np.array_equal(
            flat.coverage_counts(start=60), reference.coverage_counts(start=60)
        )
        seeds = [0, 5, 9, 9, 400, -3]
        assert flat.coverage_of(seeds) == reference.coverage_of([0, 5, 9])
        assert flat.coverage_of([]) == 0

    def test_out_of_range_node_is_empty(self):
        flat = FlatRRCollection(5)
        flat.add(make_sample([0, 4]))
        assert flat.sets_containing(7).size == 0
        assert flat.sets_containing(4).tolist() == [0]


class TestValidationAndProtocol:
    def test_invalid_num_nodes(self):
        with pytest.raises(ValueError):
            FlatRRCollection(0)

    def test_add_rejects_out_of_range_ids(self):
        flat = FlatRRCollection(3)
        with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
            flat.add(make_sample([1, 3]))
        with pytest.raises(ValueError, match="outside"):
            flat.add(RRSample(nodes=np.asarray([-1], dtype=np.int32), root=0, edges_examined=0))

    def test_add_returns_index(self):
        flat = FlatRRCollection(3)
        assert flat.add(make_sample([0])) == 0
        assert flat.add(make_sample([1, 2])) == 1

    def test_get_bounds(self):
        flat = FlatRRCollection(3)
        flat.add(make_sample([0, 1]))
        assert flat.get(-1).tolist() == [0, 1]
        with pytest.raises(IndexError):
            flat.get(1)

    def test_iteration_and_len(self):
        flat = FlatRRCollection(5)
        flat.add(make_sample([0, 1]))
        flat.add(make_sample([2]))
        assert len(flat) == 2
        assert [s.tolist() for s in flat] == [[0, 1], [2]]

    def test_empty_set_supported(self):
        flat = FlatRRCollection(3)
        flat.add(RRSample(nodes=np.zeros(0, dtype=np.int32), root=0, edges_examined=0))
        flat.add(make_sample([1]))
        assert flat.get(0).size == 0
        assert flat.coverage_counts().tolist() == [0, 1, 0]

    def test_repr(self):
        flat = FlatRRCollection(3)
        flat.add(make_sample([0]))
        assert "num_sets=1" in repr(flat)

    def test_make_collection_factory(self):
        assert isinstance(make_collection(4, "flat"), FlatRRCollection)
        assert isinstance(make_collection(4, "sketch"), SketchRRCollection)
        for retired in ("reference", "sparse"):
            with pytest.raises(ValueError, match="backend"):
                make_collection(4, retired)


def random_csr(rng, num_nodes, num_sets, max_size=6):
    """A random CSR batch: sorted duplicate-free sets, some of them empty."""
    sizes = rng.integers(0, min(max_size, num_nodes) + 1, size=num_sets)
    sets = [np.sort(rng.choice(num_nodes, size=int(s), replace=False)) for s in sizes]
    offsets = np.zeros(num_sets + 1, dtype=np.int64)
    np.cumsum([s.size for s in sets], out=offsets[1:])
    nodes = np.concatenate(sets).astype(np.int32) if num_sets else np.zeros(0, np.int32)
    return nodes, offsets


def argsort_index(nodes, offsets, num_nodes):
    """The stable-argsort construction build_inverted_index replaced."""
    order = np.argsort(nodes, kind="stable")
    set_ids = np.repeat(np.arange(offsets.size - 1, dtype=np.int64), np.diff(offsets))
    inv_offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    np.cumsum(np.bincount(nodes, minlength=num_nodes), out=inv_offsets[1:])
    return set_ids[order], inv_offsets


class TestBuildInvertedIndex:
    @pytest.mark.parametrize(
        "num_nodes,num_sets",
        [(1, 1), (1, 9), (7, 1), (7, 0), (2, 2), (40, 33), (300, 64), (300, 65), (5, 500)],
    )
    def test_equals_stable_argsort_oracle(self, num_nodes, num_sets):
        rng = np.random.default_rng(1000 * num_nodes + num_sets)
        for __ in range(5):
            nodes, offsets = random_csr(rng, num_nodes, num_sets)
            inv_sets, inv_offsets = build_inverted_index(nodes, offsets, num_nodes)
            want_sets, want_offsets = argsort_index(nodes, offsets, num_nodes)
            assert inv_sets.dtype == inv_offsets.dtype == np.int64
            assert np.array_equal(inv_sets, want_sets)
            assert np.array_equal(inv_offsets, want_offsets)

    def test_tombstoned_store_matches_oracle(self):
        rng = np.random.default_rng(21)
        nodes, offsets = random_csr(rng, 30, 50)
        store = FlatRRCollection(30)
        store.append_arrays(nodes, offsets)
        store.invalidate([0, 7, 8, 49])
        want_sets, want_offsets = argsort_index(store.nodes, store.offsets, 30)
        assert np.array_equal(store.inv_sets, want_sets)
        assert np.array_equal(store.inv_offsets, want_offsets)

    def test_key_width_check_is_a_function_of_two_ints(self):
        # 31 node bits + 32 set bits = 63: the widest key that fits.
        assert _set_id_bits(2**31, 2**32) == 32
        assert _set_id_bits(2**31, 2**32 - 5) == 32
        assert _set_id_bits(1, 2**63) == 63
        assert _set_id_bits(5, 0) == _set_id_bits(5, 1) == 0
        for num_nodes, num_sets in [(2**31, 2**32 + 1), (2**31 - 1, 2**33), (2, 2**63 + 1)]:
            with pytest.raises(ValueError, match="63 bits"):
                _set_id_bits(num_nodes, num_sets)

    def test_index_is_built_by_the_first_read_that_needs_it(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return build_inverted_index(*args)

        monkeypatch.setattr(flat_module, "build_inverted_index", counting)
        rng = np.random.default_rng(4)
        store = FlatRRCollection(25)
        store.append_arrays(*random_csr(rng, 25, 40))
        # Forward-only reads — what coverage ingest does — sort nothing,
        # and nbytes() prices the index without building it.
        store.coverage_counts()
        store.get(3)
        priced = store.nbytes()
        assert not calls
        store.sets_containing(2)
        store.coverage_of([1, 2])
        store.affected_sets(np.asarray([3]))
        assert len(calls) == 1
        held = sum(
            a.nbytes
            for a in (store.nodes, store.offsets, store.inv_sets, store.inv_offsets)
        ) + 8 * (store.num_sets + 1)
        assert priced == store.nbytes() == held
        # One more wave, one more build — by the read, not the append.
        store.append_arrays(*random_csr(rng, 25, 10))
        store.coverage_counts(start=40)
        assert len(calls) == 1
        assert store.inv_sets.size == store.total_size
        assert len(calls) == 2


class TestPrefixViewCutsTheStoreIndex:
    """A view owns no index: its answers are the store's rows cut at the
    limit, and must equal a cold store holding only the first ``limit``
    sets — for every limit, after growth, and across a repair."""

    @staticmethod
    def cold_prefix(store, limit):
        cold = FlatRRCollection(store.num_nodes)
        cold.append_arrays(
            store.nodes[: store.offsets[limit]].copy(), store.offsets[: limit + 1].copy()
        )
        return cold

    def assert_every_limit_matches(self, store, rng):
        for limit in range(store.num_sets + 1):
            view = FlatPrefixView(store, limit)
            cold = self.cold_prefix(store, limit)
            for node in range(store.num_nodes):
                assert np.array_equal(
                    view.sets_containing(node), cold.sets_containing(node)
                )
            seeds = rng.choice(store.num_nodes, size=3, replace=False).tolist()
            assert view.coverage_of(seeds) == cold.coverage_of(seeds)
            assert view.coverage_of([]) == 0
            start = int(rng.integers(0, limit + 1))
            for begin in (0, start):
                assert np.array_equal(
                    view.coverage_counts(start=begin), cold.coverage_counts(start=begin)
                )

    def test_view_holds_no_index_state(self):
        view = FlatPrefixView(FlatRRCollection(4), 0)
        assert set(vars(view)) == {"_store", "_limit"}

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_limit_before_and_after_growth_and_repair(self, seed):
        rng = np.random.default_rng(seed)
        num_nodes = int(rng.integers(3, 15))
        store = FlatRRCollection(num_nodes)
        store.append_arrays(*random_csr(rng, num_nodes, int(rng.integers(1, 30))))
        self.assert_every_limit_matches(store, rng)

        held = FlatPrefixView(store, store.num_sets // 2)
        before = [held.sets_containing(v).copy() for v in range(num_nodes)]
        store.append_arrays(*random_csr(rng, num_nodes, int(rng.integers(1, 20))))
        # The view taken before the growth still answers for its prefix.
        for node in range(num_nodes):
            assert np.array_equal(held.sets_containing(node), before[node])
        self.assert_every_limit_matches(store, rng)

        ids = np.unique(rng.integers(0, store.num_sets, size=4))
        nodes, offsets = random_csr(rng, num_nodes, ids.size)
        fresh = np.zeros(ids.size, dtype=np.int64)
        store.replace_sets(ids, FlatBatch(nodes, offsets, fresh - 1, fresh))
        self.assert_every_limit_matches(store, rng)

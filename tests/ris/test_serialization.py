"""Unit tests for RR-collection persistence."""

import numpy as np
import pytest

from repro.coverage import greedy_max_coverage
from repro.ris import (
    FORMAT_MAGIC,
    FORMAT_VERSION,
    CheckpointFormatError,
    FlatRRCollection,
    load_collection,
    make_sampler,
    save_collection,
)
from tests.oracle import RRCollection


@pytest.fixture
def populated(small_wc_graph, rng):
    sampler = make_sampler(small_wc_graph, "ic")
    collection = FlatRRCollection(small_wc_graph.num_nodes)
    collection.extend(sampler.sample_many(200, rng))
    return collection


class TestRoundtrip:
    def test_membership_preserved(self, populated, tmp_path):
        path = tmp_path / "coll.npz"
        save_collection(populated, path)
        loaded = load_collection(path)
        assert loaded.num_sets == populated.num_sets
        assert loaded.num_nodes == populated.num_nodes
        for idx in range(populated.num_sets):
            assert np.array_equal(loaded.get(idx), populated.get(idx))

    def test_accounting_preserved(self, populated, tmp_path):
        path = tmp_path / "coll.npz"
        save_collection(populated, path)
        loaded = load_collection(path)
        assert loaded.total_size == populated.total_size
        assert loaded.total_edges_examined == populated.total_edges_examined

    def test_inverted_index_rebuilt(self, populated, tmp_path):
        path = tmp_path / "coll.npz"
        save_collection(populated, path)
        loaded = load_collection(path)
        counts_before = populated.coverage_counts()
        counts_after = loaded.coverage_counts()
        assert np.array_equal(counts_before, counts_after)

    def test_seed_selection_replays_identically(self, populated, tmp_path):
        """The checkpoint use case: greedy on the loaded collection gives
        the exact same seeds as on the original."""
        path = tmp_path / "coll.npz"
        save_collection(populated, path)
        loaded = load_collection(path)
        original = greedy_max_coverage([populated], 5)
        replayed = greedy_max_coverage([loaded], 5)
        assert original.seeds == replayed.seeds
        assert original.coverage == replayed.coverage

    def test_empty_collection(self, tmp_path):
        path = tmp_path / "empty.npz"
        save_collection(FlatRRCollection(10), path)
        loaded = load_collection(path)
        assert loaded.num_sets == 0
        assert loaded.num_nodes == 10


class TestFlatRoundtrip:
    def test_save_flat_load_reference(self, populated, tmp_path):
        """A loaded checkpoint reads like the oracle's dict store of the
        same sets: set for set, and node for node in the inverted index."""
        path = tmp_path / "flat.npz"
        save_collection(populated, path)
        loaded = load_collection(path)
        reference = RRCollection.from_store(populated)
        assert loaded.num_sets == reference.num_sets
        for idx in range(reference.num_sets):
            assert np.array_equal(loaded.get(idx), reference.get(idx))
        for node in range(loaded.num_nodes):
            assert loaded.sets_containing(node).tolist() == reference.sets_containing(node)

    def test_save_reference_load_flat(self, populated, tmp_path):
        """A store copied from the oracle's dict store round-trips with the
        oracle's accounting and counts."""
        reference = RRCollection.from_store(populated)
        path = tmp_path / "ref.npz"
        save_collection(FlatRRCollection.from_store(reference), path)
        loaded = load_collection(path)
        assert isinstance(loaded, FlatRRCollection)
        assert loaded.num_sets == reference.num_sets
        assert loaded.total_edges_examined == reference.total_edges_examined
        assert np.array_equal(loaded.coverage_counts(), reference.coverage_counts())

    def test_empty_flat_collection(self, tmp_path):
        path = tmp_path / "empty.npz"
        save_collection(FlatRRCollection(10), path)
        loaded = load_collection(path)
        assert loaded.num_sets == 0
        assert loaded.num_nodes == 10


class TestFormatHeader:
    """Magic/version validation: foreign or stale files fail loudly."""

    @staticmethod
    def _rewrite(path, out, drop=(), **overrides):
        with np.load(path) as data:
            arrays = {name: data[name] for name in data.files if name not in drop}
        arrays.update(overrides)
        np.savez(out, **arrays)

    @pytest.fixture
    def saved(self, populated, tmp_path):
        path = tmp_path / "coll.npz"
        save_collection(populated, path)
        return path

    def test_header_fields_written(self, saved):
        with np.load(saved) as data:
            assert str(data["magic"]) == FORMAT_MAGIC
            assert int(data["version"]) == FORMAT_VERSION

    def test_both_loaders_round_trip_header(self, populated, tmp_path):
        """The one loader, on a store and on a reloaded copy of it."""
        path = tmp_path / "rt.npz"
        save_collection(populated, path)
        again = tmp_path / "again.npz"
        save_collection(load_collection(path), again)
        for saved in (path, again):
            assert load_collection(saved).num_sets == populated.num_sets

    def test_missing_magic_rejected(self, saved, tmp_path):
        foreign = tmp_path / "foreign.npz"
        self._rewrite(saved, foreign, drop=("magic",))
        with pytest.raises(CheckpointFormatError, match="not an RR-collection checkpoint"):
            load_collection(foreign)

    def test_wrong_magic_rejected(self, saved, tmp_path):
        foreign = tmp_path / "foreign.npz"
        self._rewrite(saved, foreign, magic=np.asarray("someone-elses-format"))
        with pytest.raises(CheckpointFormatError, match="not an RR-collection checkpoint"):
            load_collection(foreign)

    def test_version_mismatch_rejected(self, saved, tmp_path):
        stale = tmp_path / "stale.npz"
        self._rewrite(saved, stale, version=np.int64(FORMAT_VERSION + 1))
        with pytest.raises(CheckpointFormatError, match="format version"):
            load_collection(stale)

    def test_corrupt_file_rejected(self, tmp_path):
        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"\x00\x01 not a zip archive")
        with pytest.raises(CheckpointFormatError, match="corrupt or truncated"):
            load_collection(garbage)

    def test_error_is_a_value_error(self, tmp_path):
        """Callers catching ValueError keep working."""
        garbage = tmp_path / "garbage.npz"
        garbage.write_bytes(b"junk")
        with pytest.raises(ValueError):
            load_collection(garbage)

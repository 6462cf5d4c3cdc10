"""Unit tests for the HyperLogLog sketch coverage backend.

Covers the register arithmetic (hashing, bit lengths, merge algebra),
the estimator's accuracy in both the linear-counting and harmonic
regimes, the per-machine store's append/journal/prune protocol, the
master-side state's ingest-versus-rebuild oracle, and the CELF-style
lazy greedy over register banks.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import SimulatedCluster, make_executor
from repro.coverage.sketch import (
    MAX_PRECISION,
    MIN_PRECISION,
    SketchCoverageState,
    SketchRRCollection,
    _UnionRefresh,
    _alpha,
    _bit_length,
    estimate_bank_degrees,
    hll_estimate,
    hll_relative_error,
    merge_register_updates,
    register_updates,
    sketch_lazy_greedy,
    splitmix64,
)
from repro.ris import make_collection
from tests.oracle import reference_sketch_lazy_greedy


def grow(store, nodes, offsets):
    """Append a CSR wave whose sets examined no edges."""
    offsets = np.asarray(offsets)
    store.append_arrays(nodes, offsets, np.zeros(offsets.size - 1, dtype=np.int64))


class TestRegisterArithmetic:
    def test_splitmix64_is_deterministic_and_spreads(self):
        ids = np.arange(1000, dtype=np.uint64)
        a = splitmix64(ids)
        b = splitmix64(ids)
        np.testing.assert_array_equal(a, b)
        # Sequential inputs must not produce sequential outputs.
        assert np.unique(a).size == 1000
        assert np.abs(np.diff(a.astype(np.float64))).min() > 1

    def test_bit_length_matches_python_exactly(self):
        values = np.array(
            [0, 1, 2, 3, 4, 255, 256, (1 << 53) - 1, 1 << 53, (1 << 53) + 1,
             (1 << 63) - 1, 1 << 63, (1 << 64) - 1],
            dtype=np.uint64,
        )
        expected = [int(v).bit_length() for v in values]
        assert _bit_length(values).tolist() == expected

    def test_register_updates_shapes_and_ranges(self):
        registers, rhos = register_updates(np.arange(5000, dtype=np.uint64), 10)
        assert registers.min() >= 0 and registers.max() < 1024
        # rho is the rank over the remaining 54 bits: 1..55.
        assert rhos.min() >= 1 and rhos.max() <= 55

    def test_merge_register_updates_keeps_max_per_key(self):
        keys = np.array([7, 3, 7, 3, 9], dtype=np.int64)
        rhos = np.array([2, 5, 6, 1, 4], dtype=np.int64)
        merged_keys, merged_rhos = merge_register_updates(keys, rhos)
        assert merged_keys.tolist() == [3, 7, 9]
        assert merged_rhos.tolist() == [5, 6, 4]

    def test_merge_register_updates_empty(self):
        keys, rhos = merge_register_updates(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        )
        assert keys.size == 0 and rhos.size == 0


class TestEstimator:
    def test_small_range_is_near_exact(self):
        row = np.zeros(1024, dtype=np.uint8)
        registers, rhos = register_updates(np.arange(50, dtype=np.uint64), 10)
        np.maximum.at(row, registers, rhos.astype(np.uint8))
        assert hll_estimate(row) == pytest.approx(50, rel=0.08)

    def test_large_range_within_standard_error(self):
        precision, count = 10, 100_000
        row = np.zeros(1 << precision, dtype=np.uint8)
        registers, rhos = register_updates(
            np.arange(count, dtype=np.uint64), precision
        )
        np.maximum.at(row, registers, rhos.astype(np.uint8))
        estimate = hll_estimate(row)
        # 1.04/sqrt(1024) ~ 3.25%; allow 3 standard errors.
        assert abs(estimate - count) / count < 3 * hll_relative_error(precision)

    def test_stacked_rows_estimate_along_last_axis(self):
        bank = np.zeros((3, 256), dtype=np.uint8)
        registers, rhos = register_updates(np.arange(200, dtype=np.uint64), 8)
        np.maximum.at(bank[1], registers, rhos.astype(np.uint8))
        estimates = hll_estimate(bank)
        assert estimates.shape == (3,)
        assert estimates[0] == 0.0 and estimates[2] == 0.0
        assert estimates[1] == pytest.approx(200, rel=3 * hll_relative_error(8))

    def test_estimate_bank_degrees_matches_unchunked(self):
        rng = np.random.default_rng(4)
        bank = rng.integers(0, 12, size=(100, 64), dtype=np.uint8)
        np.testing.assert_allclose(
            estimate_bank_degrees(bank, chunk=7), hll_estimate(bank)
        )

    def test_relative_error_halves_per_two_precision_bits(self):
        assert hll_relative_error(12) == pytest.approx(hll_relative_error(10) / 2)


class TestSketchRRCollection:
    def make_batch(self, rng, num_sets, num_nodes):
        lengths = rng.integers(1, 6, size=num_sets)
        nodes = rng.integers(0, num_nodes, size=int(lengths.sum()))
        offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
        return nodes.astype(np.int64), offsets

    def test_validation(self):
        with pytest.raises(ValueError, match="num_nodes"):
            SketchRRCollection(0)
        with pytest.raises(ValueError, match="precision"):
            SketchRRCollection(10, precision=MIN_PRECISION - 1)
        with pytest.raises(ValueError, match="precision"):
            SketchRRCollection(10, precision=MAX_PRECISION + 1)
        with pytest.raises(ValueError, match="machine_id"):
            SketchRRCollection(10, machine_id=-1)
        store = SketchRRCollection(10)
        with pytest.raises(ValueError, match="offsets"):
            grow(store, np.array([1]), np.array([0, 2]))
        with pytest.raises(ValueError, match="node ids"):
            grow(store, np.array([10]), np.array([0, 1]))
        with pytest.raises(ValueError, match="edges_examined"):
            store.append_arrays(
                np.array([1, 2]), np.array([0, 1, 2]), edges_examined=[1, 2, 3]
            )

    def test_accounting_mirrors_flat_protocol(self):
        store = SketchRRCollection(20, precision=6)
        nodes = np.array([0, 3, 5, 1], dtype=np.int64)
        store.append_arrays(nodes, np.array([0, 3, 4]), edges_examined=[7, 2])
        assert store.num_sets == 2 and len(store) == 2
        assert store.total_size == 4
        assert store.total_edges_examined == 9
        with pytest.raises(ValueError, match="one count per set"):
            store.append_arrays(np.zeros(0, dtype=np.int64), np.array([0]), edges_examined=5)
        store.append_arrays(np.zeros(0, dtype=np.int64), np.array([0]), edges_examined=[])
        assert store.num_sets == 2 and store.total_edges_examined == 9

    def test_add_matches_append_arrays_bit_for_bit(self):
        rng = np.random.default_rng(9)
        nodes, offsets = self.make_batch(rng, 40, 30)
        batched = SketchRRCollection(30, precision=8)
        grow(batched, nodes, offsets)
        one_by_one = SketchRRCollection(30, precision=8)
        for i in range(40):
            grow(one_by_one, nodes[offsets[i] : offsets[i + 1]], [0, offsets[i + 1] - offsets[i]])
        np.testing.assert_array_equal(batched.registers, one_by_one.registers)

    def test_coverage_of_is_a_capped_estimate(self):
        store = SketchRRCollection(5, precision=10)
        # Every set contains node 0; node 4 never appears.
        for _ in range(30):
            grow(store, np.array([0, 1]), np.array([0, 2]))
        assert store.coverage_of([]) == 0.0
        assert store.coverage_of([4]) == 0.0
        assert store.coverage_of([0]) == pytest.approx(30, rel=0.15)
        assert store.coverage_of([0, 1, 4]) <= 30.0

    def test_register_delta_and_journal_pruning(self):
        rng = np.random.default_rng(2)
        store = SketchRRCollection(25, precision=6)
        nodes, offsets = self.make_batch(rng, 10, 25)
        grow(store, nodes, offsets)
        wave1_keys, wave1_rhos = store.register_delta(start=0)
        nodes, offsets = self.make_batch(rng, 15, 25)
        grow(store, nodes, offsets)
        # Replaying from 0 must cover both waves' registers.
        both_keys, _ = store.register_delta(start=0)
        assert set(wave1_keys.tolist()) <= set(both_keys.tolist())
        # Replaying the merged delta reproduces the bank exactly.
        replayed = np.zeros_like(store.registers)
        keys, rhos = store.register_delta(start=0)
        replayed[keys] = rhos.astype(np.uint8)
        np.testing.assert_array_equal(replayed, store.registers)
        # Prune, then aligned deltas still work and misaligned ones raise.
        nbytes_before = store.nbytes()
        store.prune_journal(upto=10)
        assert store.nbytes() <= nbytes_before
        tail_keys, _ = store.register_delta(start=10)
        assert tail_keys.size > 0
        empty_keys, empty_rhos = store.register_delta(start=store.num_sets)
        assert empty_keys.size == 0 and empty_rhos.size == 0
        with pytest.raises(ValueError, match="register journal cannot replay"):
            store.register_delta(start=0)
        with pytest.raises(ValueError, match="register journal cannot replay"):
            store.register_delta(start=13)
        store.prune_journal()
        assert store.nbytes() == store.registers.nbytes

    def test_machine_ids_decorrelate_identical_local_waves(self):
        nodes = np.arange(10, dtype=np.int64)
        offsets = np.array([0, 10], dtype=np.int64)
        a = SketchRRCollection(10, precision=10, machine_id=0)
        b = SketchRRCollection(10, precision=10, machine_id=1)
        grow(a, nodes, offsets)
        grow(b, nodes, offsets)
        assert not np.array_equal(a.registers, b.registers)

    def test_make_collection_dispatch(self):
        store = make_collection(12, "sketch", machine_id=2, sketch_precision=7)
        assert isinstance(store, SketchRRCollection)
        assert store.machine_id == 2 and store.precision == 7


class TestSketchCoverageState:
    def fill_stores(self, rng, stores, waves, sets_per_wave):
        for _ in range(waves):
            for store in stores:
                lengths = rng.integers(1, 5, size=sets_per_wave)
                nodes = rng.integers(0, store.num_nodes, size=int(lengths.sum()))
                offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
                grow(store, nodes.astype(np.int64), offsets)

    def test_validation(self):
        with pytest.raises(ValueError, match="num_nodes"):
            SketchCoverageState(0, 1)
        with pytest.raises(ValueError, match="num_machines"):
            SketchCoverageState(5, 0)
        with pytest.raises(ValueError, match="precision"):
            SketchCoverageState(5, 1, precision=2)
        state = SketchCoverageState(5, 2)
        with pytest.raises(ValueError, match="expected 2 stores"):
            state.ingest(None, [SketchRRCollection(5)])

    @pytest.mark.parametrize("communicate", [True, False])
    def test_incremental_ingest_matches_rebuild_oracle(self, communicate):
        rng = np.random.default_rng(17)
        num_nodes, machines = 40, 3
        cluster = SimulatedCluster(machines, seed=0)
        executor = make_executor("simulated", cluster)
        stores = [
            SketchRRCollection(num_nodes, precision=8, machine_id=i)
            for i in range(machines)
        ]
        state = SketchCoverageState(num_nodes, machines, precision=8)
        try:
            self.fill_stores(rng, stores, waves=1, sets_per_wave=20)
            state.ingest(executor, stores, communicate=communicate)
            np.testing.assert_array_equal(
                state.registers, state.rebuild_from(stores)
            )
            assert state.watermarks == [20] * machines
            # The journal is pruned after ingest: stores hold only banks.
            assert all(s.nbytes() == s.registers.nbytes for s in stores)
            # Incremental waves keep matching the full-rebuild oracle.
            self.fill_stores(rng, stores, waves=2, sets_per_wave=15)
            state.ingest(executor, stores, communicate=communicate)
            np.testing.assert_array_equal(
                state.registers, state.rebuild_from(stores)
            )
            assert state.watermarks == [50] * machines
            # No-op ingest when nothing grew.
            before = state.registers.copy()
            state.ingest(executor, stores, communicate=communicate)
            np.testing.assert_array_equal(state.registers, before)
        finally:
            executor.close()

    def test_gather_phase_charges_delta_bytes(self):
        rng = np.random.default_rng(23)
        cluster = SimulatedCluster(2, seed=0)
        executor = make_executor("simulated", cluster)
        stores = [
            SketchRRCollection(30, precision=6, machine_id=i) for i in range(2)
        ]
        state = SketchCoverageState(30, 2, precision=6)
        try:
            self.fill_stores(rng, stores, waves=1, sets_per_wave=25)
            state.ingest(executor, stores, label="wave-0")
            gathers = [
                p for p in executor.metrics.phases if p.label == "wave-0/gather"
            ]
            assert len(gathers) == 1
            assert executor.metrics.total_bytes > 0
        finally:
            executor.close()

    def test_estimate_from_merged_bank(self):
        stores = [SketchRRCollection(6, precision=10, machine_id=i) for i in range(2)]
        for store in stores:
            for _ in range(20):
                grow(store, np.array([0, 2]), np.array([0, 2]))
        state = SketchCoverageState(6, 2, precision=10)
        state.registers = state.rebuild_from(stores)
        assert state.estimate([]) == 0.0
        assert state.estimate([0]) == pytest.approx(40, rel=0.15)


class TestSketchLazyGreedy:
    def bank_for(self, rows, precision=10):
        """A bank where node i covers the distinct id-set ``rows[i]``."""
        num_registers = 1 << precision
        bank = np.zeros((len(rows), num_registers), dtype=np.uint8)
        for i, ids in enumerate(rows):
            if len(ids):
                registers, rhos = register_updates(
                    np.asarray(ids, dtype=np.uint64), precision
                )
                np.maximum.at(bank[i], registers, rhos.astype(np.uint8))
        return bank

    def test_picks_dominating_node_first(self):
        big = list(range(400))
        bank = self.bank_for([big[:50], big, big[200:260], []])
        result = sketch_lazy_greedy(bank, 2, num_elements=400)
        assert result.seeds[0] == 1
        assert result.coverage == pytest.approx(400, rel=0.15)
        assert len(result.marginals) == 2
        assert result.marginals[0] >= result.marginals[1]

    def test_ties_break_to_lowest_node_id(self):
        shared = list(range(300))
        bank = self.bank_for([[], shared, shared])
        result = sketch_lazy_greedy(bank, 1, num_elements=300)
        assert result.seeds[0] == 1

    def test_pads_when_k_exceeds_nodes(self):
        bank = self.bank_for([list(range(100)), list(range(100, 160))])
        result = sketch_lazy_greedy(bank, 5, num_elements=160)
        assert sorted(result.seeds) == [0, 1]
        assert len(result.marginals) == 2

    def test_guard_smaller_than_n_still_finds_best(self):
        rows = [list(range(i * 10, i * 10 + 5)) for i in range(30)]
        rows[17] = list(range(2000))  # the clear winner, far from index 0
        bank = self.bank_for(rows)
        assert sketch_lazy_greedy(bank, 1, 2000, guard=2).seeds[0] == 17

    def test_validation(self):
        bank = self.bank_for([[1, 2]])
        with pytest.raises(ValueError, match="k must be"):
            sketch_lazy_greedy(bank, 0, 2)
        with pytest.raises(ValueError, match="guard"):
            sketch_lazy_greedy(bank, 1, 2, guard=0)
        with pytest.raises(ValueError, match="2-D"):
            sketch_lazy_greedy(bank[0], 1, 2)

    def test_pure_function_of_the_bank(self):
        rng = np.random.default_rng(5)
        rows = [
            rng.integers(0, 5000, size=rng.integers(0, 400)).tolist()
            for _ in range(25)
        ]
        bank = self.bank_for(rows)
        first = sketch_lazy_greedy(bank, 6, 5000)
        second = sketch_lazy_greedy(bank.copy(), 6, 5000)
        assert first.seeds == second.seeds
        assert first.coverage == second.coverage
        assert first.marginals == second.marginals


def scalar_estimate(row) -> float:
    """The estimator written out in Python floats, one register at a time."""
    m = len(row)
    total = 0.0
    for r in row:
        total += 2.0 ** -int(r)  # exact: see TestStoredDegrees
    raw = _alpha(m) * m * m / total
    zeros = sum(1 for r in row if r == 0)
    if raw <= 2.5 * m and zeros > 0:
        return m * math.log(m / zeros)
    return raw


def mixed_bank(rng, rows, m, top=12):
    """Rows from nearly empty (linear counting) to saturated (raw)."""
    bank = rng.integers(1, top, size=(rows, m)).astype(np.uint8)
    fill = np.linspace(0.0, 1.0, rows)[:, None]
    bank[rng.random((rows, m)) >= fill] = 0
    return bank


class TestTableEstimator:
    @pytest.mark.parametrize("m", [16, 64, 256, 2048])
    def test_batched_equals_single_row_on_both_branches(self, m):
        bank = mixed_bank(np.random.default_rng(m), 48, m)
        batched = hll_estimate(bank)
        singles = [hll_estimate(row) for row in bank]
        assert all(type(value) is float for value in singles)
        assert batched.tolist() == singles
        assert batched.tolist() == [scalar_estimate(row) for row in bank]
        # Both the linear-counting and the raw branch were taken.
        zeros = (bank == 0).sum(axis=1)
        linear = [m * math.log(m / z) if z else None for z in zeros.tolist()]
        taken = [value == want for value, want in zip(singles, linear)]
        assert any(taken) and not all(taken)

    def test_every_zero_count_reads_the_scalar_logarithm(self):
        # A vectorized np.log differs from math.log in the last bit for a
        # few zero counts (9 of the 2,048 here); a row's estimate must not
        # depend on whether it was estimated alone, in a batch or in a bank.
        m = 1 << 11
        bank = np.zeros((m, m), dtype=np.uint8)
        bank[np.triu_indices(m, 1)] = 1  # row i has i + 1 zero registers
        got = estimate_bank_degrees(bank)
        assert got.tolist() == [m * math.log(m / z) for z in range(1, m + 1)]
        assert got[::97].tolist() == [hll_estimate(row) for row in bank[::97]]

    def test_other_integer_dtypes_are_widened_when_they_fit(self):
        row = np.random.default_rng(0).integers(0, 40, size=64)
        assert row.dtype == np.int64
        assert hll_estimate(row) == hll_estimate(row.astype(np.uint8))
        assert hll_estimate(row.astype(np.int16)) == hll_estimate(row.astype(np.uint8))

    def test_values_a_register_cannot_hold_are_refused(self):
        row = np.zeros(16, dtype=np.int64)
        row[3] = 256
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            hll_estimate(row)
        row[3] = -1
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            hll_estimate(row)
        with pytest.raises(TypeError, match="integers"):
            hll_estimate(np.zeros(16, dtype=np.float64))
        with pytest.raises(TypeError, match="integers"):
            hll_estimate(np.zeros(16, dtype=bool))

    def test_store_and_state_reads_use_the_same_estimator(self):
        stores = [SketchRRCollection(6, precision=6, machine_id=i) for i in range(2)]
        rng = np.random.default_rng(8)
        for store in stores:
            for _ in range(30):
                grow(store, rng.integers(0, 6, size=2), np.array([0, 2]))
        state = SketchCoverageState(6, 2, precision=6)
        executor = make_executor("simulated", SimulatedCluster(2, seed=0))
        state.ingest(executor, stores)
        union = np.maximum(state.bank()[1], state.bank()[4])
        assert state.estimate([1, 4]) == scalar_estimate(union)
        own = np.maximum(stores[0].register_bank()[1], stores[0].register_bank()[4])
        assert stores[0].coverage_of([1, 4]) == min(scalar_estimate(own), 30.0)


@st.composite
def register_deltas(draw, num_nodes, precision, max_rho):
    """A few sorted-unique ``(keys, rhos)`` deltas, as machines ship them."""
    size = num_nodes << precision
    deltas = []
    for _ in range(draw(st.integers(1, 6))):
        keys = draw(st.lists(st.integers(0, size - 1), max_size=24, unique=True))
        keys = np.array(sorted(keys), dtype=np.int64)
        rhos = draw(
            st.lists(st.integers(1, max_rho), min_size=keys.size, max_size=keys.size)
        )
        deltas.append((keys, np.array(rhos, dtype=np.int64)))
    return deltas


class TestStoredDegrees:
    """``SketchCoverageState.degrees()`` is the bank pass, bit for bit.

    The state's harmonic sums are updated term by term, the oracle adds a
    row pairwise; both are *exact* — hence equal — while every partial sum
    is a multiple of ``2**-r_max`` below ``2**precision``, i.e. while
    ``precision + r_max <= 53``.  Past that the state answers with the
    bank pass itself.
    """

    @settings(max_examples=80, deadline=None)
    @given(deltas=register_deltas(num_nodes=5, precision=4, max_rho=49))
    def test_equal_after_any_interleaving_of_deltas(self, deltas):
        state = SketchCoverageState(5, 3, precision=4)
        bank = np.zeros(5 << 4, dtype=np.uint8)
        for keys, rhos in deltas:
            state._apply(keys, rhos)
            bank[keys] = np.maximum(bank[keys], rhos.astype(np.uint8))
            np.testing.assert_array_equal(state.registers, bank)
            np.testing.assert_array_equal(
                state.degrees(), estimate_bank_degrees(state.bank())
            )
        # 4 + 49 = 53: still inside the exactness condition.
        assert state.precision + state._largest_register <= 53
        np.testing.assert_array_equal(
            state._harmonic, np.ldexp(1.0, -state.bank().astype(np.int64)).sum(axis=1)
        )
        np.testing.assert_array_equal(
            state._zero_registers, (state.bank() == 0).sum(axis=1)
        )

    @settings(max_examples=30, deadline=None)
    @given(deltas=register_deltas(num_nodes=4, precision=4, max_rho=61))
    def test_registers_past_the_exactness_condition_take_the_bank_pass(self, deltas):
        state = SketchCoverageState(4, 2, precision=4)
        for keys, rhos in deltas:
            state._apply(keys, rhos)
            np.testing.assert_array_equal(
                state.degrees(), estimate_bank_degrees(state.bank())
            )

    def test_equal_through_real_ingests_in_any_machine_order(self):
        rng = np.random.default_rng(31)
        num_nodes, machines = 30, 3
        executor = make_executor("simulated", SimulatedCluster(machines, seed=0))
        stores = [
            SketchRRCollection(num_nodes, precision=7, machine_id=i)
            for i in range(machines)
        ]
        state = SketchCoverageState(num_nodes, machines, precision=7)
        for wave in range(6):
            for store in stores:
                if rng.random() < 0.7:  # machines grow at different paces
                    lengths = rng.integers(1, 6, size=int(rng.integers(1, 40)))
                    nodes = rng.integers(0, num_nodes, size=int(lengths.sum()))
                    grow(store, nodes, np.concatenate([[0], np.cumsum(lengths)]))
            state.ingest(executor, stores, communicate=bool(wave % 2))
            np.testing.assert_array_equal(
                state.degrees(), estimate_bank_degrees(state.bank())
            )
        fresh = state.degrees()
        fresh[:] = -1.0  # a copy: the state's own sums are untouched
        assert state.degrees().min() >= 0.0

    def test_repeated_or_unsorted_keys_are_refused(self):
        state = SketchCoverageState(4, 1, precision=4)
        with pytest.raises(ValueError, match="strictly ascending"):
            state._apply(np.array([3, 3]), np.array([2, 5]))
        with pytest.raises(ValueError, match="strictly ascending"):
            state._apply(np.array([9, 3]), np.array([2, 5]))
        with pytest.raises(ValueError, match=r"\[0, 255\]"):
            state._apply(np.array([3]), np.array([256]))
        assert not state.registers.any()
        state._apply(np.array([3, 9]), np.array([2, 5]))
        state._apply(np.array([3, 9]), np.array([1, 5]))  # nothing raised: a no-op
        assert state.registers[[3, 9]].tolist() == [2, 5]


class TestLazyGreedyWithStoredDegrees:
    @pytest.fixture(scope="class")
    def ingested(self):
        rng = np.random.default_rng(12)
        num_nodes, machines = 60, 3
        executor = make_executor("simulated", SimulatedCluster(machines, seed=0))
        stores = [
            SketchRRCollection(num_nodes, precision=8, machine_id=i)
            for i in range(machines)
        ]
        state = SketchCoverageState(num_nodes, machines, precision=8)
        for _ in range(3):
            for store in stores:
                lengths = rng.integers(1, 9, size=150)
                # Skewed membership: a few hubs, a long tail of ties.
                nodes = (rng.pareto(1.0, size=int(lengths.sum())) * 4).astype(np.int64)
                grow(store, nodes % num_nodes, np.concatenate([[0], np.cumsum(lengths)]))
            state.ingest(executor, stores)
        return state, sum(store.num_sets for store in stores)

    @pytest.mark.parametrize("guard", [1, 2, 8, 60])
    def test_same_selection_with_and_without_them(self, ingested, guard):
        state, total = ingested
        degrees = state.degrees()
        kept = degrees.copy()
        plain = sketch_lazy_greedy(state.bank(), 12, total, guard=guard)
        stored = sketch_lazy_greedy(state.bank(), 12, total, guard=guard, degrees=degrees)
        assert stored.seeds == plain.seeds
        assert stored.marginals == plain.marginals
        assert stored.coverage == plain.coverage
        np.testing.assert_array_equal(degrees, kept)
        assert plain == reference_sketch_lazy_greedy(state.bank(), 12, total, guard)

    def test_degrees_must_cover_every_node(self, ingested):
        state, total = ingested
        with pytest.raises(ValueError, match="one entry per node"):
            sketch_lazy_greedy(state.bank(), 3, total, degrees=state.degrees()[:-1])


def tied_bank(rng, n, precision, distinct=12):
    """``n`` rows copied from ``distinct`` sketches of random id sets.

    Copies tie exactly, and a third of the rows keep only some of their
    registers, so once a row covering them is picked their gain clamps
    to zero: heavy ties at every level of the order.
    """
    m = 1 << precision
    base = np.zeros((distinct, m), dtype=np.uint8)
    for row in base:
        ids = rng.choice(40 * m, size=int(rng.integers(1, 6 * m)), replace=False)
        registers, rhos = register_updates(ids.astype(np.uint64), precision)
        np.maximum.at(row, registers, rhos.astype(np.uint8))
    bank = base[rng.integers(0, distinct, size=n)]
    thinned = rng.random(n) < 1 / 3
    bank[thinned] *= (rng.random((int(thinned.sum()), m)) < 0.5).astype(np.uint8)
    return bank


def past_exact_bound(bank, rng, precision, count=40):
    """``bank`` with ``count`` registers raised past ``53 - precision``."""
    bank = bank.copy()
    rows = rng.integers(0, bank.shape[0], size=count)
    registers = rng.integers(0, bank.shape[1], size=count)
    bank[rows, registers] = rng.integers(54 - precision, 64 - precision, size=count)
    return bank


def given_degrees(bank, mode):
    """No degrees, the bank's own estimates, or coarse ones full of ties."""
    if mode is None:
        return None
    degrees = estimate_bank_degrees(bank)
    return degrees if mode == "estimates" else np.floor(degrees / 40.0) * 40.0


class TestBatchedWalkEqualsGuardLoop:
    """The ordered walk with batched incremental estimates makes the
    decisions of the guard loop in :mod:`tests.oracle` — the best
    ``guard`` re-ranked by (−gain, lowest id) on every pass, one dense
    estimate per stale row — and returns its seeds, marginals and
    coverage exactly."""

    N, PRECISION = 150, 6

    @pytest.fixture(scope="class")
    def banks(self):
        rng = np.random.default_rng(39)
        tied = tied_bank(rng, self.N, self.PRECISION)
        return {
            "tied": tied,
            "past-bound": past_exact_bound(tied, rng, self.PRECISION),
        }

    @pytest.mark.parametrize("kind", ["tied", "past-bound"])
    @pytest.mark.parametrize("degrees", [None, "estimates", "coarse"])
    @pytest.mark.parametrize("guard", [1, 2, 8, N + 3])
    def test_same_seeds_marginals_and_coverage(self, banks, kind, degrees, guard):
        bank = banks[kind]
        given = given_degrees(bank, degrees)
        got = sketch_lazy_greedy(bank, 30, 5000, guard=guard, degrees=given)
        assert got == reference_sketch_lazy_greedy(bank, 30, 5000, guard, given)
        if kind == "tied":
            assert 0.0 in got.marginals  # zero-clamped gains were reached

    @pytest.mark.parametrize("degrees", [None, "coarse"])
    @pytest.mark.parametrize("guard", [1, 2, 8, 43])
    def test_k_at_least_n_picks_every_node(self, degrees, guard):
        rng = np.random.default_rng(guard)
        bank = tied_bank(rng, 40, self.PRECISION, distinct=5)
        given = given_degrees(bank, degrees)
        got = sketch_lazy_greedy(bank, 45, 900, guard=guard, degrees=given)
        assert sorted(got.seeds) == list(range(40))
        assert got == reference_sketch_lazy_greedy(bank, 45, 900, guard, given)

    @pytest.mark.parametrize("kind", ["tied", "past-bound"])
    def test_refresh_is_the_dense_estimate_bit_for_bit(self, banks, kind):
        bank = banks[kind]
        union = _UnionRefresh(bank)
        for node in (3, 77, 140, 12):
            got = union.estimates(list(range(self.N)))
            dense = hll_estimate(np.maximum(union.current, bank))
            assert got.tolist() == dense.tolist()
            union.add(node)
        assert union.exact == (kind == "tied")

"""Unit tests for the lazy bucket greedy and its naive oracle."""

import heapq
from importlib import import_module

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coverage import (
    BucketQueue,
    from_elements,
    split_elements,
    greedy_max_coverage,
    naive_greedy_max_coverage,
)

import numpy as np


class TestBucketQueue:
    def test_pops_max_count(self):
        counts = np.array([1, 5, 3], dtype=np.int64)
        queue = BucketQueue(counts)
        assert queue.pop_max() == 1

    def test_ties_break_to_lowest_id(self):
        counts = np.array([4, 4, 4], dtype=np.int64)
        queue = BucketQueue(counts)
        assert queue.pop_max() == 0
        assert queue.pop_max() == 1

    def test_lazy_refile(self):
        counts = np.array([5, 4], dtype=np.int64)
        queue = BucketQueue(counts)
        counts[0] = 1  # stale record: 0 sits in bucket 5 but is worth 1
        assert queue.pop_max() == 1
        assert queue.pop_max() == 0

    def test_exhaustion_returns_none(self):
        counts = np.array([1], dtype=np.int64)
        queue = BucketQueue(counts)
        assert queue.pop_max() == 0
        assert queue.pop_max() is None

    def test_zero_counts_never_enqueued(self):
        counts = np.array([0, 0, 2], dtype=np.int64)
        queue = BucketQueue(counts)
        assert queue.pop_max() == 2
        assert queue.pop_max() is None

    def test_candidates_restriction(self):
        counts = np.array([9, 5, 7], dtype=np.int64)
        queue = BucketQueue(counts, candidates=[1, 2])
        assert queue.pop_max() == 2
        assert queue.pop_max() == 1
        assert queue.pop_max() is None

    def test_count_decayed_to_zero_skipped(self):
        counts = np.array([3, 2], dtype=np.int64)
        queue = BucketQueue(counts)
        counts[0] = 0
        assert queue.pop_max() == 1
        assert queue.pop_max() is None


class LoopBuiltQueue:
    """Algorithm 1's vector ``D`` as the paper writes it — one min-heap of
    ids per recorded marginal, filled id by id, outdated records re-filed
    one at a time on the way down (lines 9-11).  The oracle for the pop
    sequence; it shares nothing with :class:`BucketQueue`."""

    def __init__(self, counts, candidates=None):
        self._counts = counts
        self._buckets = {}
        self._cursor = 0
        for set_id in range(counts.size) if candidates is None else candidates:
            d = int(counts[set_id])
            if d > 0:
                self._buckets.setdefault(d, []).append(int(set_id))
                self._cursor = max(self._cursor, d)
        for heap in self._buckets.values():
            heapq.heapify(heap)

    def pop_max(self):
        d = self._cursor
        while d > 0:
            heap = self._buckets.get(d)
            if not heap:
                d -= 1
                continue
            set_id = heapq.heappop(heap)
            current = int(self._counts[set_id])
            if current < d:
                if current > 0:
                    heapq.heappush(self._buckets.setdefault(current, []), set_id)
                continue
            self._cursor = d
            return set_id
        self._cursor = 0
        return None


class TestArrayBuiltQueueMatchesLoopBuilt:
    @staticmethod
    def drain(queue_cls, counts, candidates, schedule_seed):
        """Pop to exhaustion, decrementing random ids between pops."""
        counts = counts.copy()
        queue = queue_cls(counts, candidates=candidates)
        rng = np.random.default_rng(schedule_seed)
        popped = []
        while (set_id := queue.pop_max()) is not None:
            popped.append(set_id)
            assert type(set_id) is int
            hit = rng.integers(0, counts.size, size=int(rng.integers(0, 6)))
            counts[hit] = np.maximum(counts[hit] - rng.integers(1, 4, size=hit.size), 0)
        return popped

    @pytest.mark.parametrize("trial", range(40))
    def test_same_pop_sequence_under_random_decrements(self, trial):
        rng = np.random.default_rng(trial)
        size = int(rng.integers(1, 40))
        counts = rng.integers(0, int(rng.integers(1, 12)), size=size).astype(np.int64)
        candidate_sets = [None, [], rng.permutation(size)[: size // 2 + 1].tolist()]
        # Duplicates are not collapsed: a repeated id is popped repeatedly.
        candidate_sets.append(rng.integers(0, size, size=size + 3).tolist())
        for candidates in candidate_sets:
            want = self.drain(LoopBuiltQueue, counts, candidates, trial)
            assert self.drain(BucketQueue, counts, candidates, trial) == want

    def test_all_zero_counts_yield_an_empty_queue(self):
        counts = np.zeros(7, dtype=np.int64)
        assert BucketQueue(counts).pop_max() is None
        assert BucketQueue(counts, candidates=[3, 3, 0]).pop_max() is None
        assert BucketQueue(np.zeros(0, dtype=np.int64)).pop_max() is None

    def test_duplicate_candidates_survive(self):
        counts = np.array([2, 6, 6], dtype=np.int64)
        queue = BucketQueue(counts, candidates=[2, 1, 2, 0])
        assert [queue.pop_max() for __ in range(5)] == [1, 2, 2, 0, None]


# The package re-exports the function under the submodule's name.
greedy_module = import_module("repro.coverage.greedy")


class TestPickFromLiveCounts:
    """The queue keeps a bounded slice of the entries in view; what it
    returns must not depend on where that slice ends."""

    drain = staticmethod(TestArrayBuiltQueueMatchesLoopBuilt.drain)

    def test_a_popped_id_never_returns_without_decrements(self):
        counts = np.array([3, 7, 7, 1, 0, 7], dtype=np.int64)
        queue = BucketQueue(counts)
        assert [queue.pop_max() for __ in range(7)] == [1, 2, 5, 0, 3, None, None]
        assert counts.tolist() == [3, 7, 7, 1, 0, 7]

    def test_a_popped_id_never_returns_past_the_active_slice(self, monkeypatch):
        monkeypatch.setattr(greedy_module, "ACTIVE_ENTRIES", 2)
        counts = np.array([5, 5, 5, 5, 9, 5], dtype=np.int64)
        queue = BucketQueue(counts)
        assert [queue.pop_max() for __ in range(7)] == [4, 0, 1, 2, 3, 5, None]

    def test_candidate_subsets_ignore_everything_else(self, monkeypatch):
        monkeypatch.setattr(greedy_module, "ACTIVE_ENTRIES", 2)
        # GREEDI's per-partition runs: non-candidates go negative.
        counts = np.array([9, 4, -3, 4, 8, 4, 0], dtype=np.int64)
        queue = BucketQueue(counts, candidates=[5, 1, 3, 6, 2])
        assert queue.pop_max() == 1
        counts[3] = 2
        assert [queue.pop_max() for __ in range(3)] == [5, 3, None]

    def test_a_fallen_leader_does_not_shadow_a_lower_id_left_outside(self, monkeypatch):
        monkeypatch.setattr(greedy_module, "ACTIVE_ENTRIES", 2)
        # In view: 3 (count 9) and, first of the sixes, 0; 1 is left out.
        counts = np.array([6, 6, 1, 9], dtype=np.int64)
        queue = BucketQueue(counts)
        counts[3] = 6  # the leader falls level with the tie class
        counts[0] = 5  # and the tie class's member in view falls below it
        assert [queue.pop_max() for __ in range(5)] == [1, 3, 0, 2, None]

    @pytest.mark.parametrize("top", [1, 3, 40])
    def test_large_tie_heavy_pools_match_the_bucket_scan(self, top):
        rng = np.random.default_rng(top)
        size = 4 * greedy_module.ACTIVE_ENTRIES + 77
        counts = rng.integers(0, top + 1, size=size).astype(np.int64)
        duplicated = rng.integers(0, size, size=size // 2).tolist()
        for candidates in (None, duplicated):
            assert self.drain(BucketQueue, counts, candidates, 5) == self.drain(
                LoopBuiltQueue, counts, candidates, 5
            )

    @settings(max_examples=150, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 4), min_size=1, max_size=24),
        view=st.integers(1, 6),
        subset=st.booleans(),
        schedule=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_any_slice_width_any_schedule(self, counts, view, subset, schedule, data):
        counts = np.array(counts, dtype=np.int64)
        candidates = (
            data.draw(st.lists(st.integers(0, counts.size - 1), max_size=30)) if subset else None
        )
        want = self.drain(LoopBuiltQueue, counts, candidates, schedule)
        original = greedy_module.ACTIVE_ENTRIES
        greedy_module.ACTIVE_ENTRIES = view
        try:
            assert self.drain(BucketQueue, counts, candidates, schedule) == want
        finally:
            greedy_module.ACTIVE_ENTRIES = original


def sort_drain(counts, score_of, schedule_seed):
    """The scored queue's oracle: every pop re-scores what is left, drops
    the entries scoring zero or less for good, and takes the first of the
    rest sorted by (-score, id).  Decrements as the queues' ``drain``."""
    counts = counts.copy()
    entries = np.flatnonzero(counts > 0).tolist()
    rng = np.random.default_rng(schedule_seed)
    popped = []
    while True:
        scores = score_of(counts, np.asarray(entries, dtype=np.int64)).tolist()
        ranked = sorted((-score, set_id) for score, set_id in zip(scores, entries) if score > 0)
        entries = sorted(set_id for __, set_id in ranked)
        if not ranked:
            return popped
        set_id = ranked[0][1]
        entries.remove(set_id)
        popped.append(set_id)
        hit = rng.integers(0, counts.size, size=int(rng.integers(0, 6)))
        counts[hit] = np.maximum(counts[hit] - rng.integers(1, 4, size=hit.size), 0)


def scored_drain(counts, score_of, schedule_seed):
    counts = counts.copy()
    queue = BucketQueue(counts, score=lambda ids: score_of(counts, ids))
    rng = np.random.default_rng(schedule_seed)
    popped = []
    while (set_id := queue.pop_max()) is not None:
        popped.append(set_id)
        assert type(set_id) is int
        hit = rng.integers(0, counts.size, size=int(rng.integers(0, 6)))
        counts[hit] = np.maximum(counts[hit] - rng.integers(1, 4, size=hit.size), 0)
    return popped


class TestScoredQueue:
    """Scores other than the count — the applications' ratio and gain —
    picked by the same queue: a full sort of the live scores is the
    oracle, ties go to the lowest id, and an entry scoring zero or less
    is exhausted."""

    def test_a_fallen_active_entry_yields_to_a_tie_at_the_horizon(self, monkeypatch):
        monkeypatch.setattr(greedy_module, "ACTIVE_ENTRIES", 2)
        counts = np.array([2, 4, 1, 2], dtype=np.int64)
        costs = np.array([1.0, 2.0, 0.5, 1.0])
        # Every ratio is 2.0: ids 0 and 1 are in view, the horizon is id 1.
        queue = BucketQueue(counts, score=lambda ids: counts[ids] / costs[ids])
        assert queue.pop_max() == 0
        counts[1] = 3  # 1.5: below the mark, so 2 and 3 (at 2.0) go first
        assert [queue.pop_max() for __ in range(4)] == [2, 3, 1, None]

    def test_a_fractional_threshold_is_not_rounded(self, monkeypatch):
        monkeypatch.setattr(greedy_module, "ACTIVE_ENTRIES", 2)
        counts = np.array([6, 5, 5], dtype=np.int64)
        costs = np.full(3, 2.0)
        # Ratios 3.0, 2.5, 2.5: the mark is 2.5 at id 1, and id 2 left out.
        queue = BucketQueue(counts, score=lambda ids: counts[ids] / costs[ids])
        assert queue.pop_max() == 0
        counts[1] = 4  # 2.0, which an integer mark of 2 would still pass
        assert [queue.pop_max() for __ in range(3)] == [2, 1, None]

    def test_a_non_positive_score_is_exhausted(self):
        counts = np.array([3, 1, 4, 2], dtype=np.int64)
        queue = BucketQueue(counts, score=lambda ids: counts[ids] * 0.5 - 1.0)
        assert [queue.pop_max() for __ in range(3)] == [2, 0, None]

    @pytest.mark.parametrize("view", [1, 2, 3, 1024])
    @pytest.mark.parametrize("trial", range(25))
    def test_same_pops_as_a_full_sort(self, monkeypatch, view, trial):
        monkeypatch.setattr(greedy_module, "ACTIVE_ENTRIES", view)
        rng = np.random.default_rng(trial)
        size = int(rng.integers(1, 60))
        counts = rng.integers(0, int(rng.integers(1, 10)), size=size).astype(np.int64)
        # Few distinct costs, zero-cost gains and a per-element value that
        # makes some gains non-positive: ties at every mark.
        costs = rng.choice([0.0, 0.5, 1.0, 2.0, 4.0], size=size)
        spread_per_element = float(rng.choice([0.25, 0.5, 1.0]))
        rules = {
            "ratio": lambda c, ids: c[ids] / np.where(costs[ids] > 0, costs[ids], 1.0),
            "gain": lambda c, ids: c[ids] * spread_per_element - costs[ids],
            "count": lambda c, ids: c[ids],
        }
        for score_of in rules.values():
            want = sort_drain(counts, score_of, trial)
            assert scored_drain(counts, score_of, trial) == want


class TestGreedyExample3:
    """Paper Example 3: {v1, v2} covers all six RR sets."""

    def test_selects_optimal_pair(self, paper_instance):
        result = greedy_max_coverage([paper_instance], 2)
        assert sorted(result.seeds) == [0, 1]
        assert result.coverage == 6
        assert result.fraction == 1.0

    def test_first_pick_is_v2(self, paper_instance):
        # v2 covers four RR sets, more than any other node.
        result = greedy_max_coverage([paper_instance], 1)
        assert result.seeds == [1]
        assert result.coverage == 4

    def test_marginals_decrease(self, paper_instance):
        result = greedy_max_coverage([paper_instance], 3)
        assert result.marginals == sorted(result.marginals, reverse=True)


class TestGreedyGeneral:
    def test_rejects_bad_k(self, paper_instance):
        with pytest.raises(ValueError):
            greedy_max_coverage([paper_instance], 0)

    def test_rejects_empty_stores(self):
        with pytest.raises(ValueError, match="at least one"):
            greedy_max_coverage([], 1)

    def test_rejects_mismatched_universes(self, paper_instance):
        other = from_elements(3, [[0]])
        with pytest.raises(ValueError, match="same universe"):
            greedy_max_coverage([paper_instance, other], 1)

    def test_multiple_stores_equivalent_to_union(self, rng):
        from tests.conftest import make_random_instance

        inst = make_random_instance(rng)
        parts = split_elements(inst, 3, rng=rng)
        merged = greedy_max_coverage(parts, 4)
        single = greedy_max_coverage([inst], 4)
        assert merged.coverage == single.coverage
        assert merged.seeds == single.seeds

    def test_padding_when_everything_covered(self):
        inst = from_elements(5, [[4]])
        result = greedy_max_coverage([inst], 3)
        assert result.seeds == [4, 0, 1]
        assert result.coverage == 1

    def test_k_larger_than_universe(self):
        inst = from_elements(2, [[0], [1]])
        result = greedy_max_coverage([inst], 5)
        assert result.seeds == [0, 1]

    def test_fraction_empty_store(self):
        inst = from_elements(2, [])
        result = greedy_max_coverage([inst], 1)
        assert result.fraction == 0.0


class TestNaiveOracleAgreement:
    def test_agreement_on_random_instances(self):
        from tests.conftest import make_random_instance

        rng = np.random.default_rng(99)
        for __ in range(25):
            inst = make_random_instance(rng)
            k = int(rng.integers(1, 6))
            fast = greedy_max_coverage([inst], k)
            slow = naive_greedy_max_coverage([inst], k)
            assert fast.seeds == slow.seeds
            assert fast.coverage == slow.coverage

    def test_naive_rejects_bad_k(self, paper_instance):
        with pytest.raises(ValueError):
            naive_greedy_max_coverage([paper_instance], 0)


class TestApproximationGuarantee:
    def test_greedy_at_least_1_minus_1_over_e(self):
        """Greedy coverage >= (1 - 1/e) * optimal coverage (exhaustive)."""
        import itertools
        import math

        from tests.conftest import make_random_instance

        rng = np.random.default_rng(5)
        for __ in range(10):
            inst = make_random_instance(rng, max_sets=10, max_elements=25)
            k = 3
            result = greedy_max_coverage([inst], k)
            best = max(
                inst.coverage_of(combo)
                for combo in itertools.combinations(range(inst.num_nodes), min(k, inst.num_nodes))
            )
            assert result.coverage >= (1 - 1 / math.e) * best - 1e-9

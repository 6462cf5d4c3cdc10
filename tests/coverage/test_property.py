"""Property-based tests (hypothesis) for the coverage layer.

The central properties:

* coverage is monotone and submodular as a set function;
* the lazy bucket greedy equals the naive re-scan oracle exactly;
* NEWGREEDI equals the centralized greedy for every machine count
  (Lemma 2), under both round-robin and random element distribution.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coverage import (
    from_elements,
    split_elements,
    greedy_max_coverage,
    naive_greedy_max_coverage,
    newgreedi,
)
from tests.conftest import simulated


@st.composite
def coverage_instances(draw):
    num_sets = draw(st.integers(min_value=2, max_value=15))
    num_elements = draw(st.integers(min_value=1, max_value=25))
    elements = [
        draw(
            st.lists(
                st.integers(min_value=0, max_value=num_sets - 1),
                min_size=1,
                max_size=min(5, num_sets),
            )
        )
        for __ in range(num_elements)
    ]
    return from_elements(num_sets, elements)


@settings(max_examples=60, deadline=None)
@given(instance=coverage_instances(), data=st.data())
def test_coverage_is_monotone(instance, data):
    base = data.draw(
        st.sets(st.integers(0, instance.num_nodes - 1), max_size=4)
    )
    extra = data.draw(st.integers(0, instance.num_nodes - 1))
    assert instance.coverage_of(base | {extra}) >= instance.coverage_of(base)


@settings(max_examples=60, deadline=None)
@given(instance=coverage_instances(), data=st.data())
def test_coverage_is_submodular(instance, data):
    """f(A + x) - f(A) >= f(B + x) - f(B) whenever A is a subset of B."""
    small = data.draw(st.sets(st.integers(0, instance.num_nodes - 1), max_size=3))
    additional = data.draw(
        st.sets(st.integers(0, instance.num_nodes - 1), max_size=3)
    )
    big = small | additional
    x = data.draw(st.integers(0, instance.num_nodes - 1))
    gain_small = instance.coverage_of(small | {x}) - instance.coverage_of(small)
    gain_big = instance.coverage_of(big | {x}) - instance.coverage_of(big)
    assert gain_small >= gain_big


@settings(max_examples=50, deadline=None)
@given(instance=coverage_instances(), k=st.integers(min_value=1, max_value=6))
def test_lazy_greedy_equals_naive_oracle(instance, k):
    fast = greedy_max_coverage([instance], k)
    slow = naive_greedy_max_coverage([instance], k)
    assert fast.seeds == slow.seeds
    assert fast.coverage == slow.coverage


@settings(max_examples=40, deadline=None)
@given(
    instance=coverage_instances(),
    k=st.integers(min_value=1, max_value=5),
    num_machines=st.integers(min_value=1, max_value=5),
    shuffle_seed=st.integers(min_value=0, max_value=2**16),
)
def test_newgreedi_equals_centralized_greedy(instance, k, num_machines, shuffle_seed):
    """Lemma 2, property-based: any distribution of elements, any l."""
    central = greedy_max_coverage([instance], k)
    executor = simulated(num_machines, seed=0)
    parts = split_elements(instance, num_machines, rng=np.random.default_rng(shuffle_seed))
    result = newgreedi(executor, k, stores=parts)
    assert result.seeds == central.seeds
    assert result.coverage == central.coverage


@settings(max_examples=40, deadline=None)
@given(instance=coverage_instances(), k=st.integers(min_value=1, max_value=5))
def test_greedy_coverage_matches_reported_seeds(instance, k):
    """The reported coverage equals an independent recount of the seeds."""
    result = greedy_max_coverage([instance], k)
    assert result.coverage == instance.coverage_of(result.seeds)


@settings(max_examples=40, deadline=None)
@given(instance=coverage_instances(), k=st.integers(min_value=1, max_value=6))
def test_greedy_returns_exactly_k_distinct_seeds(instance, k):
    result = greedy_max_coverage([instance], k)
    expected = min(k, instance.num_nodes)
    assert len(result.seeds) == expected
    assert len(set(result.seeds)) == expected


@st.composite
def tie_heavy_instances(draw):
    """Every element holds exactly two sets of a small universe, so most
    marginals are equal most of the time and ties decide most picks."""
    num_sets = draw(st.integers(min_value=3, max_value=10))
    pairs = st.lists(
        st.integers(min_value=0, max_value=num_sets - 1), min_size=2, max_size=2, unique=True
    )
    elements = draw(st.lists(pairs, min_size=num_sets, max_size=4 * num_sets))
    return from_elements(num_sets, elements)


@settings(max_examples=80, deadline=None)
@given(
    instance=tie_heavy_instances(),
    k=st.integers(min_value=1, max_value=8),
    num_machines=st.integers(min_value=1, max_value=4),
    shuffle_seed=st.integers(min_value=0, max_value=2**16),
)
def test_newgreedi_equals_the_naive_oracle_under_heavy_ties(
    instance, k, num_machines, shuffle_seed
):
    """Lemma 2 where it is decided by the tie rule: the picks read off the
    live counts are the naive re-scan's, seed for seed, gain for gain."""
    naive = naive_greedy_max_coverage([instance], k)
    parts = split_elements(instance, num_machines, rng=np.random.default_rng(shuffle_seed))
    result = newgreedi(simulated(num_machines, seed=0), k, stores=parts)
    assert result.seeds == naive.seeds
    assert result.marginals == naive.marginals
    assert result.coverage == naive.coverage
    central = greedy_max_coverage(parts, k)
    assert (central.seeds, central.marginals) == (naive.seeds, naive.marginals)


def test_newgreedi_equals_the_naive_oracle_on_a_ring_wider_than_the_queue_view():
    """All 2,500 marginals are equal at the start and stay within one of
    each other: every pick is a tie among more entries than the queue
    keeps in view."""
    num_sets = 2500
    instance = from_elements(
        num_sets, [[i, (i + 1) % num_sets] for i in range(num_sets)]
    )
    naive = naive_greedy_max_coverage([instance], 6)
    assert naive.seeds == [0, 2, 4, 6, 8, 10]
    parts = split_elements(instance, 3, rng=np.random.default_rng(1))
    result = newgreedi(simulated(3, seed=0), 6, stores=parts)
    assert (result.seeds, result.marginals) == (naive.seeds, naive.marginals)

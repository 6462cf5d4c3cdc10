"""Soundness of selection's early exit (``accepts=``).

A search round reads one bit of its selection: whether the rule's test
passes.  ``newgreedi`` and ``greedy_max_coverage`` may therefore stop as
soon as ``coverage_j + (k - j) * marginal_{j+1}`` fails that test — but
only then.  For any store, machine count, ``k`` and threshold:

* the cut selection is a prefix of the full one (seeds and marginals);
* the test's verdict on the cut selection is its verdict on the full one;
* a selection that passes is returned whole, padding included.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import ImmParameters
from repro.core.driver import ImmScheduleRule
from repro.coverage import greedy_max_coverage, newgreedi, split_elements
from tests.conftest import simulated
from tests.oracle import engine

from .test_property import coverage_instances


def search_round_test(n: int, eps: float, t: int):
    """``ImmScheduleRule.certifies`` at search round ``t``: the float
    expression the driver hands to selection."""
    params = ImmParameters(
        n=n,
        k=1,
        eps=eps,
        delta=0.1,
        eps_prime=math.sqrt(2.0) * eps,
        delta_prime=0.05,
        lambda_prime=1.0,
        lambda_star=1.0,
        max_search_rounds=10,
    )
    rule = ImmScheduleRule(params)
    rule.t = t
    return rule.certifies


def thresholds(draw, full, n):
    """The rule's own test at a drawn round, and integer thresholds at,
    one above and one below the full selection's coverage."""
    eps = draw(st.sampled_from([0.05, 0.2, 0.5]))
    t = draw(st.integers(min_value=1, max_value=5))
    tests = [search_round_test(n, eps, t)]
    for need in (full.coverage - 1, full.coverage, full.coverage + 1, full.num_elements + 1):
        tests.append(lambda coverage, num_elements, need=need: coverage >= need)
    return tests


def assert_sound(full, cut, accepts):
    assert cut.seeds == full.seeds[: len(cut.seeds)]
    assert cut.marginals == full.marginals[: len(cut.marginals)]
    assert cut.coverage == sum(cut.marginals)
    assert cut.num_elements == full.num_elements
    verdict = accepts(full.coverage, full.num_elements)
    assert accepts(cut.coverage, cut.num_elements) == verdict
    if verdict:
        assert (cut.seeds, cut.coverage) == (full.seeds, full.coverage)
    elif len(cut.seeds) < len(full.seeds):
        # Cut short: nothing is padded onto a doomed selection.
        assert len(cut.seeds) == len(cut.marginals)


@settings(max_examples=60, deadline=None)
@given(
    instance=coverage_instances(),
    machines=st.sampled_from([1, 2, 4]),
    k=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_newgreedi_early_exit_is_sound(instance, machines, k, data):
    stores = split_elements(instance, machines)
    full = newgreedi(simulated(machines, seed=0), k, stores=stores)
    for accepts in thresholds(data.draw, full, instance.num_nodes):
        cut = newgreedi(simulated(machines, seed=0), k, stores=stores, accepts=accepts)
        assert_sound(full, cut, accepts)
        assert cut.covered_per_machine is not None
        assert sum(cut.covered_per_machine) == cut.coverage


@settings(max_examples=60, deadline=None)
@given(
    instance=coverage_instances(),
    backend=st.sampled_from(["flat", "reference"]),
    k=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_central_greedy_early_exit_is_sound(instance, backend, k, data):
    with engine(backend):
        full = greedy_max_coverage([instance], k)
        for accepts in thresholds(data.draw, full, instance.num_nodes):
            cut = greedy_max_coverage([instance], k, accepts=accepts)
            assert_sound(full, cut, accepts)


@pytest.mark.parametrize("backend", ["flat", "reference"])
def test_a_hopeless_round_runs_no_seed_round(paper_instance, backend):
    """A threshold above ``k`` times the largest marginal: the first bound
    already fails, so no seed is broadcast and nothing is padded."""
    executor = simulated(2, seed=0)
    with engine(backend):
        cut = newgreedi(
            executor,
            3,
            stores=split_elements(paper_instance, 2),
            accepts=lambda coverage, num_elements: coverage > 3 * num_elements,
        )
        central = greedy_max_coverage(
            [paper_instance], 3, accepts=lambda coverage, num_elements: False
        )
    assert (cut.seeds, cut.coverage, cut.marginals) == ([], 0, [])
    labels = [p.label for p in executor.metrics.phases]
    assert "newgreedi/seed" not in labels and "newgreedi/map" not in labels
    assert labels[-1] == "newgreedi/select"
    assert (central.seeds, central.coverage) == ([], 0)

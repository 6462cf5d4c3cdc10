"""Differential harness: the flat CSR kernel vs the per-element oracle.

Every test here runs the same coverage problem through the shipped
engines (the vectorized CSR kernel over flat copies of the stores) and
through the same engines on the oracle's dict-walking loops over the
dict-indexed stores (``tests/oracle.py``), and asserts bit-identical
results: seed sequences,
per-iteration marginals, ``covered_per_machine`` attribution, and final
coverage.  Inputs span all three diffusion models (IC, LT, and the
general triggering sampler) plus adversarial synthetic collections with
empty sets, singleton sets, and duplicate-heavy sets.

Together with the seeded sweeps, the hypothesis block pushes the harness
past 200 randomized cases per run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coverage import greedi, greedy_max_coverage, newgreedi
from repro.diffusion.triggering import ICTriggering, LTTriggering
from repro.graphs import erdos_renyi, weighted_cascade
from repro.ris import make_sampler
from repro.ris.rrset import RRSample
from repro.ris.triggering_sampler import TriggeringRRSampler
from tests.conftest import round_robin_stores, simulated
from tests.oracle import RRCollection, reference_greedi, reference_greedy, reference_newgreedi

MODELS = ("ic", "lt", "trig-ic", "trig-lt")
MACHINES = 3
SEEDED_CASES_PER_MODEL = 20


def build_sampler(graph, model: str):
    if model == "trig-ic":
        return TriggeringRRSampler(graph, ICTriggering())
    if model == "trig-lt":
        return TriggeringRRSampler(graph, LTTriggering())
    return make_sampler(graph, model)


def random_graph(rng: np.random.Generator):
    n = int(rng.integers(8, 40))
    m = int(rng.integers(n, 4 * n))
    return weighted_cascade(erdos_renyi(n, m, rng))


def sample_of(nodes, num_nodes: int) -> RRSample:
    arr = np.unique(np.asarray(nodes, dtype=np.int32))
    root = int(arr[0]) if arr.size else 0
    return RRSample(nodes=arr, root=root, edges_examined=int(arr.size))


def assert_backends_agree(samples, num_nodes: int, k: int) -> None:
    """Run all three algorithms on the kernel (flat stores) and the oracle
    (its dict stores of the same samples); demand equality."""
    stores = round_robin_stores(samples, num_nodes, MACHINES, RRCollection)
    flat_stores = round_robin_stores(samples, num_nodes, MACHINES)
    (merged,) = round_robin_stores(samples, num_nodes, 1, RRCollection)
    (flat_merged,) = round_robin_stores(samples, num_nodes, 1)

    ref = reference_greedy(stores, k)
    flat = greedy_max_coverage(flat_stores, k)
    assert flat.seeds == ref.seeds
    assert flat.marginals == ref.marginals
    assert flat.coverage == ref.coverage

    ref_new = reference_newgreedi(simulated(MACHINES, seed=0), k, list(stores))
    flat_new = newgreedi(simulated(MACHINES, seed=0), k, stores=flat_stores)
    assert flat_new.seeds == ref_new.seeds
    assert flat_new.marginals == ref_new.marginals
    assert flat_new.covered_per_machine == ref_new.covered_per_machine
    assert flat_new.coverage == ref_new.coverage
    # Both match the sequential greedy (Lemma 2's exact equivalence).
    assert flat_new.seeds == ref.seeds

    ref_gre = reference_greedi(simulated(MACHINES, seed=0), merged, k)
    flat_gre = greedi(simulated(MACHINES, seed=0), flat_merged, k)
    assert flat_gre.seeds == ref_gre.seeds
    assert flat_gre.coverage == ref_gre.coverage


class TestSampledCollections:
    """Seeded sweeps over RR collections drawn from real samplers."""

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("case", range(SEEDED_CASES_PER_MODEL))
    def test_backends_agree(self, model, case):
        rng = np.random.default_rng(1000 * MODELS.index(model) + case)
        graph = random_graph(rng)
        sampler = build_sampler(graph, model)
        count = int(rng.integers(5, 80))
        samples = sampler.sample_many(count, rng)
        k = int(rng.integers(1, 8))
        assert_backends_agree(samples, graph.num_nodes, k)


class TestSyntheticCollections:
    """Hypothesis-generated adversarial collections (no sampler in the
    loop, so empty sets, singletons, and duplicates appear freely)."""

    @settings(max_examples=125, deadline=None)
    @given(data=st.data())
    def test_backends_agree(self, data):
        num_nodes = data.draw(st.integers(2, 15), label="num_nodes")
        raw_sets = data.draw(
            st.lists(
                st.lists(
                    st.integers(0, num_nodes - 1), min_size=0, max_size=num_nodes
                ),
                min_size=0,
                max_size=25,
            ),
            label="sets",
        )
        k = data.draw(st.integers(1, num_nodes), label="k")
        samples = [sample_of(nodes, num_nodes) for nodes in raw_sets]
        assert_backends_agree(samples, num_nodes, k)


class TestEdgeShapes:
    def test_empty_collection(self):
        assert_backends_agree([], num_nodes=6, k=3)

    def test_all_empty_sets(self):
        samples = [sample_of([], 5) for __ in range(7)]
        assert_backends_agree(samples, num_nodes=5, k=2)

    def test_singleton_sets(self):
        rng = np.random.default_rng(42)
        samples = [sample_of([int(rng.integers(0, 9))], 9) for __ in range(30)]
        assert_backends_agree(samples, num_nodes=9, k=4)

    def test_duplicate_heavy_sets(self):
        """Many copies of a handful of distinct sets — stresses tie-breaks,
        since whole blocks of marginals collapse at once."""
        rng = np.random.default_rng(7)
        distinct = [
            sample_of(rng.integers(0, 12, size=int(rng.integers(1, 5))), 12)
            for __ in range(4)
        ]
        samples = [distinct[int(rng.integers(0, 4))] for __ in range(60)]
        assert_backends_agree(samples, num_nodes=12, k=5)

    def test_mixed_empty_and_full(self):
        samples = (
            [sample_of([], 8) for __ in range(5)]
            + [sample_of(range(8), 8)]
            + [sample_of([3], 8) for __ in range(4)]
        )
        assert_backends_agree(samples, num_nodes=8, k=3)

    def test_ties_resolve_to_lowest_id(self):
        """Symmetric instance: kernel and oracle must pin the lowest node id."""
        samples = [sample_of([0, 1], 4), sample_of([2, 3], 4)]
        ref = reference_greedy(round_robin_stores(samples, 4, MACHINES, RRCollection), 1)
        flat = greedy_max_coverage(round_robin_stores(samples, 4, MACHINES), 1)
        assert ref.seeds == flat.seeds == [0]

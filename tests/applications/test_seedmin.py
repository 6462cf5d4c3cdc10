"""Unit tests for seed minimization."""

import pytest

from repro.applications import seed_minimization
from repro.graphs import uniform, star_graph, path_graph


class TestSeedMinimization:
    def test_star_needs_one_seed(self):
        graph = uniform(star_graph(9), 1.0)
        result = seed_minimization(
            graph, required_spread=8.0, num_machines=2, num_rr_sets=500
        )
        assert result.seeds == [0]
        assert result.params["achieved"] >= 8.0

    def test_higher_requirement_needs_more_seeds(self, small_wc_graph):
        low = seed_minimization(
            small_wc_graph, required_spread=10.0, num_machines=2,
            num_rr_sets=2000, seed=1,
        )
        high = seed_minimization(
            small_wc_graph, required_spread=60.0, num_machines=2,
            num_rr_sets=2000, seed=1,
        )
        assert len(high.seeds) > len(low.seeds)

    def test_achieved_meets_requirement(self, small_wc_graph):
        result = seed_minimization(
            small_wc_graph, required_spread=30.0, num_machines=3,
            num_rr_sets=2000, seed=2,
        )
        assert result.objective >= 30.0 - 1e-9

    def test_max_seeds_cap(self, small_wc_graph):
        result = seed_minimization(
            small_wc_graph, required_spread=150.0, num_machines=2,
            num_rr_sets=1000, max_seeds=3, seed=0,
        )
        assert len(result.seeds) <= 3

    def test_disconnected_requirement_unreachable(self):
        # Two isolated nodes with no edges: only the selected roots are
        # covered, so coverage saturates once marginals hit zero.
        graph = uniform(path_graph(2), 0.0)
        result = seed_minimization(
            graph, required_spread=2.0, num_machines=1, num_rr_sets=100
        )
        assert len(result.seeds) <= 2

    def test_validation(self, small_wc_graph):
        with pytest.raises(ValueError, match="required_spread"):
            seed_minimization(
                small_wc_graph, required_spread=0.5, num_machines=1, num_rr_sets=10
            )
        with pytest.raises(ValueError, match="max_seeds"):
            seed_minimization(
                small_wc_graph, required_spread=5.0, num_machines=1,
                num_rr_sets=10, max_seeds=0,
            )


# (seeds, objective.hex(), achieved, metrics.total_bytes) recorded from
# the dict-accumulating map stage before it was routed through
# coverage.kernel.sparse_decrements; every field must stay identical.
# total_bytes alone was re-pinned once, when the loop moved onto
# NewGreeDiRounds and its gathers became priced by tuple_vector_nbytes
# instead of a flat 8 B/tuple (18476 -> 5635, 18852 -> 5731).
# Every field was re-pinned when the pool's RR sets became coordinate-keyed,
# and again when the IC/LT coins became hashes of those coordinates
# (other samples, same distribution; CHANGES.md has old -> new); what ties
# the map stage to the dict-accumulating one since is test_shared_round.py's
# inlined oracles, which do not depend on which samples are drawn.
SEEDMIN_GOLDENS = {
    3: ([36, 168, 75, 152, 32], "0x1.071c71c71c71dp+6", 65.78, 5584),
    11: ([93, 36, 168, 151, 144, 102, 50], "0x1.0000000000000p+6", 64.0, 6166),
}


@pytest.mark.parametrize("seed", sorted(SEEDMIN_GOLDENS))
def test_result_and_bytes_pinned_to_reference_map_stage(small_wc_graph, seed):
    result = seed_minimization(
        small_wc_graph, required_spread=60.0, num_machines=3, num_rr_sets=900, seed=seed
    )
    seeds, objective, achieved, total_bytes = SEEDMIN_GOLDENS[seed]
    assert result.application == "seed-minimization"
    assert result.seeds == seeds
    assert float(result.objective).hex() == objective
    assert result.num_rr_sets == 900
    assert result.params == {
        "required_spread": 60.0,
        "achieved": achieved,
        "num_machines": 3,
        "model": "ic",
    }
    assert result.metrics.total_bytes == total_bytes

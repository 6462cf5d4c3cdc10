"""Golden-seed conformance for the RoundDriver port.

Recorded runs on the shared ``small_wc_graph`` fixture that every
executor must reproduce *bit for bit* — seeds, RR-set accounting, bounds
and round counts; only metered wall-clock times are allowed to differ.
First captured from the pre-driver implementations (each entry point
carrying its own private round loop); re-pinned once at PR 24, when RR set
``i`` of collection ``key`` on machine ``m`` became a function of the
coordinates ``(seed, key, m, i)`` instead of a position in the machine's
sequential stream.  CHANGES.md (PR 24) lists old -> new and the 40-seed
theta / spread distributions of both builds, which agree.
"""

from __future__ import annotations

import pytest

from repro.core import (
    diimm,
    distributed_opimc,
    distributed_ssa,
    distributed_subsim,
    imm,
)

# (seeds, num_rr_sets, total_rr_size, total_edges_examined,
#  lower_bound, search_rounds, estimated_spread)
GOLDEN_A = {
    "diimm": (
        [36, 168, 75, 190], 2836, 28796, 173415,
        31.42665077538936, 3, 52.89139633286318,
    ),
    "dssa": (
        [75, 168, 36, 102], 6432, 65916, 396140,
        51.492537313432834, 4, 51.492537313432834,
    ),
    "dopimc": (
        [75, 168, 36, 32], 444, 4048, 24275,
        0.15552653754313217, 2, 45.04504504504504,
    ),
    "dsubsim": (
        [75, 168, 36, 190], 2700, 27136, 54084,
        33.009857363570184, 3, 52.74074074074074,
    ),
}

# IMM is the l = 1 run of the same coordinates (machine 0 of a one-machine
# cluster), like every other algorithm.
GOLDEN_A_IMM = (
    [168, 36, 75, 190], 2924, 29259, 175797,
    30.47672682248087, 3, 53.077975376196996,
)

GOLDEN_B = {
    "diimm": (
        [36, 168, 75, 93, 118, 102], 2706, 28386, 170773,
        37.19594697325339, 3, 64.30155210643017,
    ),
    "dssa": (
        [75, 36, 168, 132, 152, 32], 6432, 67761, 406981,
        62.06467661691542, 4, 62.06467661691542,
    ),
    "dopimc": (
        [131, 136, 144, 150, 36, 132], 250, 2975, 17816,
        0.13885417528392505, 1, 60.8,
    ),
    "dsubsim": (
        [36, 168, 75, 118, 152, 102], 2755, 27046, 53842,
        36.532917615441384, 3, 61.99637023593466,
    ),
}

GOLDEN_B_IMM = (
    [75, 168, 36, 32, 93, 128], 2791, 28267, 169339,
    36.06879706497298, 3, 64.27803654604085,
)

ALGORITHMS = {
    "diimm": diimm,
    "dssa": distributed_ssa,
    "dopimc": distributed_opimc,
    "dsubsim": distributed_subsim,
}


def assert_matches(result, golden):
    seeds, num_rr, total_size, total_edges, lb, rounds, spread = golden
    assert result.seeds == seeds
    assert result.num_rr_sets == num_rr
    assert result.total_rr_size == total_size
    assert result.total_edges_examined == total_edges
    assert result.lower_bound == lb
    assert result.search_rounds == rounds
    assert result.estimated_spread == spread


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
class TestSimulatedConformance:
    def test_config_a(self, small_wc_graph, algorithm):
        result = ALGORITHMS[algorithm](small_wc_graph, 4, 3, eps=0.5, seed=11)
        assert_matches(result, GOLDEN_A[algorithm])

    def test_config_b(self, small_wc_graph, algorithm):
        result = ALGORITHMS[algorithm](small_wc_graph, 6, 4, eps=0.5, seed=3)
        assert_matches(result, GOLDEN_B[algorithm])


class TestImmConformance:
    def test_config_a(self, small_wc_graph):
        assert_matches(imm(small_wc_graph, 4, eps=0.5, seed=11), GOLDEN_A_IMM)

    def test_config_b(self, small_wc_graph):
        assert_matches(imm(small_wc_graph, 6, eps=0.5, seed=3), GOLDEN_B_IMM)

    def test_zero_communication(self, small_wc_graph):
        """The single-machine baseline still issues no communication."""
        result = imm(small_wc_graph, 4, eps=0.5, seed=11)
        assert result.metrics.communication_time == 0.0
        assert result.metrics.total_bytes == 0


@pytest.mark.slow
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
class TestMultiprocessingConformance:
    """The multiprocessing executor must match the same golden values."""

    def test_config_a(self, small_wc_graph, algorithm):
        result = ALGORITHMS[algorithm](
            small_wc_graph, 4, 3, eps=0.5, seed=11, executor="multiprocessing"
        )
        assert_matches(result, GOLDEN_A[algorithm])


@pytest.mark.slow
@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
class TestSocketConformance:
    """The socket executor (real TCP workers) matches the golden values
    and additionally records measured wire traffic."""

    def test_config_a(self, small_wc_graph, algorithm):
        result = ALGORITHMS[algorithm](
            small_wc_graph, 4, 3, eps=0.5, seed=11, executor="socket"
        )
        assert_matches(result, GOLDEN_A[algorithm])
        assert result.metrics.wire_sent_bytes > 0
        assert result.metrics.wire_received_bytes > 0
        assert result.metrics.total_round_trips > 0

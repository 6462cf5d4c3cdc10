"""Golden-seed conformance for the RoundDriver port.

Every value below was captured by running the pre-driver implementations
(each entry point carrying its own private round loop) on the shared
``small_wc_graph`` fixture.  The driver port must reproduce them *bit for
bit* — seeds, RR-set accounting, bounds and round counts — on both
executors; only metered wall-clock times are allowed to differ.
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
        [75, 168, 36, 118], 2726, 28688, 172480,
        32.693216045934015, 3, 55.09904622157007,
    ),
    "dssa": (
        [75, 168, 152, 32], 6432, 65919, 396852,
        50.43532338308458, 4, 50.43532338308458,
    ),
    "dopimc": (
        [26, 32, 79, 62], 222, 2653, 16003,
        0.14193592041754935, 1, 61.26126126126126,
    ),
    "dsubsim": (
        [36, 75, 132, 118], 2815, 29241, 58507,
        31.664131763616485, 3, 53.42806394316163,
    ),
}

# IMM draws from the l = 1 cluster stream like every other algorithm
# (re-pinned once, when its separate directly-seeded stream was deleted).
GOLDEN_A_IMM = (
    [75, 168, 36, 152], 2643, 28191, 169730,
    33.722300328251556, 3, 56.67801740446462,
)

GOLDEN_B = {
    "diimm": (
        [75, 36, 168, 93, 128, 32], 2706, 27676, 166068,
        37.19594697325339, 3, 64.15373244641536,
    ),
    "dssa": (
        [75, 36, 168, 132, 93, 160], 6432, 67247, 404163,
        62.43781094527363, 4, 62.43781094527363,
    ),
    "dopimc": (
        [75, 135, 106, 145, 79, 87], 500, 4744, 28339,
        0.22143748035919608, 2, 56.0,
    ),
    "dsubsim": (
        [75, 36, 118, 152, 168, 93], 2801, 27241, 54248,
        35.936191193410586, 3, 62.54908961085327,
    ),
}

GOLDEN_B_IMM = (
    [75, 118, 93, 36, 132, 168], 2535, 25691, 154212,
    39.715458532938996, 3, 66.50887573964496,
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

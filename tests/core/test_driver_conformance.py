"""Golden-seed conformance for the RoundDriver port.

Recorded runs on the shared ``small_wc_graph`` fixture that every
executor must reproduce *bit for bit* — seeds, RR-set accounting, bounds
and round counts; only metered wall-clock times are allowed to differ.
First captured from the pre-driver implementations (each entry point
carrying its own private round loop); re-pinned twice: when RR set ``i``
of collection ``key`` on machine ``m`` became a function of the
coordinates ``(seed, key, m, i)`` instead of a position in the machine's
sequential stream, and when the IC/LT coins became hashes of those
coordinates.  D-SUBSIM moved once more, when it left SUBSIM's subset
sampler for the keyed IC kernel: it is now DIIMM's run under SUBSIM's
rule name, so its goldens are DIIMM's.  CHANGES.md lists old -> new and
the 40-seed theta / spread distributions of both builds.
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
        [36, 93, 168, 75], 3068, 29724, 178289,
        29.051840893118126, 3, 49.34810951760104,
    ),
    "dssa": (
        [75, 168, 36, 68], 6432, 66332, 398437,
        52.7363184079602, 4, 52.7363184079602,
    ),
    "dopimc": (
        [36, 75, 183, 39], 444, 4120, 24848,
        0.17230217315257024, 2, 47.747747747747745,
    ),
}
# D-SUBSIM draws with the keyed IC kernel: DIIMM's sets, DIIMM's schedule.
GOLDEN_A["dsubsim"] = GOLDEN_A["diimm"]

# IMM is the l = 1 run of the same coordinates (machine 0 of a one-machine
# cluster), like every other algorithm.
GOLDEN_A_IMM = (
    [75, 36, 168, 190], 2947, 29629, 177733,
    30.23924583425374, 3, 51.03495079742111,
)

GOLDEN_B = {
    "diimm": (
        [36, 168, 75, 32, 62, 20], 2469, 25746, 154874,
        40.77630550543821, 3, 68.28675577156743,
    ),
    "dssa": (
        [75, 168, 36, 62, 190, 39], 6432, 67904, 408297,
        59.88805970149254, 4, 59.88805970149254,
    ),
    "dopimc": (
        [36, 39, 133, 88, 89, 159], 250, 2241, 13441,
        0.14031415017234597, 1, 56.0,
    ),
}
GOLDEN_B["dsubsim"] = GOLDEN_B["diimm"]

GOLDEN_B_IMM = (
    [36, 168, 75, 39, 26, 132], 2636, 27803, 167149,
    38.190491009971396, 3, 65.47799696509864,
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


@pytest.mark.parametrize(
    "executor",
    [
        "simulated",
        pytest.param("multiprocessing:2", marks=pytest.mark.slow),
        pytest.param("socket:2", marks=pytest.mark.slow),
    ],
)
def test_dsubsim_is_diimm_on_ic(small_wc_graph, executor):
    """D-SUBSIM's row picks the SUBSIM rule name, not another sampler: on
    IC it draws DIIMM's sets and returns DIIMM's answer on every executor."""
    subsim = distributed_subsim(small_wc_graph, 4, 3, eps=0.5, seed=11, executor=executor)
    reference = diimm(small_wc_graph, 4, 3, eps=0.5, seed=11, executor=executor)
    assert subsim.algorithm == "DSUBSIM"
    assert subsim.seeds == reference.seeds
    assert subsim.num_rr_sets == reference.num_rr_sets
    assert subsim.total_rr_size == reference.total_rr_size
    assert subsim.estimated_spread == reference.estimated_spread

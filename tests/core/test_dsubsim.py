"""Unit tests for distributed SUBSIM."""

import pytest

from repro.core import distributed_subsim, imm


class TestDistributedSubsim:
    def test_label_and_method(self, medium_wc_graph):
        # D-SUBSIM draws with the keyed IC kernel, DIIMM's: the same sets.
        from repro.core import diimm

        result = distributed_subsim(medium_wc_graph, 5, 4, eps=0.5, seed=0)
        assert result.algorithm == "DSUBSIM"
        assert result.model == "ic"
        reference = diimm(medium_wc_graph, 5, 4, eps=0.5, seed=0)
        assert result.num_rr_sets == reference.num_rr_sets
        assert result.total_rr_size == reference.total_rr_size

    def test_returns_k_seeds(self, medium_wc_graph):
        result = distributed_subsim(medium_wc_graph, 5, 4, eps=0.5, seed=0)
        assert len(result.seeds) == 5

    def test_quality_matches_bfs_variant(self, medium_wc_graph):
        from repro.core import diimm

        bfs = diimm(medium_wc_graph, 10, 4, eps=0.5, seed=1)
        sub = distributed_subsim(medium_wc_graph, 10, 4, eps=0.5, seed=1)
        assert sub.estimated_spread == pytest.approx(
            bfs.estimated_spread, rel=0.1
        )

    def test_scales_like_diimm(self, medium_wc_graph):
        """Fig 7's point: the speedup of distributed SUBSIM over
        single-machine SUBSIM mirrors DIIMM over IMM."""
        single = imm(medium_wc_graph, 5, eps=0.5, method="subsim", seed=1)
        distributed = distributed_subsim(medium_wc_graph, 5, 8, eps=0.5, seed=1)
        assert (
            distributed.breakdown["generation"]
            < single.breakdown["generation"] / 3
        )

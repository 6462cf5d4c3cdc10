"""Unit tests for the RRSample container and sampler factory."""

import numpy as np
import pytest

from repro.ris import (
    SubsimSampler,
    VectorizedICSampler,
    VectorizedLTSampler,
    make_sampler,
)
from repro.ris.rrset import RRSample


class TestRRSample:
    def test_len_and_contains(self):
        sample = RRSample(nodes=np.array([1, 4, 7]), root=4, edges_examined=5)
        assert len(sample) == 3
        assert 4 in sample
        assert 2 not in sample
        assert 8 not in sample

    def test_contains_boundary(self):
        sample = RRSample(nodes=np.array([0, 9]), root=0, edges_examined=0)
        assert 9 in sample
        assert 10 not in sample


class TestFactory:
    def test_ic_bfs(self, small_wc_graph):
        # "bfs" and "vectorized" are the one keyed kernel.
        for method in ("bfs", "vectorized"):
            assert type(make_sampler(small_wc_graph, "ic", method)) is VectorizedICSampler

    def test_ic_subsim(self, small_wc_graph):
        assert isinstance(make_sampler(small_wc_graph, "ic", "subsim"), SubsimSampler)

    def test_lt(self, small_wc_graph):
        for method in ("bfs", "vectorized"):
            assert type(make_sampler(small_wc_graph, "lt", method)) is VectorizedLTSampler

    def test_lt_subsim_rejected(self, small_wc_graph):
        with pytest.raises(ValueError, match="IC model only"):
            make_sampler(small_wc_graph, "lt", "subsim")

    def test_unknown_model(self, small_wc_graph):
        with pytest.raises(ValueError, match="unknown diffusion model"):
            make_sampler(small_wc_graph, "sir")

    def test_unknown_method(self, small_wc_graph):
        with pytest.raises(ValueError, match="unknown sampling method"):
            make_sampler(small_wc_graph, "ic", "quantum")

    def test_case_insensitive(self, small_wc_graph):
        assert isinstance(make_sampler(small_wc_graph, "IC", "SUBSIM"), SubsimSampler)

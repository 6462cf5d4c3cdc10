"""Tests for the communication-scaling experiment."""

from repro.experiments import communication_scaling


class TestCommunicationScaling:
    def test_fixed_pool_invariants(self):
        rows = communication_scaling(
            dataset="facebook", machine_counts=(1, 2, 4), num_rr_sets=2000, k=10
        )
        # Identical coverage on every layout: the pool is fixed and
        # NEWGREEDI is layout-invariant (Lemma 2).
        assert len({row["coverage"] for row in rows}) == 1
        # Traffic grows with the machine count.
        assert rows[-1]["comm_mb"] >= rows[0]["comm_mb"]

    def test_communication_below_computation(self):
        # Computation is measured wall time and grows with the pool, while
        # traffic is bounded by the node count.  At the experiment's own
        # pool size selection dominates; at 2,000 sets both sit near
        # 0.7 ms and the ratio is a coin toss.
        rows = communication_scaling(
            dataset="facebook", machine_counts=(4,), num_rr_sets=20000, k=10
        )
        assert rows[0]["comm_over_comp"] < 1.0

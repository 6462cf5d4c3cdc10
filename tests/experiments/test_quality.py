"""Tests for the seed-quality comparison experiment."""

from repro.experiments import heterogeneity, seed_quality_comparison


class TestSeedQuality:
    def test_diimm_competitive(self):
        rows = seed_quality_comparison(
            datasets=["facebook"], k=10, eps=0.6, num_machines=2, mc_samples=150
        )
        by_strategy = {row["strategy"]: row for row in rows}
        assert set(by_strategy) == {
            "DIIMM", "max-degree", "single-discount",
            "degree-discount", "pagerank", "random",
        }
        # DIIMM is the guaranteed method: within a whisker of the best.
        assert by_strategy["DIIMM"]["vs_best"] >= 0.95
        # Random seeding is clearly worse on a heavy-tailed graph.
        assert by_strategy["random"]["mc_spread"] < by_strategy["DIIMM"]["mc_spread"]


class TestFrameworkComparison:
    def test_reduced_run(self):
        from repro.experiments import framework_comparison

        # eps=0.4, not looser: D-OPIM-C stops at ~460 RR sets at eps=0.6,
        # where its seeds' spread swings 0.73-0.94 of the best with the seed.
        rows = framework_comparison(
            datasets=["facebook"], k=10, eps=0.4, num_machines=2, mc_samples=100
        )
        frameworks = {row["framework"] for row in rows}
        assert frameworks == {"DIIMM", "DSSA", "DOPIM-C", "DSUBSIM"}
        assert all(row["vs_best_spread"] >= 0.85 for row in rows)
        # The adaptive-stopping frameworks need fewer RR sets than DIIMM.
        by_name = {row["framework"]: row for row in rows}
        assert by_name["DOPIM-C"]["num_rr_sets"] < by_name["DIIMM"]["num_rr_sets"]


class TestHeterogeneityAblation:
    def test_weighted_beats_even(self):
        # Each split's time is the best of three calls of identical work (a
        # set is a pure function of its coordinates, so only the box's noise
        # differs between them).  Every call times both splits in turn, so a
        # slow spell of the box reaches both.
        times = {"even": [], "weighted": []}
        for _ in range(3):
            rows = heterogeneity(
                dataset="facebook", num_machines=4, num_rr_sets=2000, max_slowdown=3.0
            )
            even, weighted = (next(r for r in rows if r["strategy"] == s) for s in times)
            assert even["vs_weighted"] == round(
                even["parallel_gen_s"] / weighted["parallel_gen_s"], 2
            )
            for row in (even, weighted):
                times[row["strategy"]].append(row["parallel_gen_s"])
        assert min(times["even"]) > min(times["weighted"])

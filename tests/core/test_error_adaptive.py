"""Tests for the error-adaptive stopping rule.

Mechanics (doubling, capping, stop conditions), checkpoint round-trip,
and the headline behavioural claim: on an easy instance the adaptive
rule stops with strictly fewer RR sets than the IMM theta schedule
while landing on comparable seeds.
"""

import math

import pytest

from repro.api import RunConfig, run
from repro.core.bounds import ImmParameters
from repro.core.diimm import REGISTRY
from repro.core.driver import ErrorAdaptiveRule, ImmScheduleRule
from repro.coverage.greedy import GreedyResult
from repro.coverage.sketch import hll_relative_error


def selection_with_coverage(coverage: float, num_elements: int) -> GreedyResult:
    return GreedyResult(
        seeds=[0], coverage=coverage, num_elements=num_elements, marginals=[coverage]
    )


class TestRuleMechanics:
    def make_rule(self, **overrides):
        kwargs = dict(
            n=1000, eps=0.3, delta=0.01, theta_initial=100, theta_max=10_000
        )
        kwargs.update(overrides)
        return ErrorAdaptiveRule(**kwargs)

    def test_validation(self):
        with pytest.raises(ValueError, match="eps"):
            self.make_rule(eps=0.0)
        with pytest.raises(ValueError, match="delta"):
            self.make_rule(delta=1.0)
        with pytest.raises(ValueError, match="theta_initial"):
            self.make_rule(theta_initial=0)
        with pytest.raises(ValueError, match="unreachable"):
            self.make_rule(sketch_rel_error=0.3)

    def test_doubles_until_measured_error_clears_eps(self):
        rule = self.make_rule()
        plan = rule.next_round()
        assert plan.targets == {"main": 100}
        assert plan.accepts is None  # this rule reads a failing selection
        # Tiny coverage: huge sampling error, keep going with doubled theta.
        assert rule.check(None, selection_with_coverage(5.0, 100), plan) is False
        assert rule.theta == 200
        assert rule.measured_error == pytest.approx(
            math.sqrt(3 * math.log(2 / 0.01) / 5)
        )
        # Large coverage: error below eps, stop.
        plan = rule.next_round()
        big = 3 * math.log(2 / 0.01) / 0.3**2 * 2
        assert rule.check(None, selection_with_coverage(big, 10_000), plan) is True
        assert rule.measured_error <= 0.3
        assert rule.search_rounds == 2

    def test_theta_capped_and_termination_unconditional(self):
        rule = self.make_rule(theta_initial=6000)
        rule.next_round()
        assert rule.check(None, selection_with_coverage(1.0, 6000), rule) is False
        assert rule.theta == 10_000  # min(2 * 6000, cap)
        rule.next_round()
        # Still terrible error, but theta hit the cap: must stop anyway.
        assert rule.check(None, selection_with_coverage(1.0, 10_000), rule) is True
        assert rule.measured_error > rule.eps

    def test_sketch_noise_floor_is_added(self):
        noisy = self.make_rule(sketch_rel_error=0.1)
        clean = self.make_rule()
        selection = selection_with_coverage(500.0, 1000)
        noisy.next_round(), clean.next_round()
        noisy.check(None, selection, None)
        clean.check(None, selection, None)
        assert noisy.measured_error == pytest.approx(clean.measured_error + 0.1)
        assert noisy.lower_bound < clean.lower_bound

    def test_lower_bound_discounts_by_measured_error(self):
        rule = self.make_rule()
        rule.next_round()
        rule.check(None, selection_with_coverage(400.0, 1000), None)
        expected = 1000 * 0.4 / (1.0 + rule.measured_error)
        assert rule.lower_bound == pytest.approx(expected)

    def test_state_dict_round_trip(self):
        rule = self.make_rule()
        rule.next_round()
        rule.check(None, selection_with_coverage(5.0, 100), None)
        state = rule.state_dict()
        fresh = self.make_rule()
        fresh.load_state_dict(state)
        for attr in (
            "theta",
            "rounds",
            "measured_error",
            "sampling_error",
            "lower_bound",
            "search_rounds",
        ):
            assert getattr(fresh, attr) == getattr(rule, attr), attr

    def test_round_labels_carry_the_round_index(self):
        rule = self.make_rule()
        assert rule.next_round().label == "adaptive-1"
        assert rule.next_round().label == "adaptive-2"


class TestFactory:
    def make_config(self, graph, **overrides):
        kwargs = dict(graph=graph, k=3, machines=2, eps=0.4, seed=0)
        kwargs.update(overrides)
        return RunConfig(**kwargs)

    def make_rule(self, graph, **overrides):
        """The rule DIIMM's row of the table builds for this config."""
        config = self.make_config(graph, **overrides)
        return REGISTRY["diimm"].make_rule(config, graph.num_nodes, 0.01)

    def test_schedule_is_the_default(self, small_wc_graph):
        assert isinstance(self.make_rule(small_wc_graph), ImmScheduleRule)

    def test_error_adaptive_wiring(self, small_wc_graph):
        params = ImmParameters.compute(small_wc_graph.num_nodes, 3, 0.4, 0.01)
        rule = self.make_rule(small_wc_graph, stopping="error-adaptive")
        assert isinstance(rule, ErrorAdaptiveRule)
        assert rule.theta == min(params.theta_for_round(1), rule.theta_max)
        assert rule.theta_max == params.theta_final(3.0)
        assert rule.sketch_rel_error == 0.0
        # theta_initial override and the sketch noise floor both thread in.
        rule = self.make_rule(
            small_wc_graph,
            stopping="error-adaptive",
            backend="sketch",
            theta_initial=64,
        )
        assert rule.theta == 64
        assert rule.sketch_rel_error == pytest.approx(hll_relative_error(10))


class TestEndToEnd:
    def test_stops_earlier_than_schedule_on_easy_instance(self, small_wc_graph):
        base = dict(graph=small_wc_graph, k=3, machines=2, eps=0.4, seed=7)
        schedule = run("diimm", RunConfig(**base))
        adaptive = run("diimm", RunConfig(**base, stopping="error-adaptive"))
        assert adaptive.num_rr_sets < schedule.num_rr_sets
        assert adaptive.num_rr_sets <= schedule.num_rr_sets // 2
        # Comparable answer quality: spreads within 15% of each other.
        assert adaptive.estimated_spread == pytest.approx(
            schedule.estimated_spread, rel=0.15
        )

    def test_adaptive_works_with_sketch_backend(self, small_wc_graph):
        result = run(
            "diimm",
            RunConfig(
                graph=small_wc_graph,
                k=3,
                machines=2,
                eps=0.4,
                seed=7,
                backend="sketch",
                stopping="error-adaptive",
            ),
        )
        assert len(result.seeds) == 3
        assert result.search_rounds >= 1

    def test_imm_honours_error_adaptive(self, small_wc_graph):
        base = dict(graph=small_wc_graph, k=3, eps=0.4, seed=7)
        schedule = run("imm", RunConfig(**base))
        adaptive = run("imm", RunConfig(**base, stopping="error-adaptive"))
        assert adaptive.num_rr_sets < schedule.num_rr_sets

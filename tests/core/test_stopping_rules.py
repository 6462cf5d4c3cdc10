"""Each StoppingRule in isolation, against hand-built coverage states.

The rules only see two things: the round's selection (a
:class:`~repro.coverage.greedy.GreedyResult`) and a driver-like context
offering ``total_sets`` / ``coverage_of``.  Stubbing both lets the tests
pin every documented trigger threshold without running any sampling.
"""

from __future__ import annotations

import math

import pytest

from repro.core.bounds import (
    ImmParameters,
    opim_opt_upper_bound,
    opim_spread_lower_bound,
)
from repro.core.config import RunConfig
from repro.core.diimm import REGISTRY
from repro.core.driver import (
    ImmScheduleRule,
    OpimStoppingRule,
    StareStoppingRule,
)
from repro.coverage.greedy import GreedyResult


class StubDriver:
    """Driver stand-in: fixed collection sizes and coverage answers."""

    def __init__(self, sets=None, coverage=None):
        self._sets = sets or {}
        self._coverage = coverage or {}
        self.coverage_labels = []

    def total_sets(self, key):
        return self._sets[key]

    def coverage_of(self, key, seeds, label):
        self.coverage_labels.append(label)
        return self._coverage[key]


def selection(coverage, num_elements, seeds=(0, 1)):
    return GreedyResult(
        seeds=list(seeds), coverage=coverage, num_elements=num_elements
    )


class TestImmScheduleRule:
    N, K, EPS, DELTA = 1000, 5, 0.5, 1e-3

    def make(self):
        return ImmScheduleRule(ImmParameters.compute(self.N, self.K, self.EPS, self.DELTA))

    def test_search_round_targets_follow_schedule(self):
        rule = self.make()
        plan = rule.next_round()
        assert plan.label == "search-1"
        assert plan.targets == {"main": rule.params.theta_for_round(1)}
        # No certification -> next round doubles the guess.
        rule.check(None, selection(0, plan.targets["main"]), plan)
        plan2 = rule.next_round()
        assert plan2.label == "search-2"
        assert plan2.targets == {"main": rule.params.theta_for_round(2)}

    def test_certification_threshold(self):
        rule = self.make()
        plan = rule.next_round()
        num = plan.targets["main"]
        x = self.N / 2.0
        # Exactly at the bar: n * coverage/num >= (1 + eps') * x certifies.
        bar = (1.0 + rule.params.eps_prime) * x
        covering = math.ceil(bar * num / self.N)
        assert not rule.check(None, selection(covering, num), plan)
        assert rule.final_pending
        assert rule.lower_bound == pytest.approx(
            self.N * covering / num / (1.0 + rule.params.eps_prime)
        )
        assert rule.search_rounds == 1
        final = rule.next_round()
        assert final.label == "final"
        assert final.targets == {"main": rule.params.theta_final(rule.lower_bound)}
        # The final round's check always stops.
        assert rule.check(None, selection(covering, num), final)

    def test_only_search_rounds_carry_the_acceptance_test(self):
        """``plan.accepts`` is the expression ``check`` decides with, at the
        round the plan was made for; the final plan has none."""
        rule = self.make()
        first = rule.next_round()
        num = first.targets["main"]
        bar = (1.0 + rule.params.eps_prime) * (self.N / 2.0)
        covering = math.ceil(bar * num / self.N)
        assert first.accepts == rule.certifies
        assert (first.accepts(covering - 1, num), first.accepts(covering, num)) == (False, True)
        assert not first.accepts(num, 0)  # an empty collection certifies nothing
        rule.check(None, selection(covering - 1, num), first)
        second = rule.next_round()
        assert second.accepts(covering - 1, num)  # round 2 halves the bar
        rule.check(None, selection(covering - 1, num), second)
        assert rule.final_pending
        assert rule.next_round().accepts is None

    def test_below_threshold_keeps_searching(self):
        rule = self.make()
        plan = rule.next_round()
        num = plan.targets["main"]
        bar = (1.0 + rule.params.eps_prime) * (self.N / 2.0)
        below = math.ceil(bar * num / self.N) - 1
        assert not rule.check(None, selection(below, num), plan)
        assert not rule.final_pending
        assert rule.lower_bound == 1.0

    def test_exhausted_search_falls_through_with_trivial_bound(self):
        rule = self.make()
        for __ in range(rule.params.max_search_rounds):
            plan = rule.next_round()
            assert not rule.check(None, selection(0, plan.targets["main"]), plan)
        assert rule.final_pending
        assert rule.lower_bound == 1.0
        assert rule.search_rounds == rule.params.max_search_rounds

    def test_state_dict_round_trip(self):
        rule = self.make()
        plan = rule.next_round()
        rule.check(None, selection(plan.targets["main"], plan.targets["main"]), plan)
        restored = self.make()
        restored.load_state_dict(rule.state_dict())
        assert restored.state_dict() == rule.state_dict()
        assert restored.next_round() == rule.next_round()

    def test_subsim_variant_shares_schedule(self):
        """IMM, DIIMM and D-SUBSIM run the one schedule, under its name."""
        config = RunConfig(graph=None, k=self.K, eps=self.EPS)
        for name in ("imm", "diimm", "dsubsim"):
            rule = REGISTRY[name].make_rule(config, self.N, self.DELTA)
            assert type(rule) is ImmScheduleRule and rule.name == "imm-schedule"
            assert rule.next_round() == self.make().next_round()


class TestStareStoppingRule:
    N = 1000

    def make(self, eps_1=0.2, min_coverage=50.0, theta_initial=100, theta_max=1000):
        return StareStoppingRule(
            self.N,
            eps_1=eps_1,
            min_coverage=min_coverage,
            theta_initial=theta_initial,
            theta_max=theta_max,
        )

    def test_consistent_and_supported_stops(self):
        rule = self.make()
        plan = rule.next_round()
        assert plan.targets == {"select": 100, "verify": 100}
        assert plan.accepts is None  # this rule reads a failing selection
        # Verification agrees exactly -> consistent; coverage 60 >= 50.
        driver = StubDriver(
            sets={"select": 100, "verify": 100}, coverage={"verify": 60}
        )
        assert rule.check(driver, selection(60, 100), plan)
        assert rule.verify_estimate == pytest.approx(self.N * 60 / 100)
        assert driver.coverage_labels == ["round-1/stare"]

    def test_inconsistent_verification_doubles(self):
        rule = self.make()
        plan = rule.next_round()
        # Select estimate 600, verify estimate 400: 400 < 600 / 1.2 = 500.
        driver = StubDriver(
            sets={"select": 100, "verify": 100}, coverage={"verify": 40}
        )
        assert not rule.check(driver, selection(60, 100), plan)
        assert rule.theta == 200
        assert rule.next_round().targets == {"select": 200, "verify": 200}

    def test_unsupported_coverage_doubles(self):
        rule = self.make(min_coverage=61.0)
        plan = rule.next_round()
        # Perfectly consistent but coverage 60 < min_coverage 61.
        driver = StubDriver(
            sets={"select": 100, "verify": 100}, coverage={"verify": 60}
        )
        assert not rule.check(driver, selection(60, 100), plan)
        assert rule.theta == 200

    def test_theta_cap_forces_stop(self):
        rule = self.make(theta_initial=1000, theta_max=1000)
        plan = rule.next_round()
        driver = StubDriver(
            sets={"select": 1000, "verify": 1000}, coverage={"verify": 0}
        )
        # Inconsistent and unsupported, but theta is at the cap.
        assert rule.check(driver, selection(10, 1000), plan)

    def test_doubling_clamps_to_cap(self):
        rule = self.make(theta_initial=600, theta_max=1000)
        plan = rule.next_round()
        driver = StubDriver(
            sets={"select": 600, "verify": 600}, coverage={"verify": 0}
        )
        assert not rule.check(driver, selection(10, 600), plan)
        assert rule.theta == 1000

    def test_state_dict_round_trip(self):
        rule = self.make()
        plan = rule.next_round()
        driver = StubDriver(
            sets={"select": 100, "verify": 100}, coverage={"verify": 40}
        )
        rule.check(driver, selection(60, 100), plan)
        restored = self.make()
        restored.load_state_dict(rule.state_dict())
        assert restored.state_dict() == rule.state_dict()
        assert restored.next_round() == rule.next_round()


class TestOpimStoppingRule:
    N = 1000

    def make(self, eps=0.1, theta_initial=100, i_max=5, a=2.0):
        return OpimStoppingRule(
            self.N, eps=eps, theta_initial=theta_initial, i_max=i_max, a=a
        )

    def test_certified_ratio_matches_bounds_and_stops(self):
        rule = self.make(theta_initial=10000)
        plan = rule.next_round()
        assert plan.targets == {"R1": 10000, "R2": 10000}
        assert plan.accepts is None  # this rule reads a failing selection
        # Near-total coverage on large collections certifies immediately:
        # the ratio (~0.61) clears 1 - 1/e - 0.1 (~0.53).
        driver = StubDriver(sets={"R1": 10000, "R2": 10000}, coverage={"R2": 9500})
        assert rule.check(driver, selection(9500, 10000), plan)
        expected = opim_spread_lower_bound(
            9500, 10000, self.N, 2.0
        ) / opim_opt_upper_bound(9500, 10000, self.N, 2.0)
        assert rule.certified_ratio == pytest.approx(expected)
        assert rule.certified_ratio >= 1.0 - 1.0 / math.e - rule.eps
        assert rule.estimated_spread == pytest.approx(self.N * 9500 / 10000)
        assert driver.coverage_labels == ["round-1/validate"]

    def test_uncertified_doubles(self):
        rule = self.make()
        plan = rule.next_round()
        driver = StubDriver(sets={"R1": 100, "R2": 100}, coverage={"R2": 5})
        assert not rule.check(driver, selection(5, 100), plan)
        assert rule.certified_ratio < 1.0 - 1.0 / math.e - rule.eps
        assert rule.theta == 200
        assert rule.next_round().targets == {"R1": 200, "R2": 200}

    def test_round_budget_forces_stop(self):
        rule = self.make(i_max=1)
        plan = rule.next_round()
        driver = StubDriver(sets={"R1": 100, "R2": 100}, coverage={"R2": 5})
        # Uncertified, but i_max = 1 is spent.
        assert rule.check(driver, selection(5, 100), plan)

    def test_empty_collections_do_not_divide_by_zero(self):
        rule = self.make(i_max=3)
        plan = rule.next_round()
        driver = StubDriver(sets={"R1": 0, "R2": 0}, coverage={"R2": 0})
        assert not rule.check(driver, selection(0, 0), plan)
        assert rule.estimated_spread == 0.0
        assert rule.certified_ratio == 0.0

    def test_state_dict_round_trip(self):
        rule = self.make()
        plan = rule.next_round()
        driver = StubDriver(sets={"R1": 100, "R2": 100}, coverage={"R2": 5})
        rule.check(driver, selection(5, 100), plan)
        restored = self.make()
        restored.load_state_dict(rule.state_dict())
        assert restored.state_dict() == rule.state_dict()
        assert restored.next_round() == rule.next_round()

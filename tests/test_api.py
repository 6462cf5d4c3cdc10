"""The ``repro.api.run`` facade: dispatch, validation, shim equivalence.

The legacy keyword entry points are now thin shims over the same
``*_from_config`` implementations the facade dispatches to, so both
call styles must return bit-identical results for equal parameters.
"""

from __future__ import annotations

import pytest

import repro
from repro.api import ALGORITHMS, RunConfig, run
from repro.cluster.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.cluster.spec import MultiprocessingSpec
from repro.core import diimm, distributed_opimc, distributed_ssa, distributed_subsim, imm
from repro.core.config import BACKENDS, METHODS, MODELS, STOPPINGS


def assert_same_result(a, b):
    assert a.seeds == b.seeds
    assert a.estimated_spread == b.estimated_spread
    assert a.num_rr_sets == b.num_rr_sets
    assert a.total_rr_size == b.total_rr_size
    assert a.algorithm == b.algorithm


class TestDispatch:
    def test_algorithms_registry(self):
        assert ALGORITHMS == ("imm", "diimm", "dssa", "dsubsim", "dopimc")

    def test_unknown_algorithm_rejected(self, small_wc_graph):
        config = RunConfig(graph=small_wc_graph, k=2)
        with pytest.raises(ValueError, match="unknown algorithm 'greedy'"):
            run("greedy", config)

    @pytest.mark.parametrize("name", ["DIIMM", "di-imm", "DI_IMM", "diimm"])
    def test_names_normalize(self, small_wc_graph, name):
        config = RunConfig(graph=small_wc_graph, k=2, machines=2, seed=3)
        reference = run("diimm", config)
        assert_same_result(run(name, config), reference)

    def test_exported_from_package_root(self):
        assert repro.run is run
        assert repro.RunConfig is RunConfig
        assert repro.ALGORITHMS is ALGORITHMS


class TestShimEquivalence:
    """facade(config) == legacy keyword shim, for every algorithm."""

    def test_imm(self, small_wc_graph):
        via_facade = run("imm", RunConfig(graph=small_wc_graph, k=3, eps=0.5, seed=7))
        via_shim = imm(small_wc_graph, 3, eps=0.5, seed=7)
        assert_same_result(via_facade, via_shim)

    def test_diimm(self, small_wc_graph):
        via_facade = run(
            "diimm", RunConfig(graph=small_wc_graph, k=3, machines=3, eps=0.5, seed=7)
        )
        via_shim = diimm(small_wc_graph, 3, 3, eps=0.5, seed=7)
        assert_same_result(via_facade, via_shim)

    def test_dssa(self, small_wc_graph):
        via_facade = run(
            "dssa", RunConfig(graph=small_wc_graph, k=3, machines=3, eps=0.5, seed=7)
        )
        via_shim = distributed_ssa(small_wc_graph, 3, 3, eps=0.5, seed=7)
        assert_same_result(via_facade, via_shim)

    def test_dsubsim(self, small_wc_graph):
        via_facade = run(
            "dsubsim", RunConfig(graph=small_wc_graph, k=3, machines=3, eps=0.5, seed=7)
        )
        via_shim = distributed_subsim(small_wc_graph, 3, 3, eps=0.5, seed=7)
        assert_same_result(via_facade, via_shim)

    def test_dopimc(self, small_wc_graph):
        via_facade = run(
            "dopimc", RunConfig(graph=small_wc_graph, k=3, machines=3, eps=0.5, seed=7)
        )
        via_shim = distributed_opimc(small_wc_graph, 3, 3, eps=0.5, seed=7)
        assert_same_result(via_facade, via_shim)

    def test_shim_forwards_fault_kwargs(self, small_wc_graph):
        """The legacy shims accept faults/retry and stay invariant."""
        reference = diimm(small_wc_graph, 3, 3, eps=0.5, seed=7)
        faulty = diimm(
            small_wc_graph, 3, 3, eps=0.5, seed=7,
            faults="crash@m1", retry=RetryPolicy(max_attempts=3),
        )
        assert_same_result(faulty, reference)
        assert faulty.metrics.recovery_events_of("crash")


class TestExternalResources:
    """run() borrows executors/pools it is handed and never closes them."""

    def test_lent_executor_is_reused_not_closed(self, small_wc_graph):
        from repro.cluster.cluster import SimulatedCluster
        from repro.cluster.executor import make_executor

        config = RunConfig(graph=small_wc_graph, k=3, machines=3, eps=0.5, seed=7)
        cold = run("diimm", config)
        cluster = SimulatedCluster(3, seed=7)
        executor = make_executor("simulated", cluster, graph=small_wc_graph)
        try:
            first = run("diimm", config, executor=executor)
            assert_same_result(first, cold)
            # Still open: the same executor serves further runs.  The lent
            # RNG streams are never rewound (warm pools depend on them
            # continuing), so the repeat draws fresh samples — it must
            # succeed, not repeat bit-for-bit.
            again = run("diimm", config, executor=executor)
            assert len(again.seeds) == 3
            # Per-run metrics fold into the lender's lifetime metrics.
            assert len(cluster.metrics.phases) == (
                len(first.metrics.phases) + len(again.metrics.phases)
            )
        finally:
            executor.close()

    def test_lent_executor_machine_count_must_match(self, small_wc_graph):
        from repro.cluster.cluster import SimulatedCluster
        from repro.cluster.executor import make_executor

        cluster = SimulatedCluster(2, seed=7)
        executor = make_executor("simulated", cluster, graph=small_wc_graph)
        try:
            with pytest.raises(ValueError, match="machines"):
                run(
                    "diimm",
                    RunConfig(graph=small_wc_graph, k=3, machines=4, seed=7),
                    executor=executor,
                )
        finally:
            executor.close()

    @pytest.mark.parametrize("algorithm", ["dssa", "dopimc"])
    def test_lent_executor_works_for_unpoolable_algorithms(
        self, small_wc_graph, algorithm
    ):
        from repro.cluster.cluster import SimulatedCluster
        from repro.cluster.executor import make_executor

        config = RunConfig(graph=small_wc_graph, k=3, machines=3, eps=0.5, seed=7)
        cold = run(algorithm, config)
        cluster = SimulatedCluster(3, seed=7)
        executor = make_executor("simulated", cluster, graph=small_wc_graph)
        try:
            assert_same_result(run(algorithm, config, executor=executor), cold)
        finally:
            executor.close()


class TestValidation:
    """Every validate() branch raises a ValueError naming the field."""

    @pytest.mark.parametrize(
        ("overrides", "message"),
        [
            (dict(graph=None), "config.graph"),
            (dict(k=0), "config.k must be >= 1"),
            (dict(eps=0.0), r"config.eps must be in \(0, 1\)"),
            (dict(eps=1.0), r"config.eps must be in \(0, 1\)"),
            (dict(machines=0), "config.machines must be >= 1"),
            (dict(delta=0.0), r"config.delta must be in \(0, 1\) or None"),
            (dict(delta=1.5), r"config.delta must be in \(0, 1\) or None"),
            (dict(model="sir"), "config.model must be one of"),
            (dict(method="dfs"), "config.method must be one of"),
            (dict(backend="sqlite"), "config.backend must be one of"),
            (dict(executor="mpi"), "config.executor must be one of"),
            (dict(executor=MultiprocessingSpec(processes=0)), "config.executor is invalid"),
            (dict(theta_initial=0), "config.theta_initial must be >= 1 or None"),
            (dict(resume=True), "config.resume requires config.checkpoint_dir"),
        ],
    )
    def test_each_branch(self, small_wc_graph, overrides, message):
        base = dict(graph=small_wc_graph, k=2)
        base.update(overrides)
        config = RunConfig(**base)
        with pytest.raises(ValueError, match=message):
            config.validate()

    def test_dsubsim_rejects_lt(self, small_wc_graph):
        config = RunConfig(graph=small_wc_graph, k=2, model="lt")
        with pytest.raises(ValueError, match="config.model must be 'ic' for dsubsim"):
            run("dsubsim", config)
        config.validate()  # fine without the per-algorithm constraint

    def test_facade_validates_before_running(self, small_wc_graph):
        with pytest.raises(ValueError, match="config.k must be >= 1"):
            run("diimm", RunConfig(graph=small_wc_graph, k=0))

    def test_validate_returns_self_for_chaining(self, small_wc_graph):
        config = RunConfig(graph=small_wc_graph, k=2)
        assert config.validate() is config

    def test_vocabulary_constants(self):
        assert BACKENDS == ("flat", "reference", "sketch")
        assert MODELS == ("ic", "lt")
        assert METHODS == ("bfs", "subsim", "vectorized")
        assert STOPPINGS == ("schedule", "error-adaptive")


class TestRunConfig:
    def test_fault_string_parsed_on_construction(self, small_wc_graph):
        config = RunConfig(graph=small_wc_graph, k=2, faults="crash@m1;straggler@m0x2")
        assert isinstance(config.faults, FaultPlan)
        assert config.faults.specs[0] == FaultSpec("crash", 1)

    def test_bad_fault_string_rejected_on_construction(self, small_wc_graph):
        with pytest.raises(ValueError, match="cannot parse fault spec"):
            RunConfig(graph=small_wc_graph, k=2, faults="meteor@m1")

    def test_with_overrides_copies(self, small_wc_graph):
        config = RunConfig(graph=small_wc_graph, k=2, model="ic")
        other = config.with_overrides(model="lt", machines=4)
        assert (other.model, other.machines) == ("lt", 4)
        assert (config.model, config.machines) == ("ic", 1)

    def test_frozen(self, small_wc_graph):
        config = RunConfig(graph=small_wc_graph, k=2)
        with pytest.raises(AttributeError):
            config.k = 3

    def test_describe_is_json_friendly(self, small_wc_graph):
        import json

        config = RunConfig(
            graph=small_wc_graph,
            k=2,
            faults="crash@m1",
            retry=RetryPolicy(max_attempts=2),
        )
        description = config.describe()
        assert description["graph"] == f"graph(n={small_wc_graph.num_nodes})"
        assert description["faults"] == "crash@m1"
        json.dumps(description)

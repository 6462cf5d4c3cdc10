"""The ``repro.api.run`` facade: dispatch, validation, registry conformance.

The keyword entry points build a ``RunConfig`` and call the same
``repro.core.diimm.run`` the facade does, so both call styles must
return bit-identical results for equal parameters, and every row of the
algorithm table must do what its facts say.
"""

from __future__ import annotations

import pytest

import repro
from repro.api import ALGORITHMS, RunConfig, run
from repro.cluster.faults import FaultPlan, FaultSpec, RetryPolicy
from repro.cluster.network import gigabit_cluster
from repro.cluster.spec import MultiprocessingSpec
from repro.core import diimm, distributed_opimc, distributed_ssa, distributed_subsim, imm
from repro.core.config import BACKENDS, MODELS, STOPPINGS
from repro.ris import METHOD_VESTIGES
from repro.core.diimm import REGISTRY
from repro.core.pool import SamplePool

KEYWORD_FUNCTIONS = {
    "imm": imm,
    "diimm": diimm,
    "dssa": distributed_ssa,
    "dsubsim": distributed_subsim,
    "dopimc": distributed_opimc,
}


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


@pytest.mark.parametrize("name", ALGORITHMS)
class TestRegistryConformance:
    """Every row of the algorithm table, through every door."""

    def config(self, graph, name, **overrides):
        machines = 1 if REGISTRY[name].single_machine else 3
        return RunConfig(graph=graph, k=3, machines=machines, eps=0.5, seed=7, **overrides)

    def test_keyword_function_equals_run(self, small_wc_graph, name):
        via_facade = run(name, self.config(small_wc_graph, name))
        machines = () if REGISTRY[name].single_machine else (3,)
        via_keywords = KEYWORD_FUNCTIONS[name](small_wc_graph, 3, *machines, eps=0.5, seed=7)
        assert_same_result(via_facade, via_keywords)
        assert via_facade.algorithm == REGISTRY[name].label

    def test_lent_executor_accepted(self, small_wc_graph, name):
        from repro.cluster.cluster import SimulatedCluster
        from repro.cluster.executor import make_executor

        config = self.config(small_wc_graph, name)
        cold = run(name, config)
        for machines in (config.machines, config.machines + 1):
            cluster = SimulatedCluster(machines, seed=7)
            executor = make_executor("simulated", cluster, graph=small_wc_graph)
            try:
                if machines == config.machines:
                    assert_same_result(run(name, config, executor=executor), cold)
                else:
                    with pytest.raises(ValueError, match="machines"):
                        run(name, config, executor=executor)
            finally:
                executor.close()

    def test_pool_accepted_exactly_when_poolable(self, small_wc_graph, name):
        """Every row is poolable: each collection key is its own draw."""
        config = self.config(small_wc_graph, name)
        with SamplePool(small_wc_graph, machines=config.machines, seed=7) as pool:
            assert_same_result(run(name, config, pool=pool), run(name, config))

    @pytest.mark.parametrize(
        ("overrides", "message"),
        [
            (dict(backend="sketch"), "stopping certificate assumes exact coverage"),
            (dict(stopping="error-adaptive"), "owns its own stopping certificate"),
        ],
    )
    def test_exact_count_rows_refuse_estimates(
        self, small_wc_graph, name, overrides, message
    ):
        config = self.config(small_wc_graph, name, **overrides)
        if REGISTRY[name].exact_counts:
            with pytest.raises(ValueError, match=message):
                config.validate(name)
        else:
            assert config.validate(name) is config


class TestShimEquivalence:
    def test_shim_forwards_fault_kwargs(self, small_wc_graph):
        """The keyword functions forward faults/retry and stay invariant."""
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
            # Still open: the same executor serves further runs.  Sets are
            # keyed by coordinates and the executor carries no RNG state,
            # so the repeat redraws the first run exactly.
            again = run("diimm", config, executor=executor)
            assert_same_result(again, cold)
            # Per-run metrics fold into the lender's lifetime metrics.
            assert len(executor.metrics.phases) == (
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

    @pytest.mark.parametrize(
        ("shape", "message"),
        [
            (dict(seed=1), "seed=7 but the lent executor has 1"),
            (dict(seed=7, network=gigabit_cluster()), "network="),
        ],
    )
    def test_lent_executor_seed_and_network_must_match(self, small_wc_graph, shape, message):
        """A lent executor draws at its own seed and prices with its own
        network: one that differs from the config's would silently answer
        another run than the cold one, so it is refused."""
        from repro.cluster.cluster import SimulatedCluster
        from repro.cluster.executor import make_executor

        config = RunConfig(graph=small_wc_graph, k=3, machines=2, eps=0.5, seed=7)
        executor = make_executor("simulated", SimulatedCluster(2, **shape), graph=small_wc_graph)
        try:
            with pytest.raises(ValueError, match=message):
                run("diimm", config, executor=executor)
            assert executor.metrics.phases == []
        finally:
            executor.close()

    def test_lent_executor_with_the_configs_network_accepted(self, small_wc_graph):
        from repro.cluster.cluster import SimulatedCluster
        from repro.cluster.executor import make_executor

        config = RunConfig(
            graph=small_wc_graph, k=3, machines=2, eps=0.5, seed=7, network=gigabit_cluster()
        )
        shape = SimulatedCluster(2, network=gigabit_cluster(), seed=7)
        with make_executor("simulated", shape, graph=small_wc_graph) as executor:
            assert_same_result(run("diimm", config, executor=executor), run("diimm", config))

    @pytest.mark.parametrize("algorithm", ["dssa", "dopimc"])
    def test_lent_executor_works_for_unpoolable_algorithms(
        self, small_wc_graph, algorithm
    ):
        """The two-collection rules on a lent executor."""
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
        # The ``method`` vestige is not stored, so it is checked on
        # construction; every other field by validate().
        with pytest.raises(ValueError, match=message):
            RunConfig(**base).validate()

    def test_retired_reference_backend_refused(self, small_wc_graph):
        config = RunConfig(graph=small_wc_graph, k=2, backend="reference")
        with pytest.raises(ValueError, match=r"\('flat', 'sketch'\)"):
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
        assert BACKENDS == ("flat", "sketch")
        assert MODELS == ("ic", "lt")
        assert METHOD_VESTIGES == ("bfs", "subsim", "vectorized")
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

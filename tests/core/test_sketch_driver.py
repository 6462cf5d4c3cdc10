"""Driver- and config-level tests for the sketch coverage backend.

Pins the early ``RunConfig.validate`` refusals for unsupported combos,
the warm-pool rejection, the golden-seed bit-determinism of sketch runs
across all three executors, and the peak-memory accounting satellite.
"""

import pytest

from repro.api import RunConfig, run
from repro.core.pool import SamplePool
from repro.graphs import VersionedGraph


def sketch_config(graph, **overrides):
    kwargs = dict(graph=graph, k=3, machines=2, eps=0.4, seed=0, backend="sketch")
    kwargs.update(overrides)
    return RunConfig(**kwargs)


class TestConfigValidation:
    def test_sketch_is_a_known_backend(self, small_wc_graph):
        sketch_config(small_wc_graph).validate("diimm")
        with pytest.raises(ValueError, match="config.backend must be one of"):
            sketch_config(small_wc_graph, backend="hll").validate()

    def test_precision_range_and_type(self, small_wc_graph):
        with pytest.raises(ValueError, match=r"sketch_precision must be an int in \[4, 16\]"):
            sketch_config(small_wc_graph, sketch_precision=3).validate()
        with pytest.raises(ValueError, match="sketch_precision must be an int"):
            sketch_config(small_wc_graph, sketch_precision=10.0).validate()
        sketch_config(small_wc_graph, sketch_precision=4).validate("diimm")
        sketch_config(small_wc_graph, sketch_precision=16).validate("diimm")

    def test_dynamic_graph_refused(self, small_wc_graph):
        config = sketch_config(VersionedGraph(small_wc_graph))
        with pytest.raises(
            ValueError,
            match="does not support dynamic-graph repair: register banks "
            "cannot retract",
        ):
            config.validate("diimm")

    def test_checkpoint_and_resume_refused(self, small_wc_graph, tmp_path):
        config = sketch_config(small_wc_graph, checkpoint_dir=str(tmp_path))
        with pytest.raises(
            ValueError, match="does not support checkpoint/resume: the register journal"
        ):
            config.validate("diimm")

    @pytest.mark.parametrize("algorithm", ["dssa", "dopimc"])
    def test_exact_only_algorithms_refused(self, small_wc_graph, algorithm):
        with pytest.raises(
            ValueError, match="stopping certificate assumes exact coverage counts"
        ):
            sketch_config(small_wc_graph).validate(algorithm)

    @pytest.mark.parametrize("algorithm", ["imm", "diimm", "dsubsim"])
    def test_schedule_algorithms_accepted(self, small_wc_graph, algorithm):
        sketch_config(small_wc_graph).validate(algorithm)

    def test_unknown_stopping_rejected(self, small_wc_graph):
        """Each algorithm has one stopping rule: none is chosen by a knob."""
        for stopping in ("schedule", "error-adaptive"):
            with pytest.raises(TypeError, match="stopping"):
                RunConfig(graph=small_wc_graph, k=3, stopping=stopping)

    def test_refusals_fire_through_entry_points(self, small_wc_graph):
        for algorithm in ("dssa", "dopimc"):
            with pytest.raises(ValueError, match="exact coverage counts"):
                run(algorithm, sketch_config(small_wc_graph))


class TestWarmPoolRejection:
    def test_check_config_refuses_sketch_with_hint(self, small_wc_graph):
        config = sketch_config(small_wc_graph, machines=2)
        with SamplePool(small_wc_graph, machines=2, seed=0) as pool:
            with pytest.raises(
                ValueError,
                match="warm pools are flat-store only.*sketch register banks "
                "cannot be windowed",
            ):
                pool.check_config(config, machines=2)

    def test_serving_a_sketch_query_warm_refuses(self, small_wc_graph):
        config = sketch_config(small_wc_graph, machines=2)
        with SamplePool(small_wc_graph, machines=2, seed=0) as pool:
            with pytest.raises(ValueError, match="flat-store only"):
                run("diimm", config, pool=pool)


class TestCrossExecutorDeterminism:
    """Golden-seed conformance: the sketch path is bit-deterministic."""

    GOLDEN = {}

    @pytest.mark.parametrize(
        "executor", ["simulated", "multiprocessing", "socket"]
    )
    def test_identical_seeds_and_spread(self, small_wc_graph, executor):
        result = run(
            "diimm",
            sketch_config(small_wc_graph, machines=3, seed=11, executor=executor),
        )
        key = "diimm"
        snapshot = (
            tuple(result.seeds),
            result.estimated_spread,
            result.num_rr_sets,
        )
        if key in self.GOLDEN:
            assert snapshot == self.GOLDEN[key], (
                f"{executor} diverged from {self.GOLDEN[key]}"
            )
        else:
            self.GOLDEN[key] = snapshot

    def test_repeat_run_is_bit_identical(self, small_wc_graph):
        config = sketch_config(small_wc_graph, seed=3)
        first = run("diimm", config)
        second = run("diimm", config)
        assert first.seeds == second.seeds
        assert first.estimated_spread == second.estimated_spread

    def test_imm_sketch_single_machine(self, small_wc_graph):
        result = run("imm", RunConfig(graph=small_wc_graph, k=3, backend="sketch"))
        assert len(result.seeds) == 3
        assert len(set(result.seeds)) == 3


class TestMemoryAccounting:
    def test_memory_summary_populated_for_both_backends(self, small_wc_graph):
        flat = run("diimm", RunConfig(graph=small_wc_graph, k=3, machines=2, seed=0))
        sketch = run("diimm", sketch_config(small_wc_graph, seed=0))
        for result in (flat, sketch):
            memory = result.metrics.memory_summary()
            assert memory["rr_store_nbytes"] > 0
            assert memory["coverage_nbytes"] > 0
            assert (
                memory["peak_nbytes"]
                == memory["rr_store_nbytes"] + memory["coverage_nbytes"]
            )
        # The sketch store is a fixed-size bank; at 200 nodes the flat CSR
        # store is larger per the same run despite exactness.
        n = small_wc_graph.num_nodes
        assert sketch.metrics.rr_store_nbytes == 2 * n * 1024

    def test_record_memory_keeps_peaks_and_merges(self):
        from repro.cluster.metrics import RunMetrics

        metrics = RunMetrics()
        metrics.record_memory(rr_store_nbytes=100, coverage_nbytes=10)
        metrics.record_memory(rr_store_nbytes=50, coverage_nbytes=40)
        assert metrics.rr_store_nbytes == 100
        assert metrics.coverage_nbytes == 40
        other = RunMetrics()
        other.record_memory(rr_store_nbytes=700)
        metrics.merge(other)
        assert metrics.memory_summary() == {
            "rr_store_nbytes": 700,
            "coverage_nbytes": 40,
            "peak_nbytes": 740,
        }

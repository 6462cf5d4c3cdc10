"""ExecutorSpec: parsing, validation and coercion.

The declarative spec is the only way to choose and configure an
executor; these tests pin the shorthand grammar (parse/describe
round-trips), the validation messages, and that every entry point
(``make_executor``, ``RunConfig``, ``SamplePool``, ``InfluenceService``)
accepts a spec or its shorthand.
"""

import dataclasses
import multiprocessing

import pytest

from repro.cluster import (
    EXECUTORS,
    ExecutorSpec,
    MultiprocessingSpec,
    SimulatedCluster,
    SimulatedExecutor,
    SimulatedSpec,
    SocketSpec,
    as_spec,
    make_executor,
    spec_summary,
)
from repro.core.config import RunConfig
from repro.core.pool import SamplePool
from repro.graphs import VersionedGraph
from repro.serve.service import InfluenceService


class TestRegistry:
    def test_all_kinds_registered(self):
        assert EXECUTORS == ("simulated", "multiprocessing", "socket")
        assert tuple(ExecutorSpec.parse(kind).kind for kind in EXECUTORS) == EXECUTORS

    def test_specs_are_frozen(self):
        spec = MultiprocessingSpec(processes=2)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.processes = 4


class TestParseDescribe:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("simulated", SimulatedSpec()),
            ("multiprocessing", MultiprocessingSpec()),
            ("multiprocessing:4", MultiprocessingSpec(processes=4)),
            ("socket", SocketSpec()),
            ("socket:3", SocketSpec(workers=3)),
            (
                "socket:127.0.0.1:9100,9101",
                SocketSpec(addresses=(("127.0.0.1", 9100), ("127.0.0.1", 9101))),
            ),
            (
                "socket:a:1;b:2,3",
                SocketSpec(addresses=(("a", 1), ("b", 2), ("b", 3))),
            ),
        ],
    )
    def test_parse(self, text, expected):
        assert ExecutorSpec.parse(text) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "simulated",
            "multiprocessing",
            "multiprocessing:4",
            "socket",
            "socket:3",
            "socket:127.0.0.1:9100,9101",
            "socket:a:1;b:2,3",
        ],
    )
    def test_describe_round_trips(self, text):
        spec = ExecutorSpec.parse(text)
        assert ExecutorSpec.parse(spec.describe()) == spec
        assert str(spec) == spec.describe()

    @pytest.mark.parametrize(
        "text", ["", "mpi", "simulated:2", "socket:host", "multiprocessing:x"]
    )
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            ExecutorSpec.parse(text)


class TestValidateCoerce:
    def test_as_spec_identity_and_default(self):
        spec = SocketSpec(workers=2)
        assert as_spec(spec) is spec
        assert as_spec(None) == SimulatedSpec()
        assert as_spec("multiprocessing:2") == MultiprocessingSpec(processes=2)

    def test_as_spec_rejects_garbage(self):
        with pytest.raises(ValueError):
            as_spec(42)

    @pytest.mark.parametrize(
        "spec",
        [
            MultiprocessingSpec(processes=0),
            SocketSpec(workers=0),
            SocketSpec(workers=2, addresses=(("h", 1),)),
            SocketSpec(addresses=(("h", 0),)),
            SocketSpec(connect_timeout=0.0),
            SocketSpec(heartbeat_timeout=-1.0),
            MultiprocessingSpec(start_method="greenlet"),
        ],
    )
    def test_validate_rejects(self, spec):
        with pytest.raises(ValueError):
            spec.validate()

    def test_with_overrides(self):
        spec = SocketSpec().with_overrides(workers=3)
        assert spec.workers == 3 and spec.kind == "socket"

    def test_spec_summary_is_compact(self):
        assert spec_summary(SimulatedSpec()) == {"kind": "simulated"}
        assert spec_summary(MultiprocessingSpec(processes=2)) == {
            "kind": "multiprocessing",
            "processes": 2,
        }


class TestFactory:
    def test_make_executor_accepts_spec_and_string(self, small_wc_graph):
        cluster = SimulatedCluster(2, seed=3)
        with make_executor(SimulatedSpec(), cluster, graph=small_wc_graph) as ex:
            assert isinstance(ex, SimulatedExecutor)
        with make_executor("simulated", cluster, graph=small_wc_graph) as ex:
            assert ex.name == "simulated"


class TestRunConfigShims:
    def test_executor_string_coerced_to_spec(self, small_wc_graph):
        config = RunConfig(graph=small_wc_graph, k=2, executor="multiprocessing:2")
        assert config.executor == MultiprocessingSpec(processes=2)

    def test_bad_executor_keeps_canonical_message(self, small_wc_graph):
        config = RunConfig(graph=small_wc_graph, k=2, executor="mpi")
        with pytest.raises(ValueError, match="config.executor must be one of"):
            config.validate()

    def test_invalid_spec_surfaces_in_validate(self, small_wc_graph):
        config = RunConfig(
            graph=small_wc_graph, k=2, executor=SocketSpec(workers=2, addresses=(("h", 1),))
        )
        with pytest.raises(ValueError, match="config.executor is invalid"):
            config.validate()

    def test_describe_uses_shorthand(self, small_wc_graph):
        config = RunConfig(graph=small_wc_graph, k=2, executor="multiprocessing:2")
        assert config.describe()["executor"] == "multiprocessing:2"


class TestPoolAndServiceShims:
    def test_sample_pool_accepts_spec(self, small_wc_graph):
        with SamplePool(small_wc_graph, 2, executor=SimulatedSpec()) as pool:
            assert pool.executor.name == "simulated"

    def test_sample_pool_init_failure_closes_executor(self, small_wc_graph, monkeypatch):
        closed = []
        import repro.cluster.executor as executor_mod
        import repro.core.pool as pool_mod

        original = pool_mod.make_executor

        def tracking(*args, **kwargs):
            ex = original(*args, **kwargs)
            real_close = ex.close
            ex.close = lambda: (closed.append(True), real_close())
            return ex

        def refusing(*args, **kwargs):
            raise RuntimeError("kernel refused")

        monkeypatch.setattr(pool_mod, "make_executor", tracking)
        # A dynamic pool builds its kernel at once, after the executor.
        monkeypatch.setattr(executor_mod, "make_sampler", refusing)
        with pytest.raises(RuntimeError, match="kernel refused"):
            SamplePool(VersionedGraph(small_wc_graph), 1)
        assert closed

    @pytest.mark.parametrize("dynamic", [False, True])
    def test_sample_pool_refuses_unknown_model_before_executor(
        self, small_wc_graph, monkeypatch, dynamic
    ):
        import repro.core.pool as pool_mod

        made = []
        original = pool_mod.make_executor
        monkeypatch.setattr(
            pool_mod, "make_executor", lambda *a, **kw: made.append(original(*a, **kw))
        )
        graph = VersionedGraph(small_wc_graph) if dynamic else small_wc_graph
        children = set(multiprocessing.active_children())
        with pytest.raises(ValueError, match="unknown diffusion model"):
            SamplePool(graph, 2, model="nope", executor="multiprocessing:2")
        assert made == []
        assert set(multiprocessing.active_children()) == children

    def test_service_accepts_shorthand(self, small_wc_graph):
        service = InfluenceService(small_wc_graph, machines=2, executor="multiprocessing:2")
        service.close()
        service.close()  # idempotent

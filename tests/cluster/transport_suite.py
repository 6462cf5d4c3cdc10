"""The worker-transport suite: one body of tests, run on every transport.

``multiprocessing`` (socketpair) and ``socket`` (loopback TCP) share one
worker loop, one channel class and one ``_dispatch``; they differ only
in how a channel obtains its stream.  Every behaviour of that shared
implementation is therefore pinned once, here, on a suite class with a
``transport`` attribute, and instantiated per transport by the thin
``Test*`` subclasses in ``test_dataplane.py`` (multiprocessing) and
``test_socket.py`` (socket).  Tests drive the executor at the
``_dispatch`` seam unless they need a whole phase or run.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import subprocess
import sys
import textwrap
import time
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.api import run
from repro.cluster import (
    GENERATION,
    FaultPlan,
    FaultToleranceExceeded,
    GeneratePhase,
    MultiprocessingSpec,
    RetryPolicy,
    SimulatedCluster,
    SocketSpec,
    make_executor,
)
from repro.cluster.faults import CORRUPT, CRASH, DROP
from repro.cluster.parallel import START_METHOD_ENV
from repro.core.config import RunConfig
from repro.graphs.digraph import DirectedGraph
from repro.ris import FlatRRCollection, make_sampler
from repro.ris.rrset import sample_set_range

MACHINES = 3
COUNTS = (14, 9, 21)


def shm_segments() -> set:
    """Names of live POSIX shared-memory segments created by Python."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except FileNotFoundError:  # non-Linux: fall back to "nothing visible"
        return set()


def build(spec, graph, num_machines=MACHINES, seed=5, **kwargs):
    cluster = SimulatedCluster(num_machines, seed=seed)
    return make_executor(spec, cluster, graph=graph, **kwargs)


def flat_stores(graph, num_machines=MACHINES):
    """One empty store per machine: what a generation phase appends to."""
    return tuple(FlatRRCollection(graph.num_nodes) for __ in range(num_machines))


def generate(graph, label, counts, **options):
    """A generation plan growing fresh stores, one per entry of ``counts``."""
    return GeneratePhase(label, counts=counts, targets=flat_stores(graph, len(counts)), **options)


def snapshot(executor, stores):
    return (
        [store.nodes.tolist() for store in stores],
        [store.num_sets for store in stores],
        [m.rng.bit_generator.state for m in executor.machines],
    )


def run_and_snapshot(spec, graph, plan, **kwargs):
    """Run ``plan`` on a fresh executor into fresh stores."""
    stores = flat_stores(graph, len(plan.counts))
    with build(spec, graph, **kwargs) as executor:
        executor.run_phase(replace(plan, targets=stores))
        return snapshot(executor, stores), executor.metrics


def wave(executor, counts, model="ic", method="bfs", seed=0, starts=None):
    """One ``_dispatch`` wave over the first ``len(counts)`` machines of a
    resolved plan (what ``_run_generate`` hands ``_attempt_wave``)."""
    ids = list(range(len(counts)))
    padded = tuple(counts) + (0,) * (executor.num_machines - len(counts))
    plan = GeneratePhase(
        "t/wave",
        counts=padded,
        targets=flat_stores(executor.graph, len(padded)),
        model=model,
        method=method,
        seed=seed,
        starts=starts or (0,) * len(padded),
    )
    return plan, ids


class TransportSuite:
    """Base of every suite; subclasses set ``transport``."""

    transport: str

    def spec(self, workers=None, **options):
        """The transport's spec; ``workers`` is its process-count field."""
        if self.transport == "multiprocessing":
            return MultiprocessingSpec(processes=workers, **options)
        return SocketSpec(workers=workers, **options)

    def build(self, graph, workers=None, num_machines=MACHINES, faults=None, retry=None, **options):
        return build(self.spec(workers, **options), graph, num_machines, faults=faults, retry=retry)


# ----------------------------------------------------------------------
# Bit-identity, dispatch contract, start-method selection
# ----------------------------------------------------------------------
class ConformanceSuite(TransportSuite):
    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    @pytest.mark.parametrize("zero_copy", [True, False])
    def test_matches_simulated_backend(self, small_wc_graph, zero_copy, start_method):
        if start_method not in mp.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable")
        plan = generate(small_wc_graph, "t/gen", (15, 10, 5))
        golden, _ = run_and_snapshot("simulated", small_wc_graph, plan)
        with self.build(small_wc_graph, start_method=start_method, zero_copy=zero_copy) as executor:
            executor.run_phase(plan)
            assert executor.zero_copy == zero_copy
            assert executor.start_method == start_method
            assert snapshot(executor, plan.targets) == golden

    @pytest.mark.parametrize("model,method", [("ic", "bfs"), ("lt", "bfs"), ("ic", "subsim")])
    def test_bit_identical_to_other_backends(self, small_wc_graph, model, method):
        plan = generate(small_wc_graph, "t/gen", COUNTS, model=model, method=method)
        golden, _ = run_and_snapshot("simulated", small_wc_graph, plan)
        got, _ = run_and_snapshot(self.spec(), small_wc_graph, plan)
        assert got == golden

    def test_per_set_scheme_bit_identical(self, small_wc_graph):
        plan = generate(small_wc_graph, "t/perset", COUNTS, key="k", seed=123, starts=(0, 14, 23))
        golden, _ = run_and_snapshot("simulated", small_wc_graph, plan)
        got, _ = run_and_snapshot(self.spec(), small_wc_graph, plan)
        # Draws never touch the machine streams, so the RNG states are
        # unchanged on both sides.
        assert got == golden
        # Explicit coordinates: the defaults (cluster seed, "main", the
        # stores' sizes) would have drawn other sets.
        assert got != run_and_snapshot("simulated", small_wc_graph, replace(plan, key="main"))[0]
        assert got != run_and_snapshot("simulated", small_wc_graph, replace(plan, seed=None))[0]
        assert got != run_and_snapshot("simulated", small_wc_graph, replace(plan, starts=None))[0]

    @pytest.mark.parametrize(
        "fault,logged",
        [
            ("crash@m1", "crash"),
            ("crash-hard@m1", "disconnect"),  # real workers see the broken stream at once
            ("disconnect@m1", "disconnect"),
            ("drop@m1", "timeout"),
            ("corrupt@m1", "corruption"),
            ("straggler@m1x3", "straggler-wait"),
        ],
    )
    def test_per_set_scheme_bit_identical_under_faults(self, small_wc_graph, fault, logged):
        plan = generate(small_wc_graph, "t/perset", COUNTS, key="k", seed=123, starts=(0, 14, 23))
        golden, _ = run_and_snapshot("simulated", small_wc_graph, plan)
        got, metrics = run_and_snapshot(
            self.spec(2),
            small_wc_graph,
            plan,
            faults=FaultPlan.parse(fault),
            retry=RetryPolicy(max_attempts=2, phase_timeout=3.0),
        )
        assert got == golden
        assert logged in [event.kind for event in metrics.recovery_events]

    @pytest.mark.parametrize("zero_copy", [True, False])
    def test_fault_directives_in_both_broadcast_modes(self, small_wc_graph, zero_copy):
        with self.build(small_wc_graph, workers=1, zero_copy=zero_copy) as executor:
            outcomes = executor._dispatch(
                *wave(executor, [5, 5, 5]), directives=[None, CRASH, CORRUPT]
            )
        assert outcomes[0].error is None and outcomes[0].batch.count == 5
        assert outcomes[1].error.startswith("crash:")
        assert outcomes[2].error.startswith("corruption:")
        assert outcomes[2].nbytes > 0  # the corrupted payload did arrive

    def test_worker_error_captured_per_machine(self, small_wc_graph):
        # A first index of 2**63 passes the plan's checks but not the
        # int64 id array, so the draw raises inside the worker; it is
        # reported per machine instead of blowing up the whole wave.
        with self.build(small_wc_graph) as executor:
            ok, bad = executor._dispatch(*wave(executor, [3, 3], starts=(0, 2**63, 0)))
        assert ok.error is None and ok.batch.count == 3
        assert ok.nbytes > 0
        assert bad.batch is None and bad.nbytes == 0
        assert "OverflowError" in bad.error

    def test_caller_rngs_not_advanced(self, small_wc_graph):
        """No generator travels: a wave leaves every machine stream where
        it was, and a repeat of the wave redraws the same bytes."""
        with self.build(small_wc_graph) as executor:
            before = [m.rng.bit_generator.state for m in executor.machines]
            (first,) = executor._dispatch(*wave(executor, [5]))
            (again,) = executor._dispatch(*wave(executor, [5]))
            assert [m.rng.bit_generator.state for m in executor.machines] == before
        np.testing.assert_array_equal(first.batch.nodes, again.batch.nodes)
        np.testing.assert_array_equal(first.batch.offsets, again.batch.offsets)

    def test_counts_rngs_length_checked(self, small_wc_graph):
        with self.build(small_wc_graph) as executor:
            with pytest.raises(ValueError, match="one entry per machine"):
                generate(small_wc_graph, "t/gen", (1, 2, 0), starts=(0,))
            with pytest.raises(ValueError, match="one entry per machine"):
                executor._dispatch(*wave(executor, [1, 2]), directives=[None])

    def test_empty_counts(self, small_wc_graph):
        with self.build(small_wc_graph) as executor:
            assert executor._dispatch(*wave(executor, [])) == []
            assert executor._channels is None  # nothing was spawned for it

    def test_env_var_selects_start_method(self, small_wc_graph, monkeypatch):
        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        assert self.build(small_wc_graph).start_method == "spawn"

    def test_explicit_method_beats_env_var(self, small_wc_graph, monkeypatch):
        monkeypatch.setenv(START_METHOD_ENV, "spawn")
        assert self.build(small_wc_graph, start_method="fork").start_method == "fork"

    def test_unknown_start_method_rejected(self, small_wc_graph, monkeypatch):
        with pytest.raises(ValueError, match="start_method"):
            self.build(small_wc_graph, start_method="teleport")
        monkeypatch.setenv(START_METHOD_ENV, "teleport")
        with pytest.raises(ValueError, match="unavailable"):
            self.build(small_wc_graph)

    def test_sequential_phases_share_connection(self, small_wc_graph):
        with self.build(small_wc_graph) as executor:
            one = generate(small_wc_graph, "t/one", COUNTS)
            executor.run_phase(one)
            executor.run_phase(GeneratePhase("t/two", counts=(5, 5, 5), targets=one.targets))
            phases = executor.metrics.phases_in(GENERATION)
            assert len(phases) == 2
            # Enrollment happens once, on the first phase.
            assert phases[0].round_trips > phases[1].round_trips
            assert [store.num_sets for store in one.targets] == [c + 5 for c in COUNTS]

    def test_heartbeat(self, small_wc_graph):
        with self.build(small_wc_graph) as executor:
            executor.run_phase(generate(small_wc_graph, "t/gen", (2, 2, 2)))
            latencies = executor.heartbeat()
            assert len(latencies) == len(executor._channels)
            assert all(lat is not None and lat >= 0.0 for lat in latencies)


# ----------------------------------------------------------------------
# Worker persistence, recovery, lifecycle
# ----------------------------------------------------------------------
class LifecycleSuite(TransportSuite):
    def test_workers_survive_across_phases(self, small_wc_graph):
        with self.build(small_wc_graph, workers=2) as executor:
            first = executor._dispatch(*wave(executor, [5, 5]))
            pids = [channel.process.pid for channel in executor._channels]
            second = executor._dispatch(*wave(executor, [5, 5], model="lt"))
            # Same processes: no re-spawn, no re-broadcast.
            assert [channel.process.pid for channel in executor._channels] == pids
            assert all(channel.process.is_alive() for channel in executor._channels)
        assert all(outcome.error is None for outcome in first + second)

    def test_retry_wave_keeps_machine_mod_workers_placement(self, small_wc_graph):
        """Machines 1 and 3 live on worker 1; the retry wave over just
        those two must go back there, not to positions 0 and 1."""
        faults = FaultPlan.parse("crash@m1;crash@m3")
        with self.build(small_wc_graph, workers=2, num_machines=4, faults=faults) as executor:
            plan = generate(small_wc_graph, "t/gen", (3, 3, 3, 3))
            executor.run_phase(plan)
            zero, one = executor._channels
            # enroll + machines 0, 2 once; enroll + machines 1, 3 twice.
            assert (zero.round_trips, one.round_trips) == (3, 5)
            assert [store.num_sets for store in plan.targets] == [3, 3, 3, 3]

    def test_executor_owns_one_pool_for_the_run(self, small_wc_graph):
        with self.build(small_wc_graph) as executor:
            executor.run_phase(generate(small_wc_graph, "t/one", (5, 5, 5)))
            channels = executor._channels
            streams = [channel.sock for channel in channels]
            executor.run_phase(generate(small_wc_graph, "t/two", (5, 5, 5)))
            # The same channels on the same streams: nothing was re-opened.
            assert executor._channels is channels
            assert [channel.sock for channel in channels] == streams

    def test_timeout_recycles_the_pool_then_recovers(self, small_wc_graph):
        with self.build(small_wc_graph, workers=1) as executor:
            (outcome,) = executor._dispatch(
                *wave(executor, [5]), directives=[DROP], timeout=1.0
            )
            assert outcome.error.startswith("timeout")
            # Late replies would desynchronize the stream, so it was dropped.
            assert executor._channels[0].sock is None
            (retry,) = executor._dispatch(*wave(executor, [5]), timeout=10.0)
            assert retry.error is None and retry.batch.count == 5

    def test_failed_send_fails_the_replies_still_owed_on_that_stream(
        self, small_wc_graph, monkeypatch
    ):
        """A worker that dies while the master is still writing the wave:
        the tasks already written to its stream can never be answered, and
        the next task on that channel starts a fresh stream."""
        with self.build(small_wc_graph, workers=1) as executor:
            executor._dispatch(*wave(executor, [1]))  # connect + enroll
            channel = executor._channels[0]
            real_send, sent = channel.send, []

            def send(op, body, timeout=None):
                sent.append(op)
                if len(sent) == 2:
                    raise BrokenPipeError("injected")
                return real_send(op, body, timeout)

            monkeypatch.setattr(channel, "send", send)
            first, second, third = executor._dispatch(
                *wave(executor, [3, 3, 3]), timeout=10.0
            )
            assert sent == ["generate", "generate", "enroll", "generate"]
        assert first.error.startswith("disconnect") and second.error.startswith("disconnect")
        assert third.error is None and third.batch.count == 3

    def test_closed_pool_rejects_further_phases(self, small_wc_graph):
        executor = self.build(small_wc_graph)
        executor.close()
        with pytest.raises(RuntimeError, match="closed"):
            executor._dispatch(*wave(executor, [1]))

    def test_context_manager_and_double_close(self, small_wc_graph):
        executor = self.build(small_wc_graph)
        with executor as entered:
            assert entered is executor
            executor.run_phase(generate(small_wc_graph, "t/gen", (2, 2, 2)))
        executor.close()  # second close is a no-op
        executor.close()

    def test_close_after_abort(self, small_wc_graph):
        executor = self.build(small_wc_graph)
        boom = generate(small_wc_graph, "t/gen", (2, 2))  # wrong machine count
        with pytest.raises(ValueError):
            with executor:
                executor.run_phase(boom)
                raise AssertionError("run_phase should have rejected the plan")
        executor.close()

    def test_refresh_graph_reenrolls(self, small_wc_graph):
        with self.build(small_wc_graph) as executor:
            one = generate(small_wc_graph, "t/one", (2, 2, 2))
            executor.run_phase(one)
            executor.refresh_graph()
            executor.run_phase(replace(one, label="t/two"))
            assert [store.num_sets for store in one.targets] == [4, 4, 4]

    # Under fork a worker started later inherits the master's end of every
    # earlier stream; a master that merely close()s its descriptor then
    # never delivers EOF, and the re-dialed enrollment sits out
    # connect_timeout (10 s) before failing as a disconnect.
    @pytest.mark.skipif("fork" not in mp.get_all_start_methods(), reason="needs fork")
    def test_refresh_then_phase_is_prompt_under_fork(self, small_wc_graph):
        with self.build(small_wc_graph, workers=2, start_method="fork") as executor:
            one = generate(small_wc_graph, "t/one", (2, 2, 2))
            executor.run_phase(one)
            started = time.monotonic()
            executor.refresh_graph()
            executor.run_phase(replace(one, label="t/two"))
            assert time.monotonic() - started < 3.0
            assert [store.num_sets for store in one.targets] == [4, 4, 4]

    @pytest.mark.skipif("fork" not in mp.get_all_start_methods(), reason="needs fork")
    def test_redial_after_phase_timeout_is_prompt_under_fork(self, small_wc_graph):
        plan = generate(small_wc_graph, "t/gen", (4, 4))
        retry = RetryPolicy(max_attempts=2, phase_timeout=1.0, backoff=0.0)
        golden, _ = run_and_snapshot("simulated", small_wc_graph, plan, num_machines=2)
        with self.build(
            small_wc_graph,
            workers=2,
            num_machines=2,
            start_method="fork",
            faults=FaultPlan.parse("drop@m0"),  # worker 0's stream predates worker 1
            retry=retry,
        ) as executor:
            started = time.monotonic()
            executor.run_phase(plan)
            # One expired deadline plus a re-dial and re-enrollment that
            # must not come anywhere near connect_timeout.
            assert time.monotonic() - started < 1.0 + 3.0
            assert snapshot(executor, plan.targets) == golden
            kinds = [event.kind for event in executor.metrics.recovery_events]
        assert kinds == ["timeout"]


# ----------------------------------------------------------------------
# Copy-based fallback
# ----------------------------------------------------------------------
class FallbackSuite(TransportSuite):
    @pytest.fixture
    def no_shared_memory(self, monkeypatch):
        def broken(self):
            raise OSError("no shared memory here")

        monkeypatch.setattr(DirectedGraph, "to_shared", broken)

    def test_degrades_to_copy_when_shared_memory_fails(self, small_wc_graph, no_shared_memory):
        with self.build(small_wc_graph) as executor:
            assert executor.zero_copy  # optimistic until the first export
            outcomes = executor._dispatch(*wave(executor, [8, 8, 8], seed=1))
            assert not executor.zero_copy
            assert all(o.error is None for o in outcomes)
        # Copies or views, the draws are the same bits.
        expected = sample_set_range(make_sampler(small_wc_graph, "ic"), 1, 0, range(8))
        np.testing.assert_array_equal(outcomes[0].batch.nodes, expected.nodes)

    def test_required_zero_copy_raises_instead_of_degrading(self, small_wc_graph, no_shared_memory):
        with self.build(small_wc_graph, zero_copy=True) as executor:
            with pytest.raises(OSError, match="no shared memory"):
                executor._dispatch(*wave(executor, [1]))


# ----------------------------------------------------------------------
# Shared-memory reclamation on every exit path
# ----------------------------------------------------------------------
_TEARDOWN_SCRIPT = textwrap.dedent(
    """
    import sys

    import numpy as np

    from repro.cluster import GeneratePhase, SimulatedCluster, make_executor
    from repro.graphs import erdos_renyi, weighted_cascade
    from repro.ris import FlatRRCollection

    if __name__ == "__main__":
        graph = weighted_cascade(erdos_renyi(200, 1200, np.random.default_rng(7)))
        cluster = SimulatedCluster(2, seed=5)
        stores = [FlatRRCollection(graph.num_nodes) for __ in range(2)]
        executor = make_executor(sys.argv[1] + ":2", cluster, graph=graph)
        executor.run_phase(GeneratePhase("t/gen", counts=(5, 5), targets=stores))
        assert executor.zero_copy
        executor.close()
    """
)


class ShmReclamationSuite(TransportSuite):
    def test_normal_close_reclaims(self, small_wc_graph):
        before = shm_segments()
        executor = self.build(small_wc_graph)
        executor.run_phase(generate(small_wc_graph, "t/gen", (5, 5, 5)))
        assert shm_segments() - before  # the graph block is live mid-run
        executor.close()
        assert shm_segments() <= before

    def test_killed_worker_does_not_leak(self, small_wc_graph):
        before = shm_segments()
        with self.build(small_wc_graph, workers=1) as executor:
            executor._dispatch(*wave(executor, [5]))
            executor._channels[0].process.kill()  # kill -9 from outside
            (outcome,) = executor._dispatch(*wave(executor, [5]), timeout=5.0)
            assert outcome.error.startswith("disconnect")
        assert shm_segments() <= before

    def config(self, graph, **extra):
        return RunConfig(
            graph=graph, k=4, machines=2, eps=0.7, seed=11, executor=self.spec(2), **extra
        )

    def test_aborted_run_reclaims(self, small_wc_graph):
        before = shm_segments()
        config = self.config(
            small_wc_graph,
            faults="crash@m1a*",
            retry=RetryPolicy(max_attempts=2, phase_timeout=20.0, reassign=False),
        )
        with pytest.raises(FaultToleranceExceeded):
            run("diimm", config)
        assert shm_segments() <= before

    def test_checkpoint_resume_reclaims_and_matches(self, small_wc_graph, tmp_path):
        before = shm_segments()
        config = self.config(small_wc_graph, checkpoint_dir=str(tmp_path / "run"))
        first = run("diimm", config)
        assert shm_segments() <= before
        resumed = run("diimm", replace(config, resume=True))
        assert resumed.seeds == first.seeds
        assert shm_segments() <= before

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_teardown_prints_no_resource_tracker_warning(self, tmp_path, start_method):
        """A worker that attached the block must be gone — and must never
        have started a resource tracker of its own — before the master
        unlinks it; either slip shows up on stderr at interpreter exit."""
        if start_method not in mp.get_all_start_methods():
            pytest.skip(f"{start_method} unavailable")
        script = tmp_path / "phase_and_close.py"
        script.write_text(_TEARDOWN_SCRIPT)
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = {**os.environ, START_METHOD_ENV: start_method, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, str(script), self.transport],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "leaked shared_memory" not in done.stderr
        assert "No such file" not in done.stderr


# ----------------------------------------------------------------------
# Wire accounting
# ----------------------------------------------------------------------
class WireAccountingSuite(TransportSuite):
    def test_payload_bytes_match_mp_accounting_and_wire_overhead(self, small_wc_graph):
        plan = generate(small_wc_graph, "t/gen", COUNTS)
        other = "socket" if self.transport == "multiprocessing" else "multiprocessing"
        _, other_metrics = run_and_snapshot(other, small_wc_graph, plan)
        with self.build(small_wc_graph) as executor:
            executor.run_phase(plan)
            batches = [(store.nodes, store.offsets) for store in plan.targets]
            record = executor.metrics.phases_in(GENERATION)[-1]

        # num_bytes is the transport-neutral payload accounting — identical
        # on the other transport — and the protocol is the same too, so
        # even the measured traffic agrees to the byte.
        other_record = other_metrics.phases_in(GENERATION)[-1]
        assert record.num_bytes == other_record.num_bytes
        assert record.wire_received == other_record.wire_received
        assert record.round_trips == other_record.round_trips

        # The payload is the delta+varint batch encoding plus a bounded
        # envelope (frame header, pickle scaffolding, RNG state) — far
        # below the raw (u64 node, u64 offset) tuple-vector size the
        # naive wire format would ship.
        raw = sum(8 * len(nodes) + 8 * len(offsets) for nodes, offsets in batches)
        assert 0 < record.num_bytes < raw

        # Measured traffic: replies carry each inner payload in one outer
        # frame, so received >= payload and the overhead is bounded;
        # requests went out and round trips completed.
        assert record.round_trips >= MACHINES
        assert record.wire_received >= record.num_bytes
        assert record.wire_received <= record.num_bytes + record.round_trips * 512
        assert record.wire_sent > 0

    def test_run_metrics_wire_summary(self, small_wc_graph):
        with self.build(small_wc_graph) as executor:
            executor.run_phase(generate(small_wc_graph, "t/gen", COUNTS))
            summary = executor.metrics.wire_summary()
        assert summary["wire_sent"] > 0
        assert summary["wire_received"] > 0
        assert summary["round_trips"] >= MACHINES
        # Simulated runs stay wire-free.
        with build("simulated", small_wc_graph) as executor:
            executor.run_phase(generate(small_wc_graph, "t/gen", COUNTS))
            assert executor.metrics.wire_summary() == {
                "wire_sent": 0,
                "wire_received": 0,
                "round_trips": 0,
            }

"""SocketExecutor: the transport suite over TCP, fault matrix, external workers.

The socket backend must be bit-identical to the simulated and
multiprocessing executors — healthy and under every injected fault kind —
while recording *measured* transport traffic (``wire_sent`` /
``wire_received`` / ``round_trips``) alongside the backend-neutral
``num_bytes`` payload accounting.  Everything it shares with the
``multiprocessing`` transport is pinned by
:mod:`tests.cluster.transport_suite`, instantiated here on loopback TCP;
the fault matrix and the external-worker tests are TCP's own.
"""

import multiprocessing as mp
import socket as socket_mod

import pytest

from repro.cluster import (
    FaultPlan,
    RetryPolicy,
    SimulatedCluster,
    SocketExecutor,
    SocketSpec,
    serve_worker,
)
from repro.ris.serialization import pack_message, read_frame

from . import transport_suite as suite
from .transport_suite import COUNTS, MACHINES, generate, run_and_snapshot, snapshot


class TestLoopbackConformance(suite.ConformanceSuite):
    transport = "socket"


class TestLifecycle(suite.LifecycleSuite):
    transport = "socket"


class TestFallback(suite.FallbackSuite):
    transport = "socket"


class TestShmReclamation(suite.ShmReclamationSuite):
    transport = "socket"


class TestWireAccounting(suite.WireAccountingSuite):
    transport = "socket"


RETRY = RetryPolicy(max_attempts=3, phase_timeout=5.0, backoff=0.0)

FAULT_MATRIX = [
    ("disconnect@m1", "disconnect"),
    ("crash@m0", "crash"),
    ("corrupt@m2", "corruption"),
    ("crash-hard@m0", "disconnect"),
    ("disconnect@m0;corrupt@m1;crash@m2", None),
]


class TestFaultMatrix:
    @pytest.mark.parametrize("plan_text,expected_kind", FAULT_MATRIX)
    def test_recovery_is_bit_identical(
        self, small_wc_graph, plan_text, expected_kind
    ):
        plan = generate(small_wc_graph, "t/gen", COUNTS)
        golden, _ = run_and_snapshot(
            "socket", small_wc_graph, plan, faults=FaultPlan.parse(""), retry=RETRY
        )
        got, metrics = run_and_snapshot(
            "socket", small_wc_graph, plan,
            faults=FaultPlan.parse(plan_text), retry=RETRY,
        )
        assert got == golden, plan_text
        assert metrics.recovery_events, plan_text
        if expected_kind is not None:
            assert any(
                e.kind == expected_kind for e in metrics.recovery_events
            ), (plan_text, [e.kind for e in metrics.recovery_events])

    def test_drop_detected_by_deadline(self, small_wc_graph):
        retry = RetryPolicy(max_attempts=3, phase_timeout=1.5, backoff=0.0)
        plan = generate(small_wc_graph, "t/gen", (4, 4, 4))
        golden, _ = run_and_snapshot(
            "socket", small_wc_graph, plan, faults=FaultPlan.parse(""), retry=retry
        )
        got, metrics = run_and_snapshot(
            "socket", small_wc_graph, plan,
            faults=FaultPlan.parse("drop@m1"), retry=retry,
        )
        assert got == golden
        assert any(e.kind == "timeout" for e in metrics.recovery_events)

    def test_matches_simulated_under_faults(self, small_wc_graph):
        plan = generate(small_wc_graph, "t/gen", COUNTS)
        faults = "crash@m1;corrupt@m0"
        sim, _ = run_and_snapshot(
            "simulated", small_wc_graph, plan,
            faults=FaultPlan.parse(faults), retry=RETRY,
        )
        sock, _ = run_and_snapshot(
            "socket", small_wc_graph, plan,
            faults=FaultPlan.parse(faults), retry=RETRY,
        )
        assert sock == sim


class TestExternalWorkers:
    def test_enroll_against_external_worker(self, small_wc_graph):
        ready: mp.Queue = mp.Queue()
        proc = mp.Process(
            target=serve_worker,
            args=("127.0.0.1", 0),
            kwargs={"ready": ready.put},
            daemon=True,
        )
        proc.start()
        port = ready.get(timeout=15)
        try:
            plan = generate(small_wc_graph, "t/gen", COUNTS)
            golden, _ = run_and_snapshot("simulated", small_wc_graph, plan)
            cluster = SimulatedCluster(MACHINES, seed=5)
            spec = SocketSpec(addresses=(("127.0.0.1", port),))
            with SocketExecutor(
                cluster, graph=small_wc_graph, spec=spec
            ) as executor:
                executor.run_phase(plan)
                assert snapshot(executor, plan.targets) == golden
            # close() must leave externally owned workers running.
            assert proc.is_alive()
            with socket_mod.create_connection(("127.0.0.1", port), timeout=5) as s:
                s.sendall(pack_message(("ping", 1, None)))
                op, seq, _ = read_frame(s.recv)
                assert (op, seq) == ("pong", 1)
        finally:
            proc.terminate()
            proc.join(timeout=5)

    def test_worker_protocol_rejects_unknown_token(self):
        ready: mp.Queue = mp.Queue()
        proc = mp.Process(
            target=serve_worker,
            args=("127.0.0.1", 0),
            kwargs={"ready": ready.put},
            daemon=True,
        )
        proc.start()
        port = ready.get(timeout=15)
        try:
            with socket_mod.create_connection(("127.0.0.1", port), timeout=5) as s:
                request = {
                    "token": "nope", "model": "ic", "method": "bfs",
                    "rng": None, "count": 1,
                }
                s.sendall(pack_message(("generate", 7, request)))
                op, seq, body = read_frame(s.recv)
                assert op == "error" and seq == 7
                assert "unknown enrollment token" in body[0]
        finally:
            proc.terminate()
            proc.join(timeout=5)

"""Fault-tolerance tests: injection, recovery, and seed-set invariance.

The tentpole guarantee: for *every* fault plan the executors recover
from, the final RR collections — and therefore the selected seed set and
its spread estimate — are bit-identical to a fault-free run.  Faults
change only the metered times and the recovery log.
"""

from __future__ import annotations

import json
import os
import signal
import time

import numpy as np
import pytest

from repro.api import run
from repro.cluster import MultiprocessingSpec, SimulatedCluster, SocketSpec, make_executor
from repro.cluster.executor import GeneratePhase, SimulatedExecutor
from repro.cluster.faults import (
    CORRUPT,
    CRASH,
    CRASH_HARD,
    DEFAULT_RETRY,
    DROP,
    FAULT_KINDS,
    STRAGGLER,
    FaultPlan,
    FaultSpec,
    FaultToleranceExceeded,
    PhaseTimeoutError,
    RetryPolicy,
)
from repro.cluster.tracing import summarize_recovery
from repro.core.config import RunConfig
from repro.ris import FlatRRCollection
from repro.ris.serialization import (
    MESSAGE_HEADER_BYTES,
    PayloadCorruptionError,
    pack_message,
    unpack_message,
)

RETRY = RetryPolicy(max_attempts=3, phase_timeout=30.0)


# ----------------------------------------------------------------------
# FaultSpec / FaultPlan units
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_matches_keys_on_machine_round_attempt(self):
        spec = FaultSpec(CRASH, machine=1, round_index=2, attempt=1)
        assert spec.matches(1, 2, 1)
        assert not spec.matches(0, 2, 1)
        assert not spec.matches(1, 3, 1)
        assert not spec.matches(1, 2, 2)

    def test_wildcards_match_every_round_and_attempt(self):
        spec = FaultSpec(CRASH, machine=0, round_index=None, attempt=None)
        for round_index in (None, 1, 7):
            for attempt in (1, 2, 3):
                assert spec.matches(0, round_index, attempt)

    def test_round_none_only_matches_round_none(self):
        spec = FaultSpec(CRASH, machine=0, round_index=3, attempt=1)
        assert not spec.matches(0, None, 1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="meteor", machine=0),
            dict(kind=CRASH, machine=-1),
            dict(kind=CRASH, machine=0, round_index=0),
            dict(kind=CRASH, machine=0, attempt=0),
            dict(kind=STRAGGLER, machine=0, factor=1.0),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**kwargs)

    def test_describe_roundtrips_through_parse(self):
        specs = [
            FaultSpec(CRASH, 1, round_index=2, attempt=1),
            FaultSpec(CRASH_HARD, 0),
            FaultSpec(STRAGGLER, 3, attempt=None, factor=3.5),
            FaultSpec(CORRUPT, 2, round_index=1),
            FaultSpec(DROP, 4, attempt=None),
        ]
        plan = FaultPlan(specs)
        assert FaultPlan.parse(plan.describe()) == plan


class TestFaultPlan:
    def test_parse_grammar(self):
        plan = FaultPlan.parse("crash@m1r2; straggler@m0x3.5, corrupt@m2a*")
        assert plan.specs == (
            FaultSpec(CRASH, 1, round_index=2, attempt=1),
            FaultSpec(STRAGGLER, 0, attempt=None, factor=3.5),
            FaultSpec(CORRUPT, 2, attempt=None),
        )

    def test_parse_empty_string_is_empty_plan(self):
        plan = FaultPlan.parse("")
        assert len(plan) == 0
        assert plan == FaultPlan()

    @pytest.mark.parametrize("text", ["crash", "crash@1", "boom@m1", "crash@m1r*a", "@m0"])
    def test_parse_rejects_malformed_specs(self, text):
        with pytest.raises(ValueError, match="cannot parse fault spec"):
            FaultPlan.parse(text)

    def test_failure_for_prefers_hard_failures_over_corruption(self):
        plan = FaultPlan.parse("corrupt@m1;crash@m1")
        fault = plan.failure_for(1, None, 1)
        assert fault is not None and fault.kind == CRASH

    def test_failure_for_ignores_stragglers(self):
        plan = FaultPlan.parse("straggler@m0x2")
        assert plan.failure_for(0, None, 1) is None
        assert plan.straggler_factor(0, None, 1) == 2.0

    def test_straggler_factors_multiply(self):
        plan = FaultPlan.parse("straggler@m0x2;straggler@m0x3")
        assert plan.straggler_factor(0, None, 1) == pytest.approx(6.0)
        assert plan.straggler_factor(1, None, 1) == 1.0

    def test_seeded_plan_is_reproducible(self):
        a = FaultPlan.seeded(7, num_machines=4, num_rounds=3)
        b = FaultPlan.seeded(7, num_machines=4, num_rounds=3)
        c = FaultPlan.seeded(8, num_machines=4, num_rounds=3)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c
        assert all(spec.kind in FAULT_KINDS for spec in a.specs)


class TestRetryPolicy:
    def test_backoff_is_exponential_after_first_attempt(self):
        policy = RetryPolicy(backoff=0.5)
        assert policy.delay_before(1) == 0.0
        assert policy.delay_before(2) == pytest.approx(0.5)
        assert policy.delay_before(3) == pytest.approx(1.0)
        assert policy.delay_before(4) == pytest.approx(2.0)

    def test_zero_backoff_never_delays(self):
        assert DEFAULT_RETRY.delay_before(5) == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [dict(max_attempts=0), dict(phase_timeout=0.0), dict(backoff=-1.0)],
    )
    def test_invalid_policies_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


# ----------------------------------------------------------------------
# CRC32 wire framing
# ----------------------------------------------------------------------
class TestMessageFraming:
    def test_roundtrip(self):
        payload = {"arrays": np.arange(5), "text": "hello"}
        restored = unpack_message(pack_message(payload))
        assert restored["text"] == "hello"
        np.testing.assert_array_equal(restored["arrays"], np.arange(5))

    def test_flipped_body_byte_fails_crc(self):
        blob = bytearray(pack_message([1, 2, 3]))
        blob[MESSAGE_HEADER_BYTES] ^= 0xFF
        with pytest.raises(PayloadCorruptionError, match="checksum"):
            unpack_message(bytes(blob))

    def test_bad_magic_rejected(self):
        blob = bytearray(pack_message("x"))
        blob[0] ^= 0xFF
        with pytest.raises(PayloadCorruptionError):
            unpack_message(bytes(blob))

    def test_truncated_message_rejected(self):
        blob = pack_message("payload")
        with pytest.raises(PayloadCorruptionError):
            unpack_message(blob[: MESSAGE_HEADER_BYTES - 2])
        with pytest.raises(PayloadCorruptionError):
            unpack_message(blob[:-1])


# ----------------------------------------------------------------------
# Crash matrix: seed-set invariance under every fault kind
# ----------------------------------------------------------------------
#: Plans the matrix proves invariant.  Each exercises a distinct recovery
#: path: transient crash (retry), persistent crash (reassignment),
#: straggler (no retry, time only), corruption (spoiled transfer, retry), silent
#: drop (timeout detection), and a pile-up of all of them at once.
MATRIX_PLANS = [
    "crash@m1",
    "crash@m2a*",
    "crash-hard@m1",
    "straggler@m0x3",
    "corrupt@m3",
    "drop@m1a*",
    "crash@m1r2",
    "crash@m0a*;drop@m1a*;corrupt@m2;straggler@m3x2",
]


def _diimm_config(graph, **overrides) -> RunConfig:
    base = dict(graph=graph, k=4, machines=4, eps=0.5, seed=11)
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def baseline(small_wc_graph):
    """The fault-free DIIMM run every matrix entry must reproduce."""
    return run("diimm", _diimm_config(small_wc_graph))


class TestCrashMatrixSimulated:
    @pytest.mark.parametrize("plan", MATRIX_PLANS)
    def test_seed_set_invariant_under_faults(self, small_wc_graph, baseline, plan):
        result = run("diimm", _diimm_config(small_wc_graph, faults=plan, retry=RETRY))
        assert result.seeds == baseline.seeds
        assert result.estimated_spread == baseline.estimated_spread
        assert result.num_rr_sets == baseline.num_rr_sets
        assert result.total_rr_size == baseline.total_rr_size
        assert result.metrics.recovery_events, "injected faults must be recorded"

    def test_empty_plan_changes_nothing_and_records_nothing(self, small_wc_graph, baseline):
        result = run("diimm", _diimm_config(small_wc_graph, faults=FaultPlan()))
        assert result.seeds == baseline.seeds
        assert result.estimated_spread == baseline.estimated_spread
        assert result.metrics.recovery_events == []

    def test_transient_crash_records_crash_events(self, small_wc_graph):
        result = run("diimm", _diimm_config(small_wc_graph, faults="crash@m1", retry=RETRY))
        crashes = result.metrics.recovery_events_of("crash")
        assert crashes and all(event.machine_id == 1 for event in crashes)
        assert result.metrics.recovery_time > 0.0
        # Transient: the retry succeeded, so no quota was reassigned.
        assert result.metrics.degraded_machines == ()

    def test_persistent_crash_triggers_reassignment(self, small_wc_graph):
        result = run("diimm", _diimm_config(small_wc_graph, faults="crash@m2a*", retry=RETRY))
        reassignments = result.metrics.recovery_events_of("reassignment")
        assert reassignments and all(event.machine_id == 2 for event in reassignments)
        assert 2 in result.metrics.degraded_machines
        breakdown = result.metrics.failure_breakdown()
        assert breakdown.get("crash", 0.0) > 0.0
        assert breakdown["degraded_machines"] >= 1.0

    def test_corruption_records_retransmission(self, small_wc_graph):
        result = run("diimm", _diimm_config(small_wc_graph, faults="corrupt@m3", retry=RETRY))
        corruptions = result.metrics.recovery_events_of("corruption")
        assert corruptions and corruptions[0].machine_id == 3

    def test_straggler_records_wait_and_slows_generation(self, small_wc_graph, baseline):
        result = run(
            "diimm", _diimm_config(small_wc_graph, faults="straggler@m0x3", retry=RETRY)
        )
        waits = result.metrics.recovery_events_of("straggler-wait")
        assert waits and waits[0].machine_id == 0
        assert result.metrics.generation_time > baseline.metrics.generation_time

    def test_round_targeted_fault_fires_only_in_that_round(self, small_wc_graph):
        result = run("diimm", _diimm_config(small_wc_graph, faults="crash@m1r2", retry=RETRY))
        crashes = result.metrics.recovery_events_of("crash")
        assert crashes and all(event.round_index == 2 for event in crashes)

    def test_reassign_false_fails_fast(self, small_wc_graph):
        strict = RetryPolicy(max_attempts=2, reassign=False)
        with pytest.raises(FaultToleranceExceeded) as info:
            run("diimm", _diimm_config(small_wc_graph, faults="crash@m1a*", retry=strict))
        assert 1 in info.value.machine_ids

    def test_summarize_recovery_rows(self, small_wc_graph):
        result = run(
            "diimm",
            _diimm_config(small_wc_graph, faults="crash@m1;straggler@m0x2", retry=RETRY),
        )
        rows = summarize_recovery(result.metrics)
        kinds = {(row["kind"], row["machine"]) for row in rows}
        assert ("crash", 1) in kinds
        assert ("straggler-wait", 0) in kinds
        assert all(row["events"] >= 1 for row in rows)


class TestSeededPlanInvariance:
    def test_randomized_plan_still_invariant(self, small_wc_graph, baseline):
        plan = FaultPlan.seeded(3, num_machines=4, num_rounds=4, p_crash=0.4, p_corrupt=0.3)
        assert len(plan) > 0
        result = run("diimm", _diimm_config(small_wc_graph, faults=plan, retry=RETRY))
        assert result.seeds == baseline.seeds
        assert result.estimated_spread == baseline.estimated_spread


#: One plan per fault kind -> the recovery event the simulated executor
#: logs it as (silent failures wait out the simulated deadline).
PER_SET_FAULTS = [
    ("crash@m1", "crash"),
    ("crash-hard@m1", "timeout"),
    ("disconnect@m1", "disconnect"),
    ("drop@m1", "timeout"),
    ("corrupt@m1", "corruption"),
    ("straggler@m1x3", "straggler-wait"),
]


class TestGenerateLevelInvariance:
    """Invariance at the executor layer, independent of any algorithm."""

    def _generate(self, graph, faults, retry=RETRY, machines=4, count=200):
        cluster = SimulatedCluster(machines, seed=5)
        executor = SimulatedExecutor(cluster, graph=graph, faults=faults, retry=retry)
        targets = tuple(FlatRRCollection(graph.num_nodes) for _ in range(machines))
        executor.run_phase(
            GeneratePhase(label="gen", counts=(count,) * machines, targets=targets)
        )
        # The next phase on the same executor, with no faults armed for it.
        executor.faults = FaultPlan()
        follow_up = tuple(FlatRRCollection(graph.num_nodes) for _ in range(machines))
        executor.run_phase(GeneratePhase("next", counts=(3,) * machines, targets=follow_up))
        return targets, [store.nodes.tolist() for store in follow_up], executor.metrics

    @pytest.mark.parametrize("plan", MATRIX_PLANS)
    def test_collections_and_rng_streams_invariant(self, small_wc_graph, plan):
        reference, rng_after, _ = self._generate(small_wc_graph, faults=None)
        faulty, faulty_rng_after, metrics = self._generate(
            small_wc_graph, faults=FaultPlan.parse(plan)
        )
        for ref, got in zip(reference, faulty):
            np.testing.assert_array_equal(ref.nodes, got.nodes)
            np.testing.assert_array_equal(ref.offsets, got.offsets)
            assert ref.total_edges_examined == got.total_edges_examined
        # The machines' coordinate streams stay in lockstep, so later
        # phases (driven outside this one) also draw identically.
        assert faulty_rng_after == rng_after
        # Round-targeted specs never fire outside a driver round.
        fires = any(spec.round_index is None for spec in FaultPlan.parse(plan).specs)
        assert bool(metrics.recovery_events) == fires

    @pytest.mark.parametrize("fault,logged", PER_SET_FAULTS)
    def test_per_set_phase_invariant_under_every_fault_kind(self, small_wc_graph, fault, logged):
        """Explicit coordinates pass through the same loop: a request is
        stateless, so a retry or a replay redraws the identical sets."""

        def generate(faults):
            cluster = SimulatedCluster(3, seed=5)
            stores = [FlatRRCollection(small_wc_graph.num_nodes) for __ in range(3)]
            executor = SimulatedExecutor(cluster, graph=small_wc_graph, faults=faults, retry=RETRY)
            executor.run_phase(
                GeneratePhase(
                    "gen", (14, 9, 21), stores, key="k", seed=123, starts=(0, 14, 23)
                )
            )
            return stores, executor.metrics

        reference, _ = generate(None)
        faulty, metrics = generate(FaultPlan.parse(fault))
        for ref, got in zip(reference, faulty):
            np.testing.assert_array_equal(ref.nodes, got.nodes)
            np.testing.assert_array_equal(ref.offsets, got.offsets)
        assert logged in [event.kind for event in metrics.recovery_events]


# ----------------------------------------------------------------------
# Multiprocessing executor: real processes, real timeouts
# ----------------------------------------------------------------------
def _generate_on(spec, graph, faults, retry, machines=2, count=60, expect=None):
    """Run one faulted generation phase on ``spec``'s workers.

    Returns ``(targets, metrics)``; with ``expect`` set the phase must
    raise that exception, returned in place of the targets."""
    cluster = SimulatedCluster(machines, seed=5)
    targets = tuple(FlatRRCollection(graph.num_nodes) for _ in range(machines))
    plan = GeneratePhase(label="gen", counts=(count,) * machines, targets=targets)
    with make_executor(spec, cluster, graph=graph, faults=faults, retry=retry) as executor:
        if expect is None:
            executor.run_phase(plan)
            return targets, executor.metrics
        with pytest.raises(expect) as info:
            executor.run_phase(plan)
        return info.value, executor.metrics


def _mp_generate(graph, faults, retry, machines=2, count=60):
    spec = MultiprocessingSpec(processes=machines)
    return _generate_on(spec, graph, faults, retry, machines, count)


@pytest.mark.slow
class TestCrashMatrixMultiprocessing:
    MP_PLANS = ["crash@m1", "corrupt@m1", "crash@m0a*", "crash-hard@m1", "drop@m0a*"]

    @pytest.mark.parametrize("plan", MP_PLANS)
    def test_collections_invariant(self, small_wc_graph, plan):
        retry = RetryPolicy(max_attempts=2, phase_timeout=20.0)
        reference, _ = _mp_generate(small_wc_graph, faults=None, retry=None)
        faulty, metrics = _mp_generate(
            small_wc_graph, faults=FaultPlan.parse(plan), retry=retry
        )
        for ref, got in zip(reference, faulty):
            np.testing.assert_array_equal(ref.nodes, got.nodes)
            np.testing.assert_array_equal(ref.offsets, got.offsets)
        assert metrics.recovery_events

    def test_diimm_end_to_end_matches_simulated(self, small_wc_graph, baseline):
        result = run(
            "diimm",
            _diimm_config(
                small_wc_graph,
                executor="multiprocessing:2",
                faults="crash@m1",
                retry=RetryPolicy(max_attempts=3, phase_timeout=30.0),
            ),
        )
        assert result.seeds == baseline.seeds
        assert result.num_rr_sets == baseline.num_rr_sets
        assert result.metrics.recovery_events_of("crash")

    def test_worker_death_recovers_via_reassignment(self, small_wc_graph):
        retry = RetryPolicy(max_attempts=2, phase_timeout=3.0)
        reference, _ = _mp_generate(small_wc_graph, faults=None, retry=None)
        faulty, metrics = _mp_generate(
            small_wc_graph, faults=FaultPlan.parse("crash-hard@m1a*"), retry=retry
        )
        for ref, got in zip(reference, faulty):
            np.testing.assert_array_equal(ref.nodes, got.nodes)
        # The dead worker's broken stream is seen at once: no deadline fired.
        assert not metrics.recovery_events_of("timeout")
        lost = metrics.recovery_events_of("disconnect")
        assert lost and all(event.machine_id == 1 for event in lost)
        assert metrics.recovery_events_of("reassignment")


@pytest.mark.slow
@pytest.mark.parametrize(
    "spec", [MultiprocessingSpec(processes=2), SocketSpec(workers=2)], ids=lambda s: s.kind
)
class TestWorkerLoss:
    """How a lost worker is *detected*, on every worker transport, with
    reassignment disabled so the detection kind decides the error."""

    def test_silent_worker_hits_phase_timeout(self, small_wc_graph, spec):
        """A worker that never answers is only noticed by the wall-clock
        deadline, and surfaces as PhaseTimeoutError naming its machine."""
        retry = RetryPolicy(max_attempts=2, phase_timeout=3.0, reassign=False)
        error, _ = _generate_on(
            spec, small_wc_graph, FaultPlan.parse("drop@m1a*"), retry, expect=PhaseTimeoutError
        )
        assert 1 in error.machine_ids
        assert error.timeout == pytest.approx(3.0)

    def test_worker_death_is_seen_at_once(self, small_wc_graph, spec):
        """A kill -9'd worker breaks its stream: every attempt fails as a
        disconnect without waiting out the deadline."""
        retry = RetryPolicy(max_attempts=2, phase_timeout=30.0, reassign=False)
        started = time.monotonic()
        error, metrics = _generate_on(
            spec,
            small_wc_graph,
            FaultPlan.parse("crash-hard@m1a*"),
            retry,
            expect=FaultToleranceExceeded,
        )
        assert time.monotonic() - started < 15.0
        assert error.machine_ids == (1,)
        assert [event.kind for event in metrics.recovery_events] == ["disconnect"] * 2

    def test_unarmed_run_recovers_from_a_killed_worker(self, small_wc_graph, spec):
        """No FaultPlan anywhere: the retry policy still applies, so a
        worker that really dies mid-run costs one retry, not the run."""
        config = _diimm_config(small_wc_graph, machines=2)
        golden = run("diimm", config)
        cluster = SimulatedCluster(2, seed=config.seed)
        with make_executor(spec, cluster, graph=small_wc_graph) as executor:
            assert executor.retry is DEFAULT_RETRY
            assert None not in executor.heartbeat()  # workers up, RNG streams untouched
            victim = executor._channels[1].process
            os.kill(victim.pid, signal.SIGKILL)
            victim.join()
            result = run("diimm", config, executor=executor)
        assert result.seeds == golden.seeds
        assert result.num_rr_sets == golden.num_rr_sets
        assert result.estimated_spread == golden.estimated_spread
        events = result.metrics.recovery_events
        assert [(event.kind, event.machine_id) for event in events] == [("disconnect", 1)]


# ----------------------------------------------------------------------
# Checkpoint integration: the recovery log survives resume
# ----------------------------------------------------------------------
class TestCheckpointRecoveryLog:
    def test_recovery_log_persisted_and_restored(self, small_wc_graph, tmp_path):
        ckpt = tmp_path / "run"
        first = run(
            "diimm",
            _diimm_config(
                small_wc_graph, faults="crash@m1", retry=RETRY, checkpoint_dir=str(ckpt)
            ),
        )
        assert first.metrics.recovery_events
        snapshots = sorted(p for p in ckpt.iterdir() if p.name.startswith("round-"))
        with open(snapshots[-1] / "state.json") as handle:
            state = json.load(handle)
        assert state["recovery"], "snapshot must carry the recovery log"
        assert state["recovery"][0]["kind"] == "crash"

        resumed = run(
            "diimm",
            _diimm_config(
                small_wc_graph,
                faults="crash@m1",
                retry=RETRY,
                checkpoint_dir=str(ckpt),
                resume=True,
            ),
        )
        assert resumed.seeds == first.seeds
        # Events recorded before the snapshot reappear in the resumed log.
        restored_kinds = [event.kind for event in resumed.metrics.recovery_events]
        assert "crash" in restored_kinds

"""Executor parity with no state to carry.

A generation request names its sets by coordinates, so the per-machine
stores of a run are the same bytes whoever drew them: the simulated
executor, owned worker processes or TCP workers, forked or spawned, with
an injected crash retried and a spent machine's quota reassigned — and a
run resumed from its first round's checkpoint draws the rest as the cold
run did, with no RNG state in the snapshot.
"""

import hashlib
import multiprocessing as mp

import numpy as np
import pytest

from repro.api import RunConfig, run
from repro.cluster import MultiprocessingSpec, RetryPolicy, SocketSpec
from repro.core.driver import RoundDriver

ALGORITHMS = ("diimm", "imm", "dssa")
RESULT_FIELDS = (
    "seeds",
    "num_rr_sets",
    "total_rr_size",
    "total_edges_examined",
    "lower_bound",
    "search_rounds",
    "estimated_spread",
)


def outcome(algorithm, drivers, graph, **options):
    """``(result fields, digest of every store's bytes)`` of one run."""
    result = run(algorithm, RunConfig(graph=graph, k=4, machines=3, eps=0.5, seed=11, **options))
    sha = hashlib.sha256()
    for key, stores in sorted(drivers[-1].stores.items()):
        for store in stores:
            sha.update(key.encode())
            sha.update(np.ascontiguousarray(store.nodes[: store.total_size]).tobytes())
            sha.update(np.ascontiguousarray(store.offsets[: store.num_sets + 1]).tobytes())
    return tuple(getattr(result, field) for field in RESULT_FIELDS), sha.hexdigest(), result


@pytest.mark.slow
@pytest.mark.parametrize("start_method", ["fork", "spawn"])
@pytest.mark.parametrize("transport", ["multiprocessing", "socket"])
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_worker_stores_equal_simulated_under_retry_and_reassignment(
    small_wc_graph, drivers, algorithm, transport, start_method
):
    if start_method not in mp.get_all_start_methods():
        pytest.skip(f"{start_method} unavailable")
    fields, stores, _ = outcome(algorithm, drivers, small_wc_graph)
    spec = (
        MultiprocessingSpec(processes=2, start_method=start_method)
        if transport == "multiprocessing"
        else SocketSpec(workers=2, start_method=start_method)
    )
    # imm is the one-machine run: both faults land on machine 0, in
    # different rounds.  Round 1: first attempt crashes, the retry lands.
    # Round 2: every attempt dies, the quota is redrawn by the master.
    spent = 0 if algorithm == "imm" else 1
    got_fields, got_stores, result = outcome(
        algorithm,
        drivers,
        small_wc_graph,
        executor=spec,
        faults=f"crash@m0r1;crash-hard@m{spent}r2a*",
        retry=RetryPolicy(max_attempts=2, phase_timeout=20.0, backoff=0.0),
    )
    assert got_fields == fields
    assert got_stores == stores
    kinds = [event.kind for event in result.metrics.recovery_events]
    assert "crash" in kinds and "reassignment" in kinds


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_simulated_stores_survive_retry_and_reassignment(small_wc_graph, drivers, algorithm):
    fields, stores, _ = outcome(algorithm, drivers, small_wc_graph)
    # A simulated quota is replayed on a surviving machine; imm's one
    # machine has none, so it only gets the retried crash.
    reassigned = algorithm != "imm"
    got_fields, got_stores, result = outcome(
        algorithm,
        drivers,
        small_wc_graph,
        faults="crash@m0r1;crash@m1r2a*" if reassigned else "crash@m0r1",
        retry=RetryPolicy(max_attempts=2),
    )
    assert (got_fields, got_stores) == (fields, stores)
    kinds = [event.kind for event in result.metrics.recovery_events]
    assert "crash" in kinds and ("reassignment" in kinds) == reassigned


@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_resume_from_round_one_equals_cold(
    small_wc_graph, drivers, tmp_path, monkeypatch, algorithm
):
    fields, stores, _ = outcome(algorithm, drivers, small_wc_graph)
    # Crash in round 2: round 1's snapshot is all the resumed run gets.
    real, calls = RoundDriver._select, []

    def crash_in_round_two(self, plan):
        calls.append(plan.label)
        if len(calls) == 2:
            raise RuntimeError("injected crash")
        return real(self, plan)

    monkeypatch.setattr(RoundDriver, "_select", crash_in_round_two)
    ckpt = str(tmp_path / "run")
    with pytest.raises(RuntimeError, match="injected crash"):
        outcome(algorithm, drivers, small_wc_graph, checkpoint_dir=ckpt)
    assert [path.name for path in sorted((tmp_path / "run").iterdir())] == ["round-0001"]
    got_fields, got_stores, _ = outcome(
        algorithm, drivers, small_wc_graph, checkpoint_dir=ckpt, resume=True
    )
    assert (got_fields, got_stores) == (fields, stores)

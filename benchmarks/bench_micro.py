"""Micro-benchmarks of the hot inner components.

Unlike the figure benchmarks (single metered sweep each), these use
pytest-benchmark's statistical machinery — multiple rounds over small
fixed workloads — to track the throughput of the primitives every
experiment is built from: RR-set generation (three samplers), forward
cascade simulation, and the lazy bucket greedy on the flat CSR kernel.
"""

import time

import numpy as np
import pytest

from repro.cluster import SimulatedCluster
from repro.coverage import CoverageInstance, greedy_max_coverage
from repro.coverage.kernel import as_flat
from repro.diffusion import IndependentCascade, LinearThreshold
from repro.graphs import load_dataset
from repro.ris import make_sampler

BATCH = 200


@pytest.fixture(scope="module")
def graph():
    return load_dataset("facebook").graph


@pytest.fixture(scope="module")
def instance(graph):
    return CoverageInstance.from_graph(graph)


@pytest.fixture(scope="module")
def flat_instance(instance):
    return as_flat(instance)


def test_micro_ic_bfs_sampler(benchmark, graph):
    sampler = make_sampler(graph, "ic", "bfs")
    rng = np.random.default_rng(0)
    benchmark(sampler.sample_many, BATCH, rng)


def test_micro_ic_subsim_sampler(benchmark, graph):
    sampler = make_sampler(graph, "ic", "subsim")
    rng = np.random.default_rng(0)
    benchmark(sampler.sample_many, BATCH, rng)


def test_micro_lt_walk_sampler(benchmark, graph):
    sampler = make_sampler(graph, "lt")
    rng = np.random.default_rng(0)
    benchmark(sampler.sample_many, BATCH, rng)


def test_micro_ic_forward_simulation(benchmark, graph):
    model = IndependentCascade()
    rng = np.random.default_rng(0)
    seeds = list(range(10))

    def run():
        for __ in range(20):
            model.simulate(graph, seeds, rng)

    benchmark(run)


def test_micro_lt_forward_simulation(benchmark, graph):
    model = LinearThreshold()
    rng = np.random.default_rng(0)
    seeds = list(range(10))

    def run():
        for __ in range(20):
            model.simulate(graph, seeds, rng)

    benchmark(run)


def test_micro_lazy_greedy_flat(benchmark, flat_instance):
    benchmark(greedy_max_coverage, [flat_instance], 50)


def _best_of(callable_, repeats=3):
    best = float("inf")
    result = None
    for __ in range(repeats):
        start = time.perf_counter()
        result = callable_()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_micro_batch_generation_speedup(record_rows, graph):
    """Per-set generation (sample_many + extend) vs the batched flat path
    (sample_batch + append_batch) on identical RNG streams; regression
    gate: the batch path must never be slower.  The tentpole target is
    >= 1.5x on the BFS samplers."""
    from repro.ris import FlatRRCollection, append_batch

    count = 2000
    rows = []
    for label, model, method in [
        ("ic-bfs", "ic", "bfs"),
        ("lt-walk", "lt", "bfs"),
        ("ic-subsim", "ic", "subsim"),
    ]:
        sampler = make_sampler(graph, model, method)

        def per_set():
            collection = FlatRRCollection(graph.num_nodes)
            collection.extend(sampler.sample_many(count, np.random.default_rng(0)))
            return collection

        def batched():
            collection = FlatRRCollection(graph.num_nodes)
            append_batch(collection, sampler.sample_batch(np.random.default_rng(0), count))
            return collection

        per_set_s, reference = _best_of(per_set)
        batch_s, result = _best_of(batched)
        assert result.num_sets == reference.num_sets == count
        assert result.total_edges_examined == reference.total_edges_examined
        rows.append(
            {
                "sampler": f"{label}(facebook, {count} sets)",
                "per_set_s": round(per_set_s, 4),
                "batch_s": round(batch_s, 4),
                "speedup": round(per_set_s / batch_s, 2),
            }
        )
    record_rows(
        "micro_batch_generation",
        rows,
        "RR-set generation: per-set RRSample path vs batched flat path",
    )
    for row in rows:
        assert row["speedup"] >= 1.0, f"batch path slower on {row['sampler']}"


def test_micro_vectorized_generation(record_rows):
    """Batched scalar generation (``sample_batch`` on the scalar
    ``ICReverseBFSSampler`` / ``LTReverseWalkSampler``, generator coins)
    vs the keyed blocked kernels ``make_sampler`` returns for both
    ``"bfs"`` and ``"vectorized"``, on the livejournal stand-in — the
    graph large enough that per-node Python overhead, not cache traffic,
    dominates the scalar path.  CI floor: >= 3x on every model (local
    target: 5x on IC)."""
    import os

    from repro.graphs import load_dataset
    from repro.ris import FlatRRCollection, ICReverseBFSSampler, LTReverseWalkSampler, append_batch

    graph = load_dataset("livejournal").graph
    count = 1500 if os.environ.get("REPRO_QUICK", "") not in ("", "0") else 4000

    rows = []
    for label, model, scalar_cls in [
        ("ic", "ic", ICReverseBFSSampler),
        ("lt", "lt", LTReverseWalkSampler),
    ]:
        scalar = scalar_cls(graph)
        vectorized = make_sampler(graph, model, "vectorized")

        def run(sampler):
            collection = FlatRRCollection(graph.num_nodes)
            append_batch(collection, sampler.sample_batch(np.random.default_rng(0), count))
            return collection

        scalar_s, reference = _best_of(lambda: run(scalar))
        vectorized_s, result = _best_of(lambda: run(vectorized))
        assert result.num_sets == reference.num_sets == count
        # Generator coins vs keyed coins => statistically equivalent, not
        # bit-identical; sanity-check the workloads are the same scale.
        assert 0.5 < result.nodes.size / max(reference.nodes.size, 1) < 2.0
        rows.append(
            {
                "model": f"{label}(livejournal, {count} sets)",
                "scalar_batch_s": round(scalar_s, 4),
                "vectorized_s": round(vectorized_s, 4),
                "speedup": round(scalar_s / vectorized_s, 2),
            }
        )
    record_rows(
        "micro_vectorized_generation",
        rows,
        "RR-set generation: scalar sample_batch vs blocked frontier kernels",
    )
    for row in rows:
        assert row["speedup"] >= 3.0, (
            f"vectorized kernel speedup {row['speedup']}x below the 3x CI floor "
            f"on {row['model']}"
        )


def test_micro_incremental_coverage_speedup(record_rows, graph):
    """Round-driver coverage maintenance: per-round full re-aggregation
    (what D-SSA/D-OPIM-C did before the driver) vs the incremental
    CoverageState fed sparse wave deltas; regression gate: the
    incremental path must never be slower."""
    from repro.cluster import SimulatedExecutor
    from repro.coverage import CoverageState
    from repro.ris import FlatRRCollection, append_batch

    machines = 4
    # Per-machine totals after each round, doubling like the adaptive loops.
    totals = [1000, 2000, 4000, 8000, 16000, 32000]
    sampler = make_sampler(graph, "ic", "bfs")

    # Pre-build (outside the timed region — generation is its own phase in
    # a real run) each round's store snapshots: round r holds the first
    # totals[r] sets of every machine, exactly like a growing collection.
    stores_at_round = []
    stores = [FlatRRCollection(graph.num_nodes) for __ in range(machines)]
    previous = 0
    for total in totals:
        round_stores = []
        for m, store in enumerate(stores):
            batch = sampler.sample_batch(
                np.random.default_rng(97 * m + total), total - previous
            )
            append_batch(store, batch)
            snapshot = FlatRRCollection(graph.num_nodes)
            snapshot.append_arrays(
                store.nodes.copy(), store.offsets.copy(),
                edges_examined=store.total_edges_examined,
            )
            snapshot.coverage_counts()  # materialize up front
            round_stores.append(snapshot)
        stores_at_round.append(round_stores)
        previous = total

    def incremental():
        state = CoverageState(graph.num_nodes, machines)
        executor = SimulatedExecutor(SimulatedCluster(machines, seed=0))
        for round_stores in stores_at_round:
            state.ingest(executor, round_stores, communicate=False)
            state.selection_counts()  # the round's working copy
        return state.counts.copy()

    def rebuild():
        state = CoverageState(graph.num_nodes, machines)
        counts = None
        for round_stores in stores_at_round:
            counts = state.rebuild_from(round_stores)
        return counts

    incremental_s, incremental_counts = _best_of(incremental)
    rebuild_s, rebuild_counts = _best_of(rebuild)
    assert np.array_equal(incremental_counts, rebuild_counts)

    rows = [
        {
            "workload": f"facebook, m={machines}, rounds={len(totals)}, "
            f"{totals[-1] * machines} sets",
            "rebuild_s": round(rebuild_s, 4),
            "incremental_s": round(incremental_s, 4),
            "speedup": round(rebuild_s / incremental_s, 2),
        }
    ]
    record_rows(
        "micro_incremental_coverage",
        rows,
        "Coverage maintenance: per-round full rebuild vs incremental deltas",
    )
    for row in rows:
        assert row["speedup"] >= 1.0, "incremental coverage maintenance slower than rebuild"


def test_micro_dataplane(record_rows, graph):
    """The pre-data-plane IPC path (a throwaway executor per generation
    phase, graph copied to every worker, pickled arrays on the wire)
    vs the persistent zero-copy executor with the delta + varint wire
    codec.  CI floors: >= 2x wall-clock on the many-phase generation
    scenario, >= 1.5x payload byte reduction (targets: 3x / 2x)."""
    from repro.cluster import GeneratePhase, MultiprocessingSpec, make_executor
    from repro.ris import FlatRRCollection
    from repro.ris.serialization import pack_message
    from repro.ris.wire import encode_batch

    phases = 16
    count = 10
    workload = f"facebook, {phases} phases x {count} sets, 1 worker"

    def per_phase_executors():
        # One throwaway executor per phase, shared-memory broadcast
        # disabled — exactly what every generation phase used to pay.
        cluster = SimulatedCluster(1, seed=0)
        store = FlatRRCollection(graph.num_nodes)
        plan = GeneratePhase("bench/gen", counts=(count,), targets=(store,))
        spec = MultiprocessingSpec(processes=1, zero_copy=False)
        for _phase in range(phases):
            with make_executor(spec, cluster, graph=graph) as executor:
                executor.run_phase(plan)
        return store

    def persistent_zero_copy():
        cluster = SimulatedCluster(1, seed=0)
        store = FlatRRCollection(graph.num_nodes)
        plan = GeneratePhase("bench/gen", counts=(count,), targets=(store,))
        spec = MultiprocessingSpec(processes=1, zero_copy=True)
        with make_executor(spec, cluster, graph=graph) as executor:
            for _phase in range(phases):
                executor.run_phase(plan)
        return store

    baseline_s, reference = _best_of(per_phase_executors)
    pooled_s, pooled = _best_of(persistent_zero_copy)
    assert reference.num_sets == pooled.num_sets == phases * count
    np.testing.assert_array_equal(reference.nodes, pooled.nodes)
    np.testing.assert_array_equal(reference.offsets, pooled.offsets)
    speedup = baseline_s / pooled_s

    # Payload size: the same framed envelope around pickled FlatBatch
    # arrays (the old wire format) vs the delta + varint encoding.
    rng = np.random.default_rng(0)
    batch = make_sampler(graph, "ic", "bfs").sample_batch(rng, 2000)
    state = rng.bit_generator.state
    raw_bytes = len(pack_message((batch, state)))
    wire_bytes = len(pack_message((encode_batch(batch), state)))
    reduction = raw_bytes / wire_bytes

    rows = [
        {
            "metric": "generation wall-clock (s)",
            "workload": workload,
            "per_phase_executor": round(baseline_s, 4),
            "dataplane": round(pooled_s, 4),
            "improvement_x": round(speedup, 2),
        },
        {
            "metric": "payload size (bytes)",
            "workload": "facebook, one 2000-set batch",
            "per_phase_executor": raw_bytes,
            "dataplane": wire_bytes,
            "improvement_x": round(reduction, 2),
        },
    ]
    record_rows(
        "micro_dataplane",
        rows,
        "Data plane: per-phase copy-broadcast executors + pickled arrays vs "
        "persistent zero-copy executor + varint wire format",
    )
    assert speedup >= 2.0, f"data plane speedup {speedup:.2f}x below the 2x floor"
    assert reduction >= 1.5, f"payload reduction {reduction:.2f}x below the 1.5x floor"


def test_micro_socket_overhead(record_rows, graph):
    """Loopback TCP workers vs socketpair workers on the same generation
    workload (same worker protocol, shared-memory graph).  Both ship the
    identical delta+varint payload, so ``num_bytes`` must agree exactly;
    the *measured* transport counters then expose the true framing cost.
    CI gates: payload accounting parity, framing overhead <= 2 KiB per
    round trip, and TCP wall-clock within 1.5x of the socketpair's."""
    from repro.cluster import GENERATION, GeneratePhase, make_executor
    from repro.ris import FlatRRCollection

    machines = 4
    count = 1500
    counts = (count,) * machines

    def generate(name):
        cluster = SimulatedCluster(machines, seed=0)
        stores = [FlatRRCollection(graph.num_nodes) for __ in range(machines)]
        with make_executor(name, cluster, graph=graph) as executor:
            executor.run_phase(GeneratePhase("bench/gen", counts=counts, targets=stores))
            record = executor.metrics.phases_in(GENERATION)[-1]
        return record, [store.num_sets for store in stores]

    mp_s, (mp_record, mp_sets) = _best_of(lambda: generate("multiprocessing"))
    socket_s, (socket_record, socket_sets) = _best_of(lambda: generate("socket"))

    assert socket_sets == mp_sets == list(counts)
    # Backend-neutral payload accounting is identical byte for byte.
    assert socket_record.num_bytes == mp_record.num_bytes

    wire_total = socket_record.wire_sent + socket_record.wire_received
    framing = wire_total - socket_record.num_bytes
    framing_per_rt = framing / max(socket_record.round_trips, 1)
    overhead_pct = (socket_s / mp_s - 1.0) * 100.0

    rows = [
        {
            "workload": f"generate(facebook, m={machines}, {count * machines} sets)",
            "mp_s": round(mp_s, 4),
            "socket_s": round(socket_s, 4),
            "overhead_pct": round(overhead_pct, 2),
            "payload_bytes": socket_record.num_bytes,
            "wire_bytes": wire_total,
            "framing_per_rt": round(framing_per_rt, 1),
        }
    ]
    record_rows(
        "micro_socket_overhead",
        rows,
        "Socket executor: loopback TCP transport vs the multiprocessing socketpair",
    )
    assert framing_per_rt <= 2048, (
        f"socket framing overhead {framing_per_rt:.0f} B/round-trip above the 2 KiB bound"
    )
    assert socket_s <= mp_s * 1.5, (
        f"socket backend {overhead_pct:.1f}% slower than multiprocessing, above the 50% bound"
    )

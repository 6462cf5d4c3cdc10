"""Layer probes: direct timed calls into public functions at fixed sizes.

The workloads say where an end-to-end run spends its time; the probes
give each layer's absolute rate on its own — the figures ROADMAP names
(RR sets/s, edges examined/s, wire bytes/set, selection seconds per 10^6
set-entries) — as the median of :data:`REPEATS` calls.  Inputs are fixed
(seeded here, not by ``--seed``): a probe is a ruler, not a workload.
"""

from __future__ import annotations

import statistics
import sys
import time
from typing import Callable, Dict, List

import numpy as np

__all__ = ["run_probes"]

REPEATS = 5
#: RR sets per sampler probe: the vectorized kernels draw 4000, the
#: scalar samplers half that so the whole suite stays under 25 s.
VECTOR_SETS, SCALAR_SETS = 4000, 2000
SELECT_K = 50


def _median(fn: Callable[[], object], repeats: int = REPEATS) -> float:
    times: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def run_probes() -> Dict[str, float]:
    from repro.cluster.cluster import SimulatedCluster
    from repro.cluster.executor import GeneratePhase, SimulatedExecutor, make_executor
    from repro.coverage.greedy import greedy_max_coverage
    from repro.coverage.newgreedi import newgreedi
    from repro.coverage.sketch import SketchRRCollection, sketch_lazy_greedy
    from repro.coverage.state import CoverageState
    from repro.graphs.datasets import load_dataset
    from repro.graphs.digraph import DirectedGraph, GraphDelta, VersionedGraph
    from repro.ris import FlatRRCollection, append_batch, make_sampler
    from repro.ris.serialization import pack_message, unpack_message
    from repro.ris.wire import decode_batch, encode_batch

    out: Dict[str, float] = {}

    # -- graphs ---------------------------------------------------------
    def load():
        load_dataset.cache_clear()
        return load_dataset("livejournal").graph

    out["graphs.probe.load_s"] = _median(load, 3)
    graph = load_dataset("livejournal").graph

    def share():
        with graph.to_shared() as handle:
            DirectedGraph.from_shared(handle.spec)

    out["graphs.probe.share_s"] = _median(share)
    sources, targets, probs = graph.edge_arrays()
    picks = np.random.default_rng(11).choice(sources.size, size=30 * REPEATS, replace=False)
    versioned = VersionedGraph(graph)
    deltas = iter(
        GraphDelta(
            reweight_edges=[
                (int(sources[j]), int(targets[j]), float(probs[j]) * 0.5) for j in chunk
            ]
        )
        for chunk in picks.reshape(REPEATS, 30)
    )
    out["graphs.probe.apply_us_per_change"] = (
        _median(lambda: versioned.apply(next(deltas))) / 30 * 1e6
    )

    # -- ris.sampler ----------------------------------------------------
    batches = {}
    for name, model, method, sets in (
        ("ic_bfs", "ic", "bfs", SCALAR_SETS),
        ("ic_vec", "ic", "vectorized", VECTOR_SETS),
        ("ic_subsim", "ic", "subsim", SCALAR_SETS),
        ("lt_bfs", "lt", "bfs", SCALAR_SETS),
        ("lt_vec", "lt", "vectorized", VECTOR_SETS),
    ):
        sampler = make_sampler(graph, model=model, method=method)

        def draw():
            batches[name] = sampler.sample_batch(np.random.default_rng(7), sets)

        seconds = _median(draw)
        out[f"ris.sampler.probe.{name}.sets_per_s"] = sets / seconds
        out[f"ris.sampler.probe.{name}.edges_per_s"] = (
            int(batches[name].edges_examined.sum()) / seconds
        )

    # -- ris.wire -------------------------------------------------------
    batch = batches["ic_vec"]
    body = encode_batch(batch)
    megabytes = len(body) / 1e6
    out["ris.wire.probe.encode_mb_s"] = megabytes / _median(lambda: encode_batch(batch))
    out["ris.wire.probe.decode_mb_s"] = megabytes / _median(lambda: decode_batch(body))
    out["ris.wire.probe.bytes_per_set"] = len(body) / batch.count
    state = np.random.default_rng(7).bit_generator.state
    out["ris.wire.probe.frame_us"] = (
        _median(lambda: unpack_message(pack_message((body, state)))) * 1e6
    )

    # -- ris.flat / coverage over 10^6 set-entries ------------------------
    big = make_sampler(graph, "ic", "vectorized").sample_batch(
        np.random.default_rng(3), int(1e6 / (batch.nodes.size / batch.count))
    )
    mentries = big.nodes.size / 1e6

    def append():
        store = FlatRRCollection(graph.num_nodes)
        append_batch(store, big)
        return store.offsets  # materialises the pending appends

    out["ris.flat.probe.append_Mentry_s"] = mentries / _median(append)
    store = FlatRRCollection(graph.num_nodes)
    append_batch(store, big)
    ids = np.arange(0, 400, 2)
    fresh = make_sampler(graph, "ic", "vectorized").sample_batch(
        np.random.default_rng(5), ids.size
    )
    store.affected_sets(np.arange(4))  # builds the inverted index once
    out["ris.flat.probe.replace_us_per_set"] = (
        _median(lambda: store.replace_sets(ids, fresh)) / ids.size * 1e6
    )

    def ingest():
        executor = SimulatedExecutor(SimulatedCluster(1))
        CoverageState(graph.num_nodes, 1).ingest(executor, [store])

    out["coverage.state.probe.ingest_s_per_Mentry"] = _median(ingest) / (
        store.total_size / 1e6
    )
    quarters = []
    bounds = np.linspace(0, big.count, 5).astype(int)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        part = FlatRRCollection(graph.num_nodes)
        part.append_arrays(
            big.nodes[big.offsets[lo] : big.offsets[hi]],
            big.offsets[lo : hi + 1] - big.offsets[lo],
            big.edges_examined[lo:hi],
        )
        quarters.append(part)
    out["coverage.select.probe.newgreedi_s_per_Mentry"] = (
        _median(
            lambda: newgreedi(
                SimulatedExecutor(SimulatedCluster(4)), SELECT_K, stores=quarters
            )
        )
        / mentries
    )
    out["coverage.select.probe.greedy_s_per_Mentry"] = (
        _median(lambda: greedy_max_coverage(quarters, SELECT_K)) / mentries
    )

    # -- coverage.sketch (googleplus, as cold_ic_sketch) ------------------
    dense = load_dataset("googleplus").graph
    wave = make_sampler(dense, "ic", "vectorized").sample_batch(
        np.random.default_rng(3), 7000
    )
    sketch = SketchRRCollection(dense.num_nodes, precision=10)

    def sketch_ingest():
        fresh_sketch = SketchRRCollection(dense.num_nodes, precision=10)
        append_batch(fresh_sketch, wave)

    out["coverage.sketch.probe.ingest_s_per_Mentry"] = _median(sketch_ingest) / (
        wave.nodes.size / 1e6
    )
    append_batch(sketch, wave)
    bank = sketch.register_bank()
    out["coverage.sketch.probe.select_s"] = _median(
        lambda: sketch_lazy_greedy(bank, 20, sketch.num_sets), 3
    )

    # -- cluster: one 1-set generate phase on a live executor -------------
    for name, spec in (("mp", "multiprocessing:2"), ("socket", "socket:2")):
        cluster = SimulatedCluster(2, seed=1)
        stores = tuple(FlatRRCollection(graph.num_nodes) for _ in range(2))
        phase = GeneratePhase("probe", counts=(1, 1), targets=stores, method="vectorized")
        with make_executor(spec, cluster, graph=graph) as executor:
            executor.run_phase(phase)  # spawns and enrolls the workers
            out[f"cluster.probe.{name}_roundtrip_ms"] = (
                _median(lambda: executor.run_phase(phase)) * 1e3
            )
    return out


def main(argv: List[str]) -> int:
    import json

    probes = run_probes()
    sys.stdout.write(json.dumps({"probes": probes}) + "\n")
    return 0

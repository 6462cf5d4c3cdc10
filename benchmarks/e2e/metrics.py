"""The benchmark's contract: workloads, metrics, directions and bounds.

``BENCHMARK.json`` at the repo root is this module serialised
(``test_harness.py`` pins that the two agree); the README's tables are
written from the same rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from .trace import LAYERS

__all__ = [
    "RUN_SECONDS",
    "WORKLOADS",
    "END_TO_END",
    "EXTRA",
    "PER_LAYER",
    "Metric",
    "benchmark_json",
]

#: Measured seconds of one run; also sizes the serving streams.
RUN_SECONDS = 8

#: name -> why it exists (the layer that does most of its work).
WORKLOADS: Dict[str, str] = {
    "cold_ic_bfs": (
        "IC, scalar bfs sampler, simulated executor: the sampler is ~80% of a cold "
        "api.run; the only path pools, overlays and per-set RNG use"
    ),
    "cold_ic_vec_mp": (
        "IC, vectorized kernel on 2 worker processes: encode, pipe, decode, append, "
        "ingest and NEWGREEDI outweigh generation; bypasses the scalar sampler"
    ),
    "cold_lt_vec_socket": (
        "LT, vectorized kernel over the TCP worker protocol, one search round: spawn, "
        "enroll, wait, decode are half the wall, master-side ingest+selection the rest"
    ),
    "cold_ic_sketch": (
        "IC, HyperLogLog register banks: sketch_lazy_greedy and register ingest are "
        "~87% of the wall; same generation layer as the flat runs, used differently"
    ),
    "serve_warm": (
        "read-only closed loop over TCP, 1 client, ~80% repeats: hits measure "
        "frontend+cache, misses pool-prefix ingest+selection, one eps=0.4 pool top-up"
    ),
    "serve_dynamic": (
        "graph updates beside reads on one dynamic service: VersionedGraph.apply, "
        "affected_sets, replace_sets, CoverageState.repair, cache eviction"
    ),
}


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float
    definition: str


#: Reported by every workload (the driver's contract requires one metric
#: set for all); README.md maps the per-class names onto these rows.
END_TO_END: Tuple[Metric, ...] = (
    Metric(
        "setup_s", "s", "lower", 0.25,
        "process start to first timed operation: interpreter + imports, then the "
        "median of two set-ups (dataset build, service construction, warm-up)",
    ),
    Metric(
        "run_s", "s", "lower", 0.25,
        "cold_*: median wall of one api.run incl. executor create/close; "
        "serve_*: summed latency of the whole timed stream",
    ),
    Metric(
        "lat_p50_ms", "ms", "lower", 0.25,
        "median latency of the primary operation — cold_*: api.run; serve_warm: "
        "cache-hit query through TCP; serve_dynamic: apply_update",
    ),
    Metric(
        "lat_tail_ms", "ms", "lower", 0.25,
        "highest percentile with ten samples beyond it — serve_warm: p96 of all "
        "queries; serve_dynamic: p75 of updates; cold_*: none exists, the median",
    ),
    Metric(
        "miss_p50_ms", "ms", "lower", 0.25,
        "median latency of operations that compute their answer — cold_*: api.run; "
        "serve_*: cache-miss query",
    ),
    Metric(
        "heldout_spread", "nodes", "higher", 0.08,
        "n * coverage_of(seeds) / num_sets on a held-out collection the benchmark "
        "samples itself (serve_*: seeds of the last diimm reply, final graph)",
    ),
    Metric(
        "wire_bytes_per_set", "B/set", "lower", 0.20,
        "bytes moved between machines per RR set selected over "
        "(RunMetrics.total_bytes / num_rr_sets; serve_*: summed over misses)",
    ),
    Metric(
        "peak_rss_mb", "MB", "lower", 0.25,
        "ru_maxrss of the workload subprocess (RUSAGE_SELF)",
    ),
)

#: Printed by ``run`` and judged by ``compare`` on the workloads that
#: have them; not in BENCHMARK.json because not every workload does.
EXTRA: Tuple[Tuple[Metric, Tuple[str, ...]], ...] = (
    (
        Metric("fail_frac", "ratio", "lower", 0.0, "failed / attempted operations"),
        tuple(WORKLOADS),
    ),
    (
        Metric("qps", "1/s", "higher", 0.25, "queries completed / stream wall"),
        ("serve_warm",),
    ),
    (
        Metric("hit_p50_ms", "ms", "lower", 0.25, "median in-process cache hit"),
        ("serve_dynamic",),
    ),
)

_COUNTS: Tuple[Tuple[str, str, str], ...] = (
    ("ris.sampler.sets", "count", "lower"),
    ("ris.sampler.edges_examined", "count", "lower"),
    ("ris.sampler.sets_per_s", "1/s", "higher"),
    ("ris.sampler.edges_per_s", "1/s", "higher"),
    ("ris.flat.entries_appended", "count", "lower"),
    ("ris.flat.sets_replaced", "count", "lower"),
    ("coverage.state.entries_ingested", "count", "lower"),
    ("coverage.select.s_per_Mentry", "s", "lower"),
    ("coverage.sketch.select_s", "s", "lower"),
    ("cluster.worker_busy_s", "s", "lower"),
    ("cluster.overhead_s", "s", "lower"),
    ("cluster.spawn_teardown_s", "s", "lower"),
    ("cluster.round_trips", "count", "lower"),
    ("cluster.wire_sent_bytes", "B", "lower"),
    ("cluster.wire_received_bytes", "B", "lower"),
    ("cluster.workers_peak_rss_mb", "MB", "lower"),
    ("cluster.shm_leak_warnings", "count", "lower"),
    ("core.driver.rounds", "count", "lower"),
    ("core.driver.theta", "count", "lower"),
    ("core.driver.store_peak_mb", "MB", "lower"),
    ("core.pool.topups", "count", "lower"),
    ("core.pool.sets_generated", "count", "lower"),
    ("core.pool.sets_repaired_frac", "ratio", "lower"),
    ("serve.service.cache_hit_frac", "ratio", "higher"),
    ("serve.service.cache_evicted", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

#: ``(name, unit, better)`` of every per-layer metric a traced run emits.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    *(
        row
        for layer in LAYERS
        for row in (
            (f"{layer}.self_s", "s", "lower"),
            (f"{layer}.calls", "count", "lower"),
            (f"{layer}.share", "ratio", "lower"),
        )
    ),
    *_COUNTS,
)


def benchmark_json() -> Dict:
    """The contents of ``BENCHMARK.json``."""
    keys: List[str] = ["name", "unit", "better"]
    return {
        "command": ["python3", "benchmarks/e2e/__main__.py", "one"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [dict(zip(keys, row)) for row in PER_LAYER],
    }

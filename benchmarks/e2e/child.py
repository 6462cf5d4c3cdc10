"""One workload in one fresh process: set-up, timed or traced run, checks.

:mod:`benchmarks.e2e.runner` starts this as a subprocess per workload so
that ``peak_rss_mb`` is the workload's own, nothing contends, and a
shared-memory warning printed at interpreter exit can be counted.  The
last line of stdout is one JSON object with everything measured.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
from typing import Any, Dict, List

from .metrics import END_TO_END, EXTRA, PER_LAYER
from .stats import percentile, spread, summary
from .trace import Tracer, layer_table, tracing
from .pace import Pace
from .workloads import Tally, make_workload

__all__ = ["run_workload"]

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 2
#: Pace samples spread wider than this (interquartile, as a share of the
#: median) mark the run ``noisy``.
NOISY = 0.20


def _maxrss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _resolve(values: Dict[str, Any], strict: bool) -> Dict[str, Dict[str, Any]]:
    """Turn a workload's raw readings into ``{value, samples}`` rows.

    A list is a timing reported as its median; ``("p97", samples)`` is a
    tail percentile under the ten-beyond rule; a number is itself.
    """
    rows: Dict[str, Dict[str, Any]] = {}
    for name, raw in values.items():
        if isinstance(raw, tuple):
            label, samples = raw
            q = float(label[1:])
            rows[name] = {
                "value": percentile(samples, q, strict=strict),
                "percentile": label,
                "samples": summary(samples, q),
            }
        elif isinstance(raw, list):
            rows[name] = {"value": statistics.median(raw), "samples": summary(raw)}
        else:
            rows[name] = {"value": float(raw)}
    return rows


def _timed(workload, tally: Tally, pace: Pace, import_s: float) -> Dict[str, Any]:
    setups: List[tuple] = []
    pace.sample()
    for index in range(1 if workload.smoke else SETUPS):
        if index:
            workload.release()
            # A fresh process holds no earlier set-up: drop the last one
            # entirely, so peak_rss_mb is one set-up's, not two.
            gc.collect()
        start = time.perf_counter()
        workload.prepare()
        setups.append((start, time.perf_counter()))
        pace.sample()
    # The interpreter started before any pace sample: use the first one.
    import_s /= pace.seconds[0] / pace.REF_S
    measured = workload.timed(tally, pace)
    workload.checks(tally, measured)
    readings = {
        "setup_s": [import_s + setup for setup in pace.scaled(setups)],
        **workload.end_to_end(measured, pace),
    }
    extra = workload.extra(measured, pace)
    info = workload.info(measured)
    info["raw"]["setup_s"] = statistics.median(end - start for start, end in setups)
    return {
        "end_to_end": _resolve(readings, strict=not workload.smoke),
        "extra": _resolve(extra, strict=not workload.smoke),
        "info": {**info, "import_s": import_s},
    }


# ----------------------------------------------------------------------
# Traced runs
# ----------------------------------------------------------------------
def _derived(tracer: Tracer, workers: int, facts: Dict[str, float]) -> Dict[str, float]:
    """The per-layer table plus the counts recorded at the same boundaries.

    ``facts`` carries what no wrapper can see, read from public results:
    ``RunMetrics.wire_summary()`` / ``memory_summary()``, result sizes,
    the service's hit counter.
    """
    table = layer_table(tracer)
    counts = tracer.counts
    sets = counts["ris.sampler.sets"] or facts.get("sets", 0)
    edges = counts["ris.sampler.edges_examined"] or facts.get("edges", 0)
    # Sampling seconds wherever they were spent: this process's sampler
    # spans, or the workers' own clocks (which include their encode).
    sampling = table["ris.sampler.self_s"] + counts["cluster.gen_worker_s"]
    busy = counts["cluster.gen_inline_s"] + counts["cluster.gen_worker_s"] / workers
    entries = counts["coverage.select.entries"]
    resident = counts["core.pool.sets_resident"]
    table.update(
        {
            "ris.sampler.sets": sets,
            "ris.sampler.edges_examined": edges,
            "ris.sampler.sets_per_s": sets / sampling if sampling else 0.0,
            "ris.sampler.edges_per_s": edges / sampling if sampling else 0.0,
            "ris.flat.entries_appended": counts["ris.flat.entries_appended"],
            "ris.flat.sets_replaced": counts["ris.flat.sets_replaced"],
            "coverage.state.entries_ingested": counts["coverage.state.entries_ingested"],
            "coverage.select.s_per_Mentry": (
                table["coverage.select.self_s"] / (entries / 1e6) if entries else 0.0
            ),
            "coverage.sketch.select_s": tracer.duration("core.driver.sketch_lazy_greedy"),
            "cluster.worker_busy_s": busy,
            "cluster.overhead_s": counts["cluster.gen_span_s"] - busy,
            "cluster.spawn_teardown_s": facts.get("spawn_teardown_s", 0.0),
            "cluster.round_trips": facts.get("round_trips", 0),
            "cluster.wire_sent_bytes": facts.get("wire_sent", 0),
            "cluster.wire_received_bytes": facts.get("wire_received", 0),
            "core.driver.rounds": sum(
                1 for span in tracer.spans if span[0].endswith(".check")
            ),
            "core.driver.theta": facts.get("theta", 0),
            "core.driver.store_peak_mb": facts.get("peak_nbytes", 0) / 1e6,
            "core.pool.topups": counts["core.pool.topups"],
            "core.pool.sets_generated": counts["core.pool.sets_generated"],
            "core.pool.sets_repaired_frac": (
                counts["core.pool.sets_repaired"] / resident if resident else 0.0
            ),
            "serve.service.cache_hit_frac": facts.get("cache_hit_frac", 0.0),
            "serve.service.cache_evicted": facts.get("cache_evicted", 0),
        }
    )
    return table


def _traced_cold(workload, tally: Tally, pace: Pace, trace_out: str | None):
    workload.prepare()
    plain: List[tuple] = []
    traced: List[tuple] = []
    tables: List[Dict[str, float]] = []
    tracers: List[Tracer] = []

    def pair():
        if not workload.smoke:  # a smoke run only proves the traced path runs
            start = time.perf_counter()
            workload.run_once()
            plain.append((start, time.perf_counter()))
            pace.sample()
        with tracing() as tracer:
            start = time.perf_counter()
            with tracer.request("api.run"):
                result = workload.run_once()
            traced.append((start, time.perf_counter()))
        wall = tracer.wall()
        tracers.append(tracer)
        tables.append(
            _derived(
                tracer,
                workload.workers,
                {
                    "sets": result.num_rr_sets,
                    "edges": result.total_edges_examined,
                    "theta": result.num_rr_sets,
                    "peak_nbytes": result.metrics.memory_summary()["peak_nbytes"],
                    "spawn_teardown_s": wall - tracer.duration("RoundDriver.run"),
                    **result.metrics.wire_summary(),
                },
            )
        )

    # Untraced and traced runs alternate, so drift hits both alike.
    workload.repeats(tally, pace, pair)
    if not tables:
        raise RuntimeError(f"no traced run completed: {tally.failures}")
    if trace_out:
        tracers[-1].dump_chrome(trace_out)
    table = {key: statistics.median(t[key] for t in tables) for key in tables[0]}
    plain_s, traced_s = pace.scaled(plain), pace.scaled(traced)
    table["trace.overhead_frac"] = (
        statistics.median(traced_s) / statistics.median(plain_s) - 1.0 if plain_s else 0.0
    )
    return table, {"traced_runs": len(traced), "plain_s": plain_s, "traced_s": traced_s}


def _traced_serve(workload, tally: Tally, pace: Pace, trace_out: str | None):
    length = workload.traced_length
    plain_s = 0.0
    if not workload.smoke:  # a smoke run only proves the traced path runs
        workload.prepare()
        plain_s = sum(pace.scaled(workload.timed(tally, pace, length=length)["every"]))
        workload.release()
    workload.prepare()
    with tracing() as tracer:
        traced = workload.timed(tally, pace, tracer=tracer, length=length)
    if trace_out:
        tracer.dump_chrome(trace_out)
    answered = len(traced["hits"]) + len(traced["misses"])
    facts = {
        "theta": max(
            (sum(sizes) for pool in workload.service.pool_sizes().values() for sizes in pool.values()),
            default=0,
        ),
        "cache_hit_frac": len(traced["hits"]) / answered if answered else 0.0,
    }
    if "evicted" in traced:
        facts["cache_evicted"] = traced["evicted"]
    else:
        # Every miss files one entry; the LRU evicted what did not stay.
        grown = traced["after"]["cache_entries"] - traced["before"]["cache_entries"]
        facts["cache_evicted"] = max(0, len(traced["misses"]) - grown)
    table = _derived(tracer, workload.workers, facts)
    traced_s = sum(pace.scaled(traced["every"]))
    table["trace.overhead_frac"] = traced_s / plain_s - 1.0 if plain_s else 0.0
    return table, {
        "traced_ops": sum(1 for span in tracer.spans if span[4] < 0),
        "plain_s": plain_s,
        "traced_s": traced_s,
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    spawned_at: float,
    trace_out: str | None = None,
) -> Dict[str, Any]:
    """Run one workload in this process and return everything measured."""
    import_s = time.time() - spawned_at
    workload = make_workload(name, seed, seconds, smoke)
    tally = Tally()
    pace = Pace()
    out: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
    }
    try:
        if trace:
            run = _traced_cold if workload.kind == "cold" else _traced_serve
            table, info = run(workload, tally, pace, trace_out)
            table["cluster.workers_peak_rss_mb"] = _maxrss_mb(resource.RUSAGE_CHILDREN)
            # Counted by the parent from this process's stderr at exit.
            table["cluster.shm_leak_warnings"] = 0
            out["per_layer"] = {key: float(table[key]) for key, _, _ in PER_LAYER}
            out["info"] = info
        else:
            out.update(_timed(workload, tally, pace, import_s))
            out["end_to_end"]["peak_rss_mb"] = {"value": _maxrss_mb(resource.RUSAGE_SELF)}
    finally:
        workload.release()
    if not trace:
        out["extra"]["fail_frac"] = {"value": tally.failed / max(tally.attempted, 1)}
        missing = {m.name for m in END_TO_END} - set(out["end_to_end"])
        stray = set(out["extra"]) - {m.name for m, _ in EXTRA}
        if missing or stray:
            raise RuntimeError(f"metric tables disagree: missing={missing} stray={stray}")
    out.update(
        attempted=tally.attempted,
        failed=tally.failed,
        correct=tally.failed == 0 and tally.attempted > 0,
        failures=tally.failures,
        checks=tally.checks,
        calib={
            "machine_calib_s": summary(pace.seconds),
            "ref_s": pace.REF_S,
            "noisy": spread(pace.seconds) > NOISY,
        },
    )
    return out


def main(argv: List[str]) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(prog="benchmarks.e2e _child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    result = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        args.smoke,
        args.spawned_at,
        args.trace_out,
    )
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0

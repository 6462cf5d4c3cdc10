"""The six end-to-end workloads.

Every workload offers the same four steps to :mod:`benchmarks.e2e.child`:

``prepare()``
    Everything a user pays before the first timed operation: dataset
    build, service construction, warm-up.  Timed by the caller (it is
    ``setup_s``) and repeatable — each call starts from nothing.
``timed(tally, pace, tracer=None)``
    The measured region; returns each operation's ``(start, end)`` by
    class, sampling the machine's pace (:class:`~.pace.Pace`) as it goes.
``checks(tally, measured)``
    Correctness checks; each one is an operation in ``fail_frac``.
``release()``
    Stop every thread, process and socket ``prepare()`` started.

Sizing (see README.md): one cold run and one serving stream are sized so
that a whole driver run — three set-ups, eight measured seconds, checks —
stays under twenty seconds on two cores.
"""

from __future__ import annotations

import asyncio
import json
import os
import socket
import statistics
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro import api
from repro.api import RunConfig
from repro.core.pool import SamplePool
from repro.graphs.datasets import load_dataset
from repro.graphs.digraph import GraphDelta
from repro.ris import FlatRRCollection, append_batch, make_sampler
from repro.serve import InfluenceService, Query, ServingFrontend

from .pace import Pace, raw
from .streams import PROBE_QUERY, WARMUP_QUERIES, query_stream, update_stream

__all__ = ["WORKLOADS", "Tally", "make_workload", "heldout_spread"]

MACHINES = 4
#: Worker processes behind the mp/socket executors (``nproc`` is 2).
WORKERS = 2

#: Held-out evaluation collection.  Its seed is a constant, not derived
#: from ``--seed``: it is the measuring instrument, the program never
#: sees it, and a fixed sample scores two seed sets on the same RR sets
#: instead of re-drawing ~2% of sampling noise on every run.
HELDOUT_SETS = 20_000
HELDOUT_SEED = 0x48454C44


class Tally:
    """Attempted/failed operations: runs, requests, updates and checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.checks: Dict[str, bool] = {}

    def op(self, ok: bool, what: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks[name] = bool(ok)
        return self.op(bool(ok), f"check {name}: {detail}")


def heldout_spread(graph, model: str, seeds: Sequence[int], smoke: bool = False) -> float:
    """``n * coverage_of(seeds) / num_sets`` on a fresh held-out collection
    (a quarter of the sets in a smoke run)."""
    collection = FlatRRCollection(graph.num_nodes)
    sampler = make_sampler(graph, model=model, method="vectorized")
    rng = np.random.default_rng(HELDOUT_SEED)
    sets = HELDOUT_SETS // 4 if smoke else HELDOUT_SETS
    append_batch(collection, sampler.sample_batch(rng, sets))
    return graph.num_nodes * collection.coverage_of(list(seeds)) / collection.num_sets


def _fresh_graph(dataset: str):
    # A cold process pays the stand-in's generation; repeat it per set-up.
    load_dataset.cache_clear()
    return load_dataset(dataset).graph


def _valid_seeds(seeds: Sequence[int], k: int, n: int) -> bool:
    return (
        len(seeds) == k
        and len(set(seeds)) == k
        and all(0 <= int(s) < n for s in seeds)
    )


# ----------------------------------------------------------------------
# Cold runs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ColdSpec:
    dataset: str
    model: str
    method: str
    executor: str
    k: int
    eps: float
    backend: str = "flat"
    sketch_precision: int = 10

    @property
    def real_workers(self) -> bool:
        return self.executor != "simulated"


COLD: Dict[str, ColdSpec] = {
    "cold_ic_bfs": ColdSpec("livejournal", "ic", "bfs", "simulated", k=10, eps=0.7),
    "cold_ic_vec_mp": ColdSpec(
        "livejournal", "ic", "vectorized", f"multiprocessing:{WORKERS}", k=50, eps=0.4
    ),
    "cold_lt_vec_socket": ColdSpec(
        "twitter", "lt", "vectorized", f"socket:{WORKERS}", k=50, eps=0.2
    ),
    "cold_ic_sketch": ColdSpec(
        "facebook", "ic", "vectorized", "simulated", k=20, eps=0.5,
        backend="sketch", sketch_precision=11,
    ),
}


class ColdWorkload:
    """``api.run("diimm", ...)`` with a fresh executor per run."""

    kind = "cold"

    def __init__(self, name: str, seed: int, seconds: float, smoke: bool) -> None:
        spec = COLD[name]
        if smoke:
            spec = replace(spec, dataset="facebook", k=10, eps=0.5)
        self.name, self.spec = name, spec
        self.seed, self.seconds, self.smoke = seed, seconds, smoke
        self.workers = WORKERS if spec.real_workers else 1
        self.graph = None
        self.warmup = None

    def config(self, executor: str | None = None) -> RunConfig:
        spec = self.spec
        return RunConfig(
            graph=self.graph,
            k=spec.k,
            machines=MACHINES,
            eps=spec.eps,
            model=spec.model,
            method=spec.method,
            seed=self.seed,
            backend=spec.backend,
            sketch_precision=spec.sketch_precision,
            executor=executor or spec.executor,
        )

    def run_once(self):
        return api.run("diimm", self.config())

    def prepare(self) -> None:
        self.graph = _fresh_graph(self.spec.dataset)
        self.warmup = self.run_once()

    def release(self) -> None:
        """No process or socket outlives a cold run (each closes its own
        executor); only the graph and the warm-up result are dropped."""
        self.graph = self.warmup = None

    def repeats(self, tally: Tally, pace: Pace, one_run) -> List[Any]:
        """Call ``one_run()`` until ``seconds`` are spent (three runs at
        least, one in a smoke run), sampling the pace around each; failed
        runs are tallied, not raised."""
        out: List[Any] = []
        floor = 1 if self.smoke else 3
        deadline = time.perf_counter() + self.seconds
        pace.sample()
        while len(out) < floor or (not self.smoke and time.perf_counter() < deadline):
            try:
                out.append(one_run())
                tally.op(True)
            except Exception as exc:  # noqa: BLE001 — a failed run is a result
                tally.op(False, f"run: {type(exc).__name__}: {exc}")
                if tally.failed >= 3:
                    break
            pace.sample()
        return out

    def timed(self, tally: Tally, pace: Pace) -> Dict[str, Any]:
        def one_run():
            start = time.perf_counter()
            result = self.run_once()
            return (start, time.perf_counter()), result

        pairs = self.repeats(tally, pace, one_run)
        return {
            "runs": [span for span, _ in pairs],
            "results": [result for _, result in pairs],
        }

    def checks(self, tally: Tally, measured: Dict[str, Any]) -> None:
        spec, n, results = self.spec, self.graph.num_nodes, measured["results"]
        every = [self.warmup, *results]
        tally.check(
            "seeds_valid", all(_valid_seeds(r.seeds, spec.k, n) for r in every)
        )
        tally.check(
            "seeds_repeat",
            all(list(r.seeds) == list(self.warmup.seeds) for r in results),
            "seeds differ between repeats of one config",
        )
        if spec.real_workers:
            reference = api.run("diimm", self.config(executor="simulated"))
            tally.check(
                "seeds_match_simulated",
                list(reference.seeds) == list(self.warmup.seeds),
                f"{spec.executor} seeds differ from the simulated executor's",
            )

    def end_to_end(self, measured: Dict[str, Any], pace: Pace) -> Dict[str, Any]:
        result = measured["results"][-1]
        run_ms = pace.scaled(measured["runs"], 1e3)
        return {
            "run_s": pace.scaled(measured["runs"]),
            "lat_p50_ms": run_ms,
            # Fewer than twenty runs: no percentile above the median has
            # ten samples beyond it, so the tail *is* the median here.
            "lat_tail_ms": run_ms,
            "miss_p50_ms": run_ms,
            "heldout_spread": heldout_spread(
                self.graph,
                self.spec.model,
                result.seeds,
                self.smoke,
            ),
            "wire_bytes_per_set": result.metrics.total_bytes / result.num_rr_sets,
        }

    def extra(self, measured: Dict[str, Any], pace: Pace) -> Dict[str, Any]:
        return {}

    def info(self, measured: Dict[str, Any]) -> Dict[str, Any]:
        result = measured["results"][-1]
        return {
            "raw": {"run_s": statistics.median(raw(measured["runs"]))},
            "config": {**self.config().describe(), "dataset": self.spec.dataset},
            "theta": result.num_rr_sets,
            "search_rounds": result.search_rounds,
            "breakdown": result.metrics.breakdown(),
            "memory": result.metrics.memory_summary(),
        }


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
class FrontendThread:
    """A :class:`ServingFrontend` on an event loop in its own thread."""

    def __init__(self, service: InfluenceService) -> None:
        self.loop = asyncio.new_event_loop()
        self.frontend = ServingFrontend(service)
        self.thread = threading.Thread(
            target=self.loop.run_forever, name="e2e-frontend", daemon=True
        )
        self.thread.start()
        asyncio.run_coroutine_threadsafe(self.frontend.start(), self.loop).result(30)
        self.port = self.frontend.port

    def stop(self) -> None:
        async def shutdown() -> None:
            await self.frontend.stop()
            rest = [t for t in asyncio.all_tasks() if t is not asyncio.current_task()]
            await asyncio.gather(*rest, return_exceptions=True)
            await self.loop.shutdown_default_executor()

        asyncio.run_coroutine_threadsafe(shutdown(), self.loop).result(30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(30)
        self.loop.close()


class Client:
    """The one closed-loop client: one persistent JSON-lines connection."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rwb")

    def ask(self, payload: Dict) -> Dict:
        self.file.write(json.dumps(payload).encode() + b"\n")
        self.file.flush()
        line = self.file.readline()
        if not line:
            raise ConnectionError("front-end closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.file.close()
        self.sock.close()


def _pin_to_one_cpu() -> None:
    """Keep a serving process — service, front-end threads and its one
    client — on one CPU.  They share the GIL, so a second CPU buys no
    speed; it only turns every thread hand-off of a 0.5 ms cache hit into
    a cross-CPU wake-up, whose cost on a shared VM swung hit latency 3x
    between runs while the pace kernel barely moved."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _pools(service: InfluenceService) -> Dict[Any, SamplePool]:
    # The service exposes pool *sizes* only; byte counters and the
    # post-update store comparison need the pools themselves.
    return dict(service._pools)


def _moved_bytes(service: InfluenceService) -> int:
    return sum(p.lifetime_metrics.total_bytes for p in _pools(service).values())


class ServeWarm:
    """Read-only closed loop through the TCP front-end."""

    kind = "serve"
    dataset = "facebook"
    workers = 1
    #: Queries between pace samples (about half a second of stream).
    PACE_EVERY = 20

    def __init__(self, name: str, seed: int, seconds: float, smoke: bool) -> None:
        self.name, self.seed, self.seconds, self.smoke = name, seed, seconds, smoke
        self.length = 100 if smoke else int(45 * seconds)
        self.traced_length = 40 if smoke else int(27 * seconds)
        self.service = self.server = self.client = None

    def prepare(self) -> None:
        _pin_to_one_cpu()
        self.graph = _fresh_graph(self.dataset)
        self.service = InfluenceService(self.graph, machines=MACHINES, seed=self.seed)
        self.server = FrontendThread(self.service)
        self.client = Client(self.server.port)
        for query in WARMUP_QUERIES:
            reply = self.client.ask({"op": "query", **query})
            if not reply.get("ok"):
                raise RuntimeError(f"warm-up query failed: {reply}")

    def release(self) -> None:
        if self.client is not None:
            self.client.close()
            self.server.stop()
            self.service.close()
        self.graph = self.service = self.server = self.client = None

    def timed(
        self, tally: Tally, pace: Pace, tracer=None, length: int | None = None
    ) -> Dict[str, Any]:
        stream = query_stream(self.seed, self.length if length is None else length)
        stats = self.service.stats
        before = self.service.describe()
        bytes_before = _moved_bytes(self.service)
        first: Dict[str, List[int]] = {}
        hits: List[Tuple[float, float]] = []
        misses: List[Tuple[float, float]] = []
        every: List[Tuple[float, float]] = []
        consistent = True
        selected_sets = 0
        for position, query in enumerate(stream):
            if position % self.PACE_EVERY == 0:
                pace.sample()
            payload = {"op": "query", **query}
            hits_before = stats.cache_hits
            start = time.perf_counter()
            try:
                if tracer is None:
                    reply = self.client.ask(payload)
                else:
                    with tracer.request(f"request:{query['kind']}", "serve.frontend"):
                        reply = self.client.ask(payload)
            except (OSError, ValueError) as exc:
                tally.op(False, f"request: {type(exc).__name__}: {exc}")
                continue
            span = (start, time.perf_counter())
            if not tally.op(bool(reply.get("ok")), f"request refused: {reply}"):
                continue
            every.append(span)
            if stats.cache_hits > hits_before:
                hits.append(span)
            else:
                misses.append(span)
                selected_sets += reply["num_rr_sets"]
            key = json.dumps(query, sort_keys=True)
            consistent &= first.setdefault(key, reply["seeds"]) == reply["seeds"]
        pace.sample()
        return {
            "stream": stream,
            "hits": hits,
            "misses": misses,
            "every": every,
            "first": first,
            "consistent": consistent,
            "selected_sets": selected_sets,
            "moved_bytes": _moved_bytes(self.service) - bytes_before,
            "before": before,
            "after": self.service.describe(),
        }

    def checks(self, tally: Tally, measured: Dict[str, Any]) -> None:
        tally.check(
            "repeat_same_seeds",
            measured["consistent"],
            "a repeated query returned different seeds",
        )
        reply = self.client.ask({"op": "stats"})
        before = measured["before"]
        tally.check(
            "hits_match_stats",
            reply.get("ok")
            and reply["cache_hits"] - before["cache_hits"] == len(measured["hits"])
            and reply["queries"] - before["queries"] == len(measured["every"]),
            f"stats op reports {reply}",
        )
        diimm = sorted(
            {json.dumps(q, sort_keys=True) for q in measured["stream"] if q["kind"] == "diimm"}
        )
        rng = np.random.default_rng([self.seed, 0xC01D])
        picks = rng.choice(len(diimm), size=min(1 if self.smoke else 3, len(diimm)), replace=False)
        for index in picks:
            query = json.loads(diimm[int(index)])
            cold = api.run(
                "diimm",
                RunConfig(
                    graph=self.graph,
                    k=query["k"],
                    machines=MACHINES,
                    eps=query["eps"],
                    seed=self.seed,
                ),
            )
            tally.check(
                f"warm_equals_cold_k{query['k']}_eps{query['eps']}",
                [int(s) for s in cold.seeds] == measured["first"][diimm[int(index)]],
                "warm reply differs from a cold api.run",
            )

    def end_to_end(self, measured: Dict[str, Any], pace: Pace) -> Dict[str, Any]:
        probe = self.client.ask({"op": "query", **PROBE_QUERY})
        return {
            "run_s": sum(pace.scaled(measured["every"])),
            "lat_p50_ms": pace.scaled(measured["hits"], 1e3),
            "lat_tail_ms": ("p96", pace.scaled(measured["every"], 1e3)),
            "miss_p50_ms": pace.scaled(measured["misses"], 1e3),
            "heldout_spread": heldout_spread(
                self.graph,
                "ic",
                probe["seeds"],
                self.smoke,
            ),
            "wire_bytes_per_set": measured["moved_bytes"] / measured["selected_sets"],
        }

    def extra(self, measured: Dict[str, Any], pace: Pace) -> Dict[str, Any]:
        return {"qps": len(measured["every"]) / sum(pace.scaled(measured["every"]))}

    def info(self, measured: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "raw": {
                "run_s": sum(raw(measured["every"])),
                "lat_p50_ms": statistics.median(raw(measured["hits"], 1e3)),
                "miss_p50_ms": statistics.median(raw(measured["misses"], 1e3)),
            },
            "queries": len(measured["every"]),
            "hits": len(measured["hits"]),
            "misses": len(measured["misses"]),
            "distinct": len(measured["first"]),
            "pools": self.service.pool_sizes(),
            "stats": measured["after"],
        }


class ServeDynamic:
    """Updates beside reads on one dynamic service, called in-process."""

    kind = "serve"
    dataset = "facebook"
    workers = 1
    query = Query(kind="diimm", k=20, eps=0.5)

    def __init__(self, name: str, seed: int, seconds: float, smoke: bool) -> None:
        self.name, self.seed, self.seconds, self.smoke = name, seed, seconds, smoke
        self.length = 10 if smoke else int(5 * seconds)
        self.traced_length = 4 if smoke else int(3 * seconds)
        self.service = None

    def prepare(self) -> None:
        _pin_to_one_cpu()
        self.graph = _fresh_graph(self.dataset)
        self.service = InfluenceService(
            self.graph, machines=MACHINES, seed=self.seed, dynamic=True
        )
        self.service.query(self.query)

    def release(self) -> None:
        if self.service is not None:
            self.service.close()
        self.graph = self.service = None

    def _call(self, tally: Tally, tracer, name: str, fn, arg):
        start = time.perf_counter()
        try:
            if tracer is None:
                out = fn(arg)
            else:
                with tracer.request(name):
                    out = fn(arg)
        except Exception as exc:  # noqa: BLE001 — a failed op is a result
            tally.op(False, f"{name}: {type(exc).__name__}: {exc}")
            return None, (start, start)
        tally.op(True)
        return out, (start, time.perf_counter())

    def timed(
        self, tally: Tally, pace: Pace, tracer=None, length: int | None = None
    ) -> Dict[str, Any]:
        service, stats = self.service, self.service.stats
        deltas = update_stream(
            self.graph, self.seed, self.length if length is None else length
        )
        bytes_before = _moved_bytes(service)
        updates: List[Tuple[float, float]] = []
        misses: List[Tuple[float, float]] = []
        hits: List[Tuple[float, float]] = []
        classified = consistent = True
        evicted = selected_sets = 0
        last = None
        for position, payload in enumerate(deltas):
            if position % 2 == 0:
                pace.sample()
            delta = GraphDelta.from_json(payload)
            summary, span = self._call(tally, tracer, "update", service.apply_update, delta)
            if summary is None:
                continue
            updates.append(span)
            evicted += summary["evicted"]
            hits_before = stats.cache_hits
            fresh, span = self._call(tally, tracer, "query", service.query, self.query)
            if fresh is None:
                continue
            misses.append(span)
            selected_sets += fresh.num_rr_sets
            classified &= stats.cache_hits == hits_before
            again, span = self._call(tally, tracer, "query", service.query, self.query)
            if again is None:
                continue
            hits.append(span)
            classified &= stats.cache_hits == hits_before + 1
            consistent &= list(again.seeds) == list(fresh.seeds)
            last = fresh
        pace.sample()
        return {
            "deltas": deltas,
            "every": [*updates, *misses, *hits],
            "updates": updates,
            "misses": misses,
            "hits": hits,
            "classified": classified,
            "consistent": consistent,
            "evicted": evicted,
            "selected_sets": selected_sets,
            "moved_bytes": _moved_bytes(service) - bytes_before,
            "last": last,
        }

    def checks(self, tally: Tally, measured: Dict[str, Any]) -> None:
        tally.check(
            "miss_then_hit",
            measured["classified"],
            "a post-update query hit the cache, or its repeat missed",
        )
        tally.check(
            "repeat_same_seeds",
            measured["consistent"],
            "the cached reply differs from the computed one",
        )
        final = self.service.graph.compact()
        equal = True
        for pool in _pools(self.service).values():
            with SamplePool(
                final,
                machines=MACHINES,
                seed=self.seed,
                model=pool.model,
                method=pool.method,
                rng_scheme="per-set",
            ) as cold:
                for key, sizes in pool.sizes().items():
                    cold.ensure(key, sizes)
                    for warm_store, cold_store in zip(pool.stores(key), cold.stores(key)):
                        equal &= np.array_equal(warm_store.nodes, cold_store.nodes)
                        equal &= np.array_equal(warm_store.offsets, cold_store.offsets)
        tally.check(
            "pools_equal_cold_rebuild",
            equal,
            "a repaired pool store differs from a cold per-set pool on the final graph",
        )

    def end_to_end(self, measured: Dict[str, Any], pace: Pace) -> Dict[str, Any]:
        return {
            "run_s": sum(pace.scaled(measured["every"])),
            "lat_p50_ms": pace.scaled(measured["updates"], 1e3),
            "lat_tail_ms": ("p75", pace.scaled(measured["updates"], 1e3)),
            "miss_p50_ms": pace.scaled(measured["misses"], 1e3),
            "heldout_spread": heldout_spread(
                self.service.graph.compact(),
                "ic",
                measured["last"].seeds,
                self.smoke,
            ),
            "wire_bytes_per_set": measured["moved_bytes"] / measured["selected_sets"],
        }

    def extra(self, measured: Dict[str, Any], pace: Pace) -> Dict[str, Any]:
        return {"hit_p50_ms": pace.scaled(measured["hits"], 1e3)}

    def info(self, measured: Dict[str, Any]) -> Dict[str, Any]:
        return {
            "raw": {
                "run_s": sum(raw(measured["every"])),
                "lat_p50_ms": statistics.median(raw(measured["updates"], 1e3)),
                "miss_p50_ms": statistics.median(raw(measured["misses"], 1e3)),
            },
            "updates": len(measured["updates"]),
            "queries": len(measured["misses"]) + len(measured["hits"]),
            "cache_evicted": measured["evicted"],
            "pools": self.service.pool_sizes(),
            "graph_version": self.service.graph_version,
        }


WORKLOADS: Dict[str, type] = {
    **{name: ColdWorkload for name in COLD},
    "serve_warm": ServeWarm,
    "serve_dynamic": ServeDynamic,
}


def make_workload(name: str, seed: int, seconds: float, smoke: bool = False):
    return WORKLOADS[name](name, seed, seconds, smoke)

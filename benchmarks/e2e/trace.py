"""Span tracing at the repo's layer boundaries, installed from outside.

This PR may not edit ``src/``, so the spans the ROADMAP's telemetry
spine will one day emit from inside are recorded here by wrapping public
callables: class attributes, or the name a caller imported into its own
module globals.  :func:`tracing` installs every wrapper, yields the
:class:`Tracer`, and restores the originals on exit — nothing stays
patched after a traced run, which ``test_harness.py`` pins.

A span is ``(name, layer, start, end, parent, trace_id)``.  Spans nest
through a per-thread stack; a thread's outermost span hangs off the
tracer's *ambient* span (the client-side request in flight), which is
how server-side work on the front-end's threads is attributed to the
closed-loop request that caused it.  A layer's self time is its spans'
duration minus the part of that interval their children cover.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple

__all__ = ["LAYERS", "Tracer", "tracing", "layer_table", "self_times"]

#: The repo's modules, in pipeline order, plus ``harness`` for whatever
#: the wrappers do not see (never dropped: self times sum to the wall).
LAYERS: Tuple[str, ...] = (
    "graphs",
    "ris.sampler",
    "ris.wire",
    "ris.flat",
    "coverage.state",
    "coverage.select",
    "coverage.sketch",
    "cluster",
    "core.driver",
    "core.pool",
    "applications",
    "serve.service",
    "serve.frontend",
    "harness",
)

_NAME, _LAYER, _START, _END, _PARENT, _TRACE, _THREAD = range(7)


class Tracer:
    """In-memory span and counter recorder."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self.trace_id = 0
        self._ambient = -1
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, layer: str | None) -> int:
        """Open a span; ``layer=None`` inherits the parent's layer."""
        stack = self._stack()
        parent = stack[-1] if stack else self._ambient
        if layer is None:
            layer = self.spans[parent][_LAYER] if parent >= 0 else "harness"
        span = [name, layer, 0.0, 0.0, parent, self.trace_id, threading.get_ident()]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span[_START] = time.perf_counter()
        return index

    def end(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def request(self, name: str, layer: str = "harness") -> Iterator[int]:
        """A client-side root span: one run, request or update.

        Spans opened on *other* threads while it is in flight become its
        children, and every span inside shares a fresh ``trace_id``.
        """
        self.trace_id += 1
        index = self.begin(name, layer)
        self._ambient = index
        try:
            yield index
        finally:
            self._ambient = -1
            self.end(index)

    def wall(self) -> float:
        """Summed duration of the root spans: the traced wall."""
        return sum(s[_END] - s[_START] for s in self.spans if s[_PARENT] < 0)

    def duration(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s[_END] - s[_START] for s in self.spans if s[_NAME] == name)

    def dump_chrome(self, path: str) -> None:
        """Write the spans as a Chrome-trace JSON array, one event a line
        (loads in ``chrome://tracing`` and https://ui.perfetto.dev)."""
        origin = min((s[_START] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            out.write("[\n")
            for index, span in enumerate(self.spans):
                event = {
                    "name": span[_NAME],
                    "cat": span[_LAYER],
                    "ph": "X",
                    "ts": (span[_START] - origin) * 1e6,
                    "dur": (span[_END] - span[_START]) * 1e6,
                    "pid": 1,
                    "tid": span[_THREAD],
                    "args": {
                        "id": index,
                        "parent": span[_PARENT],
                        "trace_id": span[_TRACE],
                    },
                }
                comma = "," if index + 1 < len(self.spans) else ""
                out.write(json.dumps(event) + comma + "\n")
            out.write("]\n")


def self_times(spans: List[list]) -> List[float]:
    """Per-span self time: duration minus the union of child intervals."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[_PARENT] >= 0:
            children.setdefault(span[_PARENT], []).append((span[_START], span[_END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[_START], span[_END]
        covered, cursor = 0.0, start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out


def layer_table(tracer: Tracer) -> Dict[str, float]:
    """``L.self_s`` / ``L.calls`` / ``L.share`` for every layer."""
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        self_s[span[_LAYER]] += own
        calls[span[_LAYER]] += 1
    wall = tracer.wall()
    table: Dict[str, float] = {}
    for layer in LAYERS:
        table[f"{layer}.self_s"] = self_s[layer]
        table[f"{layer}.calls"] = calls[layer]
        table[f"{layer}.share"] = self_s[layer] / wall if wall else 0.0
    return table


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _wrap(
    tracer: Tracer,
    fn: Callable,
    name: str | Callable[..., str],
    layer: str | None | Callable[..., str | None],
    before: Callable | None = None,
    after: Callable | None = None,
) -> Callable:
    """``fn`` inside a span; ``after(counts, span, ctx, out, *args,
    **kwargs)`` records counts at the boundary — ``span`` is the closed
    span, ``ctx`` whatever ``before(*args, **kwargs)`` returned."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        ctx = before(*args, **kwargs) if before is not None else None
        index = tracer.begin(
            name(*args, **kwargs) if callable(name) else name,
            layer(*args, **kwargs) if callable(layer) else layer,
        )
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(tracer.counts, tracer.spans[index], ctx, out, *args, **kwargs)
        return out

    return wrapper


def _phase_suffix(label: str) -> str:
    """``search-2/generate`` -> ``generate``; ``final/newgreedi/map-3`` ->
    ``newgreedi/*``; ``search-1/counts/map`` -> ``counts*``."""
    parts = label.split("/")
    for marker in ("newgreedi", "counts"):
        if marker in parts[:-1] or parts[-1].startswith(marker):
            return "newgreedi/*" if marker == "newgreedi" else "counts*"
    tail = parts[-1]
    return "generate-*" if tail.startswith("generate") else tail


def _patches(tracer: Tracer) -> List[Tuple[Any, str, Callable]]:
    """Every ``(owner, attribute, wrapper-factory)`` the traced run installs.

    Imports live here so that importing this module stays free of
    ``repro`` (the stream and statistics tests need no graph code).
    """
    from importlib import import_module

    from repro.cluster.executor import Executor, MultiprocessingExecutor
    from repro.cluster.metrics import GENERATION
    from repro.cluster.socket_executor import SocketExecutor
    from repro.core.driver import RoundDriver, StoppingRule
    from repro.core.pool import SamplePool
    from repro.coverage.sketch import SketchCoverageState, SketchRRCollection
    from repro.coverage.state import CoverageState
    from repro.graphs.digraph import DirectedGraph, VersionedGraph
    from repro.ris import (
        FlatPrefixView,
        FlatRRCollection,
        ICReverseBFSSampler,
        LTReverseWalkSampler,
        SubsimSampler,
        VectorizedICSampler,
        VectorizedLTSampler,
    )
    from repro.serve.service import InfluenceService

    # Packages re-export functions under their submodules' names
    # (``repro.core.diimm`` is a function), so fetch modules by path.
    adaptive = import_module("repro.applications.adaptive")
    targeted = import_module("repro.applications.targeted")
    executor_mod = import_module("repro.cluster.executor")
    parallel = import_module("repro.cluster.parallel")
    socket_executor = import_module("repro.cluster.socket_executor")
    diimm = import_module("repro.core.diimm")
    driver = import_module("repro.core.driver")
    pool = import_module("repro.core.pool")
    frontend = import_module("repro.serve.frontend")
    service = import_module("repro.serve.service")

    plan: List[Tuple[Any, str, Callable]] = []

    def add(owner, attr, layer, name=None, before=None, after=None):
        label = name or f"{getattr(owner, '__name__', owner)}.{attr}".replace(
            "repro.", ""
        )
        plan.append(
            (owner, attr, lambda fn: _wrap(tracer, fn, label, layer, before, after))
        )

    # -- core.driver ----------------------------------------------------
    add(RoundDriver, "run", "core.driver")
    rules, todo = [], [StoppingRule]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if "check" in cls.__dict__ and cls is not StoppingRule:
            rules.append(cls)
    for cls in rules:
        add(cls, "check", "core.driver")

    # -- cluster --------------------------------------------------------
    def phase_name(self, plan_):
        return f"run_phase:{type(plan_).__name__}:{_phase_suffix(plan_.label)}"

    def phase_layer(self, plan_):
        # Generation is the executor's own work; map/gather/master phases
        # run the caller's closure, so they stay in the caller's layer.
        return "cluster" if type(plan_).__name__ == "GeneratePhase" else None

    def phase_after(counts, span, ctx, out, self, plan_):
        if out.category == GENERATION:
            # In-process machines run one after another; real workers
            # report their own clocks and overlap each other.
            where = "inline" if self.name == "simulated" else "worker"
            counts[f"cluster.gen_{where}_s"] += sum(out.machine_times)
            counts["cluster.gen_span_s"] += span[_END] - span[_START]

    plan.append(
        (
            Executor,
            "run_phase",
            lambda fn: _wrap(tracer, fn, phase_name, phase_layer, None, phase_after),
        )
    )
    add(MultiprocessingExecutor, "close", "cluster")
    add(SocketExecutor, "close", "cluster")
    add(diimm, "make_executor", "cluster")
    add(
        diimm,
        "make_collection",
        lambda n, backend="flat", **kw: (
            "coverage.sketch" if backend == "sketch" else "ris.flat"
        ),
    )
    add(pool, "make_executor", "cluster")
    add(DirectedGraph, "to_shared", "graphs")
    add(VersionedGraph, "to_shared", "graphs")

    # -- ris.wire (master side; workers encode in their own processes) ---
    for module in (parallel, socket_executor):
        add(module, "decode_batch", "ris.wire")
        add(module, "unpack_message", "ris.wire")

    # -- ris.sampler ----------------------------------------------------
    def sampled(counts, span, ctx, batch, *args, **kwargs):
        counts["ris.sampler.sets"] += batch.count
        counts["ris.sampler.edges_examined"] += int(batch.edges_examined.sum())

    for cls in (
        ICReverseBFSSampler,
        LTReverseWalkSampler,
        SubsimSampler,
        VectorizedICSampler,
        VectorizedLTSampler,
    ):
        add(cls, "sample_batch", "ris.sampler", after=sampled)
    # Per-set draws (dynamic pools): the substream construction around
    # each one-set sample_batch belongs to the sampling layer too.
    add(pool, "sample_set_range", "ris.sampler")
    add(executor_mod, "sample_set_range", "ris.sampler")

    # -- ris.flat -------------------------------------------------------
    def appended(counts, span, ctx, out, self, nodes, *args, **kwargs):
        counts["ris.flat.entries_appended"] += int(len(nodes))

    def replaced(counts, span, ctx, out, self, set_ids, *args, **kwargs):
        counts["ris.flat.sets_replaced"] += int(len(set_ids))

    add(FlatRRCollection, "append_arrays", "ris.flat", after=appended)
    add(FlatRRCollection, "affected_sets", "ris.flat")
    add(FlatRRCollection, "replace_sets", "ris.flat", after=replaced)
    add(FlatPrefixView, "set_limit", "ris.flat")

    # -- coverage -------------------------------------------------------
    def marks(self, executor, stores, *args, **kwargs):
        return list(self.watermarks)

    def ingested(counts, span, before_marks, out, self, executor, stores, *args, **kwargs):
        for store, mark in zip(stores, before_marks):
            offsets = store.offsets
            counts["coverage.state.entries_ingested"] += int(
                offsets[store.num_sets] - offsets[mark]
            )

    def selected(counts, span, ctx, out, *args, **kwargs):
        for store in kwargs.get("stores") or ():
            counts["coverage.select.entries"] += int(store.total_size)

    add(CoverageState, "ingest", "coverage.state", before=marks, after=ingested)
    add(CoverageState, "repair", "coverage.state")
    add(CoverageState, "fork", "coverage.state")
    add(driver, "newgreedi", "coverage.select", after=selected)
    add(driver, "greedy_max_coverage", "coverage.select")
    add(targeted, "newgreedi", "coverage.select")
    add(adaptive, "newgreedi", "coverage.select")
    add(driver, "sketch_lazy_greedy", "coverage.sketch")
    add(SketchRRCollection, "append_arrays", "coverage.sketch")
    add(SketchCoverageState, "ingest", "coverage.sketch")

    # -- core.pool ------------------------------------------------------
    def ensured(counts, span, ctx, generated, *args, **kwargs):
        if generated:
            counts["core.pool.topups"] += 1
            counts["core.pool.sets_generated"] += int(generated)

    def repaired(counts, span, ctx, per_key, self, *args, **kwargs):
        counts["core.pool.sets_repaired"] += int(sum(per_key.values()))
        counts["core.pool.sets_resident"] += sum(
            sum(sizes) for sizes in self.sizes().values()
        )

    add(SamplePool, "ensure", "core.pool", after=ensured)
    add(SamplePool, "repair", "core.pool", after=repaired)
    add(SamplePool, "fork_coverage", "core.pool")
    add(SamplePool, "donate_coverage", "core.pool")

    # -- graphs / applications / serve ----------------------------------
    add(VersionedGraph, "apply", "graphs")
    for entry in (
        "budgeted_influence_maximization",
        "profit_maximization",
        "targeted_influence_maximization",
    ):
        add(service, entry, "applications")
    add(InfluenceService, "query", "serve.service")
    add(InfluenceService, "apply_update", "serve.service")
    add(frontend, "result_payload", "serve.frontend")
    return plan


_MISSING = object()


@contextmanager
def tracing() -> Iterator[Tracer]:
    """Install every wrapper, yield the tracer, restore the originals."""
    tracer = Tracer()
    undo: List[Tuple[Any, str, Any]] = []
    try:
        for owner, attr, factory in _patches(tracer):
            # vars() keeps staticmethod objects and tells an inherited
            # attribute (restored by deletion) from an owned one.
            original = vars(owner).get(attr, _MISSING)
            target = getattr(owner, attr)
            undo.append((owner, attr, original))
            setattr(owner, attr, factory(target))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

"""The SamplePool: RR-sample lifetime split from query lifetime.

Every cold entry point couples three lifetimes that have no business
being coupled: the executor (worker processes, shared-memory graph), the
per-machine RR collections, and the query being answered.  A
:class:`SamplePool` owns the first two for as long as the caller wants —
typically the lifetime of a :class:`~repro.serve.service.InfluenceService`
— and answers any number of queries against *prefixes* of the same
collections:

* each machine's collection is append-only and grown by topping up
  (:meth:`ensure`): set ``i`` of collection ``key`` on machine ``m`` is
  drawn at its coordinates ``(seed, key, m, i)``
  (:func:`~repro.ris.rrset.sample_set_range`), no state carried over;
* a query never reads the collections directly — it reads
  :class:`~repro.ris.flat.FlatPrefixView` windows
  (:meth:`view_stores`) whose limits follow the query's own sampling
  schedule, so the sets it sees are bit-identical to the collections a
  cold run of that schedule would have generated (a set's bytes depend
  only on its coordinates and the graph, not on wave boundaries);
* finished queries donate their final
  :class:`~repro.coverage.state.CoverageState` back to the pool
  (:meth:`donate_coverage`); later queries whose first-round prefixes
  dominate a donated watermark fork it copy-on-write
  (:meth:`fork_coverage`) instead of re-aggregating from zero.

The pool is thread-safe by serialization: :meth:`query_metrics` — which
every query must wrap its phases in — holds the pool lock, swaps a fresh
:class:`~repro.cluster.metrics.RunMetrics` onto the executor for the
query, and folds it into the pool's lifetime totals afterwards
(:class:`~repro.cluster.metrics.RunningTotals`: one record per category,
however many queries ran).  Queries against *different* pools run
concurrently.  :meth:`signature` is the one read that never waits on
the lock: the pool publishes it, rebuilt under the lock, whenever sizes
or the update epoch change.

Bit-for-bit warm/cold equivalence holds for every pool: a set's bytes
are a function of its coordinates, the pool's root set and the graph (the
model's keyed kernel, :mod:`repro.ris.vectorized`).  A targeted pool is a
pool with ``roots``: its sets are rooted in them, drawn by the same
:class:`~repro.cluster.executor.GeneratePhase` — on the workers, with
their retries — as any other.

Dynamic graphs
--------------
A pool over a :class:`~repro.graphs.digraph.VersionedGraph` survives
graph updates: when :meth:`apply_update` lands a
:class:`~repro.graphs.digraph.GraphDelta` the pool re-examines the sets
whose traversal consulted a changed in-row
(:meth:`~repro.ris.flat.FlatRRCollection.affected_sets`).  It replays
each one's touched rows on the sampler of the graph before the update
and on the new one (the executor's kernel rebased on the touched rows,
:meth:`~repro.cluster.executor.Executor.refresh_graph`), and redraws —
same coordinates, new graph — only the sets where some row's outcome
changed, splicing them in place under
stable ids (:meth:`~repro.ris.flat.FlatRRCollection.replace_sets`); a
kept set's bytes stand.  Donated coverage snapshots are repaired by
retraction deltas instead of being discarded, and the pool's
:meth:`signature` carries an update epoch so the serving layer's result
cache misses the entries of every pool with re-examined sets.  The
differential anchor: a repaired warm pool is bit-identical to a pool
built cold on the already-updated graph with the same seed and
schedule.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Dict, Iterator, List, Sequence, Tuple

import numpy as np

from ..cluster.cluster import SimulatedCluster
from ..cluster.executor import GeneratePhase, MapPhase, executor_scope, make_executor
from ..cluster.spec import as_spec
from ..cluster.metrics import GENERATION, RunMetrics, RunningTotals
from ..cluster.network import NetworkModel
from ..coverage.state import CoverageState
from ..diffusion.lt import check_lt_feasible
from ..graphs.digraph import DirectedGraph, GraphDelta, VersionedGraph
from ..ris.flat import FlatPrefixView, FlatRRCollection, gather_rows
from ..ris import check_method_vestige, check_model
from ..ris.rrset import RRSampler, sample_set_range, set_keys

__all__ = ["SamplePool", "as_roots"]

#: Donated coverage snapshots kept per collection key.
MAX_CACHED_COVERAGE = 4


def as_roots(roots, num_nodes: int) -> np.ndarray | None:
    """``roots`` as the sorted, unique ``int64`` node ids a set's root is
    drawn from; ``None`` (all nodes) stays ``None``.

    Raises ``ValueError`` for an empty root set or an id outside
    ``[0, num_nodes)``.
    """
    if roots is None:
        return None
    roots = np.unique(
        np.asarray(roots if isinstance(roots, np.ndarray) else list(roots), dtype=np.int64)
    )
    if roots.size == 0:
        raise ValueError("the root set must not be empty")
    if roots[0] < 0 or roots[-1] >= num_nodes:
        raise ValueError(f"root ids must lie in [0, {num_nodes})")
    return roots


class SamplePool:
    """A resident, shared, append-only RR-sample pool.

    Parameters
    ----------
    graph:
        The (already loaded) :class:`~repro.graphs.digraph.DirectedGraph`.
    machines:
        Cluster width ``l``; fixed for the pool's lifetime.
    seed:
        Root RNG seed.  Warm results equal cold runs with this seed.
    model:
        Diffusion model of the pool's keyed kernel (``make_sampler``'s).
    method:
        Vestige (:data:`repro.ris.METHOD_VESTIGES`): accepted and echoed
        by :attr:`method`, which the frozen benchmark harness reads back.
    executor:
        An :class:`~repro.cluster.spec.ExecutorSpec` or its string
        shorthand (``"simulated"``, ``"multiprocessing:4"``,
        ``"socket:..."``); the pool owns the executor (worker
        processes, shared-memory graph, socket connections) until
        :meth:`close`.
    rng_scheme:
        Vestige: every pool draws coordinate-keyed sets, what ``"per-set"``
        used to select.  Accepted with exactly that value because the frozen
        benchmark harness passes it; the next ``[benchmark]`` PR drops it.
    roots:
        The node ids every set's root is drawn from (targeted IM;
        :func:`as_roots` normalises them into :attr:`roots`), or ``None``
        (default) for all nodes.
    """

    def __init__(
        self,
        graph,
        machines: int = 1,
        *,
        seed: int = 0,
        model: str = "ic",
        method: str = "bfs",
        executor="simulated",
        network: NetworkModel | None = None,
        rng_scheme: str = "per-set",
        roots=None,
    ) -> None:
        check_method_vestige(method)
        check_model(model)
        if rng_scheme != "per-set":
            raise ValueError(
                f"rng_scheme is a vestige: only 'per-set' is accepted, got {rng_scheme!r}"
            )
        spec = as_spec(executor)
        self.graph = graph
        self.seed = seed
        self.model = model
        self.method = method
        #: Sorted unique node ids every set is rooted in; ``None``: all nodes.
        self.roots = as_roots(roots, graph.num_nodes)
        self.executor = make_executor(
            spec, SimulatedCluster(machines, network=network, seed=seed), graph=graph
        )
        if isinstance(graph, VersionedGraph):
            try:
                # A repair replays touched rows on the kernel of the graph
                # before the update, so it must exist before the graph moves.
                self._kernel()
            except BaseException:
                # A kernel that cannot be built must not leak the worker
                # pool / shared-memory graph the executor just acquired.
                self.executor.close()
                raise
        self._stores: Dict[str, List[FlatRRCollection]] = {}
        self._coverage_cache: Dict[str, List[CoverageState]] = {}
        self._lock = threading.RLock()
        self.queries_served = 0
        #: Number of graph updates repaired into the pool; part of
        #: :meth:`signature` so repaired contents miss stale cache entries.
        self.updates = 0
        self._signature: Tuple = (0, ())
        self._lifetime = self.executor.metrics = RunningTotals()
        self._closed = False

    # ------------------------------------------------------------------
    # Shape
    # ------------------------------------------------------------------
    @property
    def num_machines(self) -> int:
        return self.executor.num_machines

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def lock(self) -> threading.RLock:
        """The pool-wide lock serializing queries (held by
        :meth:`query_metrics`)."""
        return self._lock

    @property
    def lifetime_metrics(self) -> RunningTotals:
        """Running totals of every phase the pool ran: each query's, each
        top-up's and each repair's.

        One record per category however much traffic the pool served, so
        per-phase detail (labels, rounds) is gone; ``total_bytes``, the
        wire counters and ``sets_redrawn`` read what the per-phase records
        would have summed to, and ``breakdown()`` too, to float rounding.
        """
        return self._lifetime

    def sizes(self) -> Dict[str, List[int]]:
        """Per-machine collection sizes for each key, from the published
        :meth:`signature` (no lock taken)."""
        return {key: list(counts) for key, counts in self._signature[1]}

    def signature(self) -> Tuple:
        """A hashable snapshot of the pool's contents — the pool-state
        component of the serving layer's query-cache key.

        Covers per-key collection sizes *and* the update epoch: an
        in-place repair keeps every size but rewrites contents, so the
        epoch is what makes pre-update cache entries miss.

        Lock-free: returns the tuple last published by :meth:`ensure`,
        :meth:`repair` or a key's first store, each rebuilding it under the
        pool lock once its change is complete.  A reader racing a top-up
        sees the sizes from before it — whose cached answers are still
        right, since growth appends and never rewrites — and a reader
        racing a repair sees the old epoch until the repair is done.
        """
        return self._signature

    def _publish(self) -> None:
        """Rebuild :meth:`signature` (caller holds the pool lock)."""
        self._signature = (
            self.updates,
            tuple(
                sorted(
                    (key, tuple(store.num_sets for store in stores))
                    for key, stores in self._stores.items()
                )
            ),
        )

    # ------------------------------------------------------------------
    # Growth and views
    # ------------------------------------------------------------------
    def stores(self, key: str) -> List[FlatRRCollection]:
        """The backing per-machine collections for ``key`` (created on
        first use)."""
        with self._lock:
            stores = self._stores.get(key)
            if stores is None:
                stores = [
                    FlatRRCollection(self.num_nodes)
                    for _ in range(self.num_machines)
                ]
                self._stores[key] = stores
                self._publish()
            return stores

    def view_stores(self, keys: Sequence[str]) -> Dict[str, List[FlatPrefixView]]:
        """Fresh zero-limit prefix views, one per machine per key.

        Each query gets its own views; their limits advance with the
        query's schedule while the backing collections are shared.
        """
        return {
            key: [FlatPrefixView(store, 0) for store in self.stores(key)]
            for key in keys
        }

    def ensure(
        self, key: str, needed: Sequence[int], label: str = "pool/ensure"
    ) -> int:
        """Top collection ``key`` up to ``needed[i]`` sets on machine ``i``.

        Only the shortfall is generated — the next sets of ``key`` by
        index; machines already at or past their target draw nothing.
        Returns the number of RR sets generated.
        """
        with self._lock:
            stores = self.stores(key)
            if len(needed) != len(stores):
                raise ValueError(
                    f"expected {len(stores)} per-machine targets, got {len(needed)}"
                )
            counts = [
                max(0, int(target) - store.num_sets)
                for target, store in zip(needed, stores)
            ]
            total = sum(counts)
            if total == 0:
                return 0
            try:
                with self._metered():
                    self._generate(label, key, stores, counts)
            finally:
                self._publish()
            return total

    # ------------------------------------------------------------------
    # Dynamic-graph repair
    # ------------------------------------------------------------------
    def apply_update(self, delta: GraphDelta) -> Dict[str, int]:
        """Land ``delta`` on the pool's graph and repair every collection.

        The graph must be a :class:`~repro.graphs.digraph.VersionedGraph`
        (it mutates in place, preserving the identity
        :meth:`check_config` pins).  A delta :meth:`check_graph` refuses
        changes nothing.  Returns what :meth:`repair` returns: per
        collection key, how many RR sets were re-examined (those
        containing a touched node); the ones redrawn among them add up
        in ``lifetime_metrics.sets_redrawn``.
        """
        with self._lock:
            if not isinstance(self.graph, VersionedGraph):
                raise TypeError(
                    "apply_update needs a VersionedGraph; wrap the base graph "
                    "in VersionedGraph(graph) when building the pool"
                )
            touched = self.graph.apply(delta, validate=self.check_graph)
            return self.repair(touched)

    def check_graph(self, graph: DirectedGraph) -> None:
        """Raise ``ValueError`` if the pool's model cannot sample ``graph``:
        LT needs every node's incoming probabilities to sum to <= 1."""
        if self.model.lower() == "lt":
            check_lt_feasible(graph)

    def repair(self, touched=None) -> Dict[str, int]:
        """Re-examine the RR sets a graph mutation may have changed, and
        redraw the ones it did change.

        ``touched`` is what :meth:`VersionedGraph.apply
        <repro.graphs.digraph.VersionedGraph.apply>` returned: the
        ascending node ids whose in-rows changed, or ``None`` for full
        invalidation (node additions).  The sets containing a touched node
        are re-examined: a keyed set is the reverse reach of its root in a
        world that is a function of its key, so it is unchanged iff each
        touched row it contains keeps its outcome, replayed on the sampler
        of the graph before the update and on the new one
        (:meth:`~repro.ris.vectorized.VectorizedICSampler.rows_changed`; the rank-stable
        splice keeps most outcomes).  Only a set where some outcome
        differs is redrawn — at its coordinates, spliced in place under
        its id; the others keep their bytes and only their
        ``edges_examined`` becomes the new in-degree sum.  So repaired
        collections are bit-identical to cold regeneration.

        Donated coverage snapshots are patched by retraction deltas for
        the redrawn sets (full invalidation drops them instead).  Returns
        the number of *re-examined* sets per collection key; the redrawn
        ones are counted in :attr:`lifetime_metrics`
        (``sets_redrawn``).  Metered as generation phases in the pool's
        lifetime metrics.
        """
        with self._lock:
            before = self._kernel()
            self.executor.refresh_graph(touched)
            sampler = self._kernel()
            repaired: Dict[str, int] = {}
            with self._metered():
                for key in list(self._stores):
                    stores = self._stores[key]
                    if touched is None:
                        repaired[key] = self._regenerate_all(key, stores)
                    else:
                        repaired[key] = self._repair_touched(key, stores, before, sampler, touched)
            if touched is None:
                self._coverage_cache.clear()
            # A repair that re-examined nothing left every collection — and
            # therefore every cached result — bit-identical, so the epoch
            # (and with it the serving cache) only moves when sets were
            # re-examined.
            if touched is None or any(repaired.values()):
                self.updates += 1
                self._publish()
            return repaired

    def _kernel(self) -> RRSampler:
        """The kernel the pool draws with on the graph as it is now."""
        return self.executor.sampler(self.model)

    def _generate(
        self, label: str, key: str, stores: List[FlatRRCollection], counts: Sequence[int]
    ) -> None:
        """Append the next ``counts[m]`` sets of ``key`` to each machine's store."""
        self.executor.run_phase(
            GeneratePhase(
                label,
                counts=tuple(counts),
                targets=tuple(stores),
                model=self.model,
                key=key,
                roots=self.roots,
            )
        )

    def _repair_touched(
        self,
        key: str,
        stores: List[FlatRRCollection],
        before: RRSampler,
        sampler: RRSampler,
        touched: np.ndarray,
    ) -> int:
        """Re-examine the sets containing a touched node; redraw and
        splice the ones whose touched rows changed outcome."""
        seed, roots = self.seed, self.roots
        cache = tuple(self._coverage_cache.get(key, ()))
        in_indptr = self.graph.in_indptr
        redrawn = [0] * len(stores)

        def regen(mid: int) -> int:
            store = stores[mid]
            ids = store.affected_sets(touched)
            examined = int(ids.size)
            if examined == 0:
                return 0
            nodes = gather_rows(store.nodes, store.offsets, ids)
            sizes = store.offsets[ids + 1] - store.offsets[ids]
            owner = np.repeat(np.arange(ids.size), sizes)
            # Each re-examined set's touched rows, replayed before and after.
            at = np.searchsorted(touched, nodes).clip(max=touched.size - 1)
            rows = (touched[at] == nodes).nonzero()[0]
            changed = sampler.rows_changed(
                before, set_keys(seed, mid, ids, key)[owner[rows]], nodes[rows]
            )
            redraw = np.zeros(ids.size, dtype=bool)
            redraw[owner[rows[changed]]] = True
            # A kept set's bytes stand; its w(R) is its new in-degree sum.
            kept = ~redraw[owner]
            degrees = in_indptr[nodes[kept] + 1] - in_indptr[nodes[kept]]
            edges = np.bincount(owner[kept], weights=degrees, minlength=ids.size)
            store.set_edges_examined(ids[~redraw], edges[~redraw].astype(np.int64))
            if not redraw.any():
                return examined
            # Old contents (id order) for the coverage retraction deltas.
            old_nodes = nodes[~kept]
            old_bounds = np.concatenate(([0], np.cumsum(sizes[redraw])))
            ids = ids[redraw]
            # One blocked draw: every changed id redrawn at its own coordinates.
            batch = sample_set_range(sampler, seed, mid, ids, key, roots)
            store.replace_sets(ids, batch)
            for state in cache:
                # Only ids below the snapshot's watermark were ever
                # ingested; retract their old contents, add the new.
                below = int(np.searchsorted(ids, state.watermarks[mid]))
                if below:
                    state.repair(
                        mid,
                        old_nodes[: old_bounds[below]],
                        batch.nodes[: batch.offsets[below]],
                    )
            redrawn[mid] = int(ids.size)
            return examined

        results = self.executor.run_phase(
            MapPhase(f"pool/repair/{key}", regen, category=GENERATION)
        ).results
        self.executor.metrics.sets_redrawn += sum(redrawn)
        return int(sum(results))

    def _regenerate_all(self, key: str, stores: List[FlatRRCollection]) -> int:
        """Full invalidation: rebuild each machine's collection cold.

        Node additions change the root-draw range (and possibly the node
        universe the stores validate against), so every set is redrawn
        into a fresh collection of the graph's current size; set counts
        are preserved so outstanding schedules resume unchanged.
        """
        counts = [store.num_sets for store in stores]
        stores[:] = [FlatRRCollection(self.num_nodes) for _ in stores]
        self._generate(f"pool/rebuild/{key}", key, stores, counts)
        return sum(counts)

    # ------------------------------------------------------------------
    # Coverage snapshot cache
    # ------------------------------------------------------------------
    def fork_coverage(self, key: str, limits: Sequence[int]) -> CoverageState | None:
        """Fork the best donated coverage snapshot usable at ``limits``.

        Usable means watermarks elementwise ``<=`` the query's first
        ingest limits — the snapshot covers a strict prefix of what the
        query sees, so folding the remainder on top reproduces a
        from-scratch aggregation integer for integer.  Returns ``None``
        when no donated snapshot qualifies.
        """
        with self._lock:
            best: CoverageState | None = None
            for state in self._coverage_cache.get(key, ()):
                if all(w <= lim for w, lim in zip(state.watermarks, limits)) and (
                    best is None or sum(state.watermarks) > sum(best.watermarks)
                ):
                    best = state
            return best.fork() if best is not None else None

    def donate_coverage(self, key: str, state: CoverageState) -> None:
        """Adopt a finished query's coverage state into the snapshot cache.

        The donor must not mutate the state afterwards; the pool only
        ever hands out copy-on-write forks of it.
        """
        with self._lock:
            cache = self._coverage_cache.setdefault(key, [])
            marks = list(state.watermarks)
            if any(cached.watermarks == marks for cached in cache):
                return
            cache.append(state)
            if len(cache) > MAX_CACHED_COVERAGE:
                cache.pop(0)

    # ------------------------------------------------------------------
    # Per-query metering
    # ------------------------------------------------------------------
    @contextmanager
    def query_metrics(self) -> Iterator[RunMetrics]:
        """Serialize one query and meter it in isolation.

        Holds the pool lock for the duration and meters the query as a
        lent-executor run (:func:`~repro.cluster.executor.executor_scope`):
        its phases are its own, folded into the pool's lifetime totals
        on exit.
        """
        with self._lock:
            try:
                with executor_scope(self.executor, owned=False) as metrics:
                    yield metrics
            finally:
                self.queries_served += 1

    @contextmanager
    def _metered(self) -> Iterator[None]:
        """Meter a pool operation (caller holds the pool lock): inside
        :meth:`query_metrics` the query's scope records it, round
        annotations and all; outside, a scope of its own folds it into
        :attr:`lifetime_metrics` on exit, which never records a phase
        directly."""
        if self.executor.metrics is not self._lifetime:
            yield
            return
        with executor_scope(self.executor, owned=False):
            yield

    # ------------------------------------------------------------------
    # Config compatibility
    # ------------------------------------------------------------------
    def check_streams(
        self, graph, machines: int | None, seed: int, model: str, roots=None
    ) -> None:
        """Reject a query whose cold run would not draw this pool's streams
        (``machines=None`` skips the width check); ``roots`` is the query's
        root set, ``None`` for all nodes."""
        if machines is not None and self.num_machines != machines:
            raise ValueError(
                f"pool has {self.num_machines} machines, query needs {machines}"
            )
        if graph is not self.graph:
            raise ValueError("the query's graph is not the pool's graph")
        if seed != self.seed:
            raise ValueError(
                f"seed={seed} differs from the pool seed {self.seed}; "
                "warm results would not match a cold run"
            )
        if model != self.model:
            raise ValueError(f"pool samples model {self.model!r}; query wants {model!r}")
        roots = as_roots(roots, self.num_nodes)
        if (roots is None) != (self.roots is None) or (
            roots is not None and not np.array_equal(roots, self.roots)
        ):
            mine = "all nodes" if self.roots is None else f"{self.roots.size} targets"
            theirs = "all nodes" if roots is None else f"{roots.size} targets"
            raise ValueError(
                f"the query's root set ({theirs}) is not the pool's ({mine}); "
                "warm results would not match a cold run"
            )

    def check_config(self, config, machines: int | None = None) -> None:
        """Reject a :class:`~repro.core.config.RunConfig` whose results
        could not equal a cold run over this pool's streams."""
        self.check_streams(config.graph, machines, config.seed, config.model)
        if config.backend != "flat":
            hint = (
                "; sketch register banks cannot be windowed to a query's "
                "prefix — run sketch queries cold via repro.api.run"
                if config.backend == "sketch"
                else ""
            )
            raise ValueError(
                f"warm pools are flat-store only, got backend={config.backend!r}{hint}"
            )
        if config.checkpoint_dir is not None or config.resume:
            raise ValueError("checkpointing is not supported on warm-pool queries")
        if config.faults is not None:
            raise ValueError("fault injection is not supported on warm-pool queries")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the executor (worker pool, shared memory).  Idempotent."""
        self._closed = True
        self.executor.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "SamplePool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        sizes = {key: sum(s.num_sets for s in stores) for key, stores in self._stores.items()}
        return (
            f"SamplePool(machines={self.num_machines}, model={self.model!r}, "
            f"executor={self.executor.name!r}, "
            f"sets={sizes})"
        )

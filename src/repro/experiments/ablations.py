"""Ablation studies for the design choices DESIGN.md calls out.

Not figures from the paper, but quantified justifications of its design
decisions:

* ``lazy_vs_naive_greedy`` — the bucket-vector + lazy-update engine of
  Algorithm 1 versus a naive marginal re-scan.
* ``traffic_tuple_vs_dense`` — sparse ``(node, count)`` tuple responses
  versus shipping full length-``n`` vectors each round (the Section III-C
  traffic optimisation).
* ``subsim_vs_bfs_generation`` — SUBSIM subset sampling versus plain
  reverse BFS, per-dataset generation throughput (the Fig 7 mechanism),
  beside the keyed IC kernel every run draws with.
* ``workload_balance`` — empirical per-machine workload spread against
  the Corollary 1 concentration bound.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..analysis.martingale import empirical_workload_balance, workload_concentration
from ..api import run
from ..cluster.cluster import SimulatedCluster, split_count
from ..cluster.executor import GeneratePhase, SimulatedExecutor
from ..cluster.metrics import COMMUNICATION
from ..core.config import RunConfig
from ..core.pool import SamplePool
from ..coverage.greedy import greedy_max_coverage, naive_greedy_max_coverage
from ..coverage.problem import from_graph
from ..graphs.datasets import load_dataset
from ..graphs.digraph import DirectedGraph, GraphDelta, VersionedGraph
from ..ris import FlatRRCollection, ICReverseBFSSampler, SubsimSampler, make_sampler
from ..ris.rrset import sample_set_range

__all__ = [
    "lazy_vs_naive_greedy",
    "traffic_tuple_vs_dense",
    "subsim_vs_bfs_generation",
    "workload_balance",
    "heterogeneity",
    "epsilon_sweep",
    "static_vs_dynamic_updates",
    "backend_matrix",
]


def lazy_vs_naive_greedy(
    dataset: str = "facebook",
    k_values: Sequence[int] = (10, 25, 50),
    seed: int = 2022,
) -> list[dict]:
    """Lazy bucket greedy vs naive re-scan on the graph coverage instance."""
    ds = load_dataset(dataset, seed=seed)
    instance = from_graph(ds.graph)
    rows = []
    for k in k_values:
        start = time.perf_counter()
        lazy = greedy_max_coverage([instance], k)
        lazy_time = time.perf_counter() - start
        start = time.perf_counter()
        naive = naive_greedy_max_coverage([instance], k)
        naive_time = time.perf_counter() - start
        if lazy.seeds != naive.seeds:
            raise AssertionError("lazy and naive greedy diverged")
        rows.append(
            {
                "ablation": "lazy-vs-naive",
                "dataset": dataset,
                "k": k,
                "lazy_s": round(lazy_time, 4),
                "naive_s": round(naive_time, 4),
                "speedup": round(naive_time / lazy_time, 1) if lazy_time else 0.0,
            }
        )
    return rows


def traffic_tuple_vs_dense(
    dataset: str = "facebook",
    machine_counts: Sequence[int] = (4, 16),
    k: int = 50,
    eps: float = 0.5,
    seed: int = 2022,
) -> list[dict]:
    """Measured sparse-tuple traffic vs hypothetical dense-vector traffic.

    The dense alternative responds to every gather with a full length-``n``
    vector of 8-byte entries per machine; the measured bytes come from the
    run's recorded communication phases.
    """
    ds = load_dataset(dataset, seed=seed)
    n = ds.graph.num_nodes
    rows = []
    for machines in machine_counts:
        result = run(
            "diimm", RunConfig(graph=ds.graph, k=k, machines=machines, eps=eps, seed=seed)
        )
        comm_phases = [
            p for p in result.metrics.phases if p.category == COMMUNICATION
        ]
        gathers = [p for p in comm_phases if "gather" in p.label or "counts" in p.label]
        actual_bytes = sum(p.num_bytes for p in comm_phases)
        dense_bytes = sum(
            8 * n * machines if p.num_bytes else 0 for p in gathers
        ) + sum(p.num_bytes for p in comm_phases if p not in gathers)
        rows.append(
            {
                "ablation": "tuple-vs-dense-traffic",
                "dataset": dataset,
                "machines": machines,
                "actual_mb": round(actual_bytes / 1e6, 3),
                "dense_mb": round(dense_bytes / 1e6, 3),
                "saving_factor": round(dense_bytes / actual_bytes, 1)
                if actual_bytes
                else 0.0,
            }
        )
    return rows


def subsim_vs_bfs_generation(
    datasets: Sequence[str] = ("facebook", "googleplus", "twitter"),
    num_rr_sets: int = 3000,
    seed: int = 2022,
) -> list[dict]:
    """Generation time of SUBSIM vs plain reverse BFS (IC model).

    Both are the scalar references (``sample_many`` on one generator);
    ``keyed_s`` draws the same number of sets with the keyed IC kernel
    through :func:`~repro.ris.rrset.sample_set_range`, the way DIIMM and
    D-SUBSIM do.
    """
    rows = []
    for dataset in datasets:
        graph = load_dataset(dataset, seed=seed).graph
        timings = {}
        scalar = {"bfs": ICReverseBFSSampler(graph), "subsim": SubsimSampler(graph)}
        for name, sampler in scalar.items():
            rng = np.random.default_rng(seed)
            start = time.perf_counter()
            sampler.sample_many(num_rr_sets, rng)
            timings[name] = time.perf_counter() - start
        keyed = make_sampler(graph, model="ic")
        start = time.perf_counter()
        sample_set_range(keyed, seed, 0, range(num_rr_sets))
        timings["keyed"] = time.perf_counter() - start
        rows.append(
            {
                "ablation": "subsim-vs-bfs",
                "dataset": dataset,
                "bfs_s": round(timings["bfs"], 4),
                "subsim_s": round(timings["subsim"], 4),
                "keyed_s": round(timings["keyed"], 4),
                "speedup": round(timings["bfs"] / timings["subsim"], 2),
                "keyed_vs_subsim": round(timings["subsim"] / timings["keyed"], 2),
            }
        )
    return rows


def epsilon_sweep(
    dataset: str = "facebook",
    eps_values: Sequence[float] = (0.6, 0.5, 0.4, 0.3),
    k: int = 50,
    num_machines: int = 8,
    seed: int = 2022,
) -> list[dict]:
    """RR-set budget and runtime versus ``eps`` (the ``1/eps^2`` law).

    DESIGN.md runs the experiments at ``eps = 0.5`` instead of the paper's
    ``0.01`` on the grounds that the sample count scales as ``1/eps^2``
    without changing any code path.  This ablation verifies the law on the
    stand-ins: halving ``eps`` should roughly quadruple ``theta`` and the
    generation time.
    """
    ds = load_dataset(dataset, seed=seed)
    rows = []
    baseline_theta = None
    for eps in eps_values:
        result = run(
            "diimm", RunConfig(graph=ds.graph, k=k, machines=num_machines, eps=eps, seed=seed)
        )
        if baseline_theta is None:
            baseline_theta = result.num_rr_sets
            baseline_eps = eps
        expected_ratio = (baseline_eps / eps) ** 2
        rows.append(
            {
                "ablation": "epsilon-sweep",
                "dataset": dataset,
                "eps": eps,
                "num_rr_sets": result.num_rr_sets,
                "theta_ratio": round(result.num_rr_sets / baseline_theta, 2),
                "expected_ratio": round(expected_ratio, 2),
                "generation_s": round(result.metrics.generation_time, 4),
                "total_s": round(result.metrics.total_time, 4),
            }
        )
    return rows


def split_count_weighted(total: int, slowdowns: Sequence[float]) -> list[int]:
    """Split ``total`` work items proportionally to machine speed (``1 / slowdown``).

    On a homogeneous cluster this coincides with
    :func:`~repro.cluster.cluster.split_count`; on a heterogeneous one it
    equalises per-machine finish times.  Largest-remainder rounding keeps
    the sum exact.
    """
    speeds = 1.0 / np.asarray(slowdowns, dtype=float)
    raw = total * speeds / speeds.sum()
    shares = np.floor(raw).astype(int)
    remainder = total - int(shares.sum())
    if remainder:
        order = np.argsort(-(raw - shares))
        shares[order[:remainder]] += 1
    return [int(s) for s in shares]


def heterogeneity(
    dataset: str = "facebook",
    num_machines: int = 8,
    num_rr_sets: int = 8000,
    max_slowdown: float = 3.0,
    model: str = "ic",
    seed: int = 2022,
) -> list[dict]:
    """Even vs speed-weighted work split on a heterogeneous cluster.

    The paper assumes identical machines, where the even ``theta / l``
    split is optimal (Corollary 1).  This ablation handicaps half the
    machines by up to ``max_slowdown`` and compares the parallel
    generation time of the even split against a speed-proportional split,
    quantifying how much the assumption matters.
    """
    ds = load_dataset(dataset, seed=seed)
    slowdowns = [
        max_slowdown if i % 2 else 1.0 for i in range(num_machines)
    ]
    rows = []
    for strategy in ("even", "weighted"):
        executor = SimulatedExecutor(
            SimulatedCluster(num_machines, seed=seed, slowdowns=slowdowns), graph=ds.graph
        )
        stores = [FlatRRCollection(ds.graph.num_nodes) for __ in range(num_machines)]
        shares = (
            split_count(num_rr_sets, num_machines)
            if strategy == "even"
            else split_count_weighted(num_rr_sets, slowdowns)
        )
        executor.run_phase(
            GeneratePhase(f"hetero/{strategy}", counts=shares, targets=stores, model=model)
        )
        rows.append(
            {
                "ablation": "heterogeneity",
                "dataset": dataset,
                "strategy": strategy,
                "machines": num_machines,
                "max_slowdown": max_slowdown,
                "parallel_gen_s": round(executor.metrics.generation_time, 4),
                "shares_min_max": f"{min(shares)}/{max(shares)}",
            }
        )
    even, weighted = rows
    even["vs_weighted"] = round(
        even["parallel_gen_s"] / weighted["parallel_gen_s"], 2
    )
    weighted["vs_weighted"] = 1.0
    return rows


def workload_balance(
    dataset: str = "livejournal",
    machine_counts: Sequence[int] = (4, 16, 64),
    num_rr_sets: int = 20000,
    model: str = "ic",
    seed: int = 2022,
) -> list[dict]:
    """Per-machine workload spread vs the Corollary 1 bound.

    Generates ``num_rr_sets`` RR sets split evenly across machines and
    reports how far each machine's total RR size strays from the mean,
    together with the theoretical deviation probability at ``eps = 0.1``.
    """
    ds = load_dataset(dataset, seed=seed)
    rows = []
    for machines in machine_counts:
        executor = SimulatedExecutor(SimulatedCluster(machines, seed=seed), graph=ds.graph)
        shares = split_count(num_rr_sets, machines)
        stores = [FlatRRCollection(ds.graph.num_nodes) for __ in range(machines)]
        executor.run_phase(GeneratePhase("workload", counts=shares, targets=stores, model=model))
        balance = empirical_workload_balance([store.total_size for store in stores])
        eps_mean = balance.mean / shares[0] if shares[0] else 1.0
        bound = workload_concentration(
            shares[0], 0.1, ds.graph.num_nodes, max(eps_mean, 1e-9)
        )
        rows.append(
            {
                "ablation": "workload-balance",
                "dataset": dataset,
                "machines": machines,
                "rr_sets_per_machine": shares[0],
                "max_over_mean": round(balance.max_over_mean, 4),
                "min_over_mean": round(balance.min_over_mean, 4),
                "corollary1_deviation_bound": f"{bound:.3g}",
            }
        )
    return rows


def _update_stream(
    base: DirectedGraph,
    rng: np.random.Generator,
    num_updates: int,
    edges_per_update: int,
) -> list[GraphDelta]:
    """Mixed update batches over disjoint edges of ``base``.

    Each delta removes ``edges_per_update`` existing edges, halves the
    weight of another disjoint batch, and inserts as many fresh random
    edges — the workload profile of an evolving social graph.
    """
    sources, targets, probs = base.edge_arrays()
    picks = rng.choice(
        sources.size, size=num_updates * edges_per_update * 2, replace=False
    )
    added: set[tuple[int, int]] = set()
    deltas = []
    for i in range(num_updates):
        lo = i * edges_per_update * 2
        removals = picks[lo : lo + edges_per_update]
        reweights = picks[lo + edges_per_update : lo + 2 * edges_per_update]
        inserts: list[tuple[int, int, float]] = []
        while len(inserts) < edges_per_update:
            u = int(rng.integers(base.num_nodes))
            v = int(rng.integers(base.num_nodes))
            if u != v and not base.has_edge(u, v) and (u, v) not in added:
                added.add((u, v))
                inserts.append((u, v, 0.05))
        deltas.append(
            GraphDelta(
                add_edges=inserts,
                remove_edges=[
                    (int(sources[j]), int(targets[j])) for j in removals
                ],
                reweight_edges=[
                    (int(sources[j]), int(targets[j]), float(probs[j]) * 0.5)
                    for j in reweights
                ],
            )
        )
    return deltas


def static_vs_dynamic_updates(
    dataset: str = "livejournal",
    machines: int = 2,
    sets_per_machine: int = 1500,
    num_updates: int = 4,
    edges_per_update: int = 8,
    seed: int = 2022,
) -> list[dict]:
    """Serving a graph-update stream: static recompute vs dynamic repair.

    The static pipeline answers each update by regenerating every
    resident RR set on the updated graph (what a pool without per-set
    substreams must do); the dynamic pipeline repairs the warm pool in
    place, redrawing only the sets whose traversal consulted a changed
    in-row.  Both paths are differentially checked — the repaired
    collections must be bit-identical to the cold regeneration — so the
    speedup column measures identical work, not an approximation.
    """
    ds = load_dataset(dataset, seed=seed)
    base = ds.graph
    rng = np.random.default_rng(seed)
    deltas = _update_stream(base, rng, num_updates, edges_per_update)

    def fresh_graph() -> VersionedGraph:
        return VersionedGraph(DirectedGraph(base.num_nodes, *base.edge_arrays()))

    targets = [sets_per_machine] * machines
    warm = SamplePool(fresh_graph(), machines=machines, seed=seed)
    cold_graph = fresh_graph()
    rows = []
    try:
        warm.ensure("main", targets)
        for i, delta in enumerate(deltas):
            start = time.perf_counter()
            repaired = warm.apply_update(delta)
            dynamic_s = time.perf_counter() - start
            cold_graph.apply(delta)
            cold = SamplePool(cold_graph, machines=machines, seed=seed)
            try:
                start = time.perf_counter()
                cold.ensure("main", targets)
                static_s = time.perf_counter() - start
                for ws, cs in zip(warm.stores("main"), cold.stores("main")):
                    if not (
                        np.array_equal(ws.nodes, cs.nodes)
                        and np.array_equal(ws.offsets, cs.offsets)
                    ):
                        raise AssertionError(
                            "repaired pool diverged from cold regeneration"
                        )
            finally:
                cold.close()
            rows.append(
                {
                    "ablation": "static-vs-dynamic",
                    "dataset": dataset,
                    "update": i + 1,
                    "num_changes": delta.num_changes,
                    "sets_repaired": repaired["main"],
                    "sets_total": machines * sets_per_machine,
                    "static_s": round(static_s, 4),
                    "dynamic_s": round(dynamic_s, 4),
                    "speedup": round(static_s / max(dynamic_s, 1e-9), 2),
                }
            )
    finally:
        warm.close()
    return rows


def backend_matrix(
    dataset: str = "facebook",
    backends: Sequence[str] = ("flat", "sketch"),
    executors: Sequence[str] = ("simulated",),
    k: int = 20,
    eps: float = 0.5,
    machines: int = 4,
    seed: int = 2022,
) -> list[dict]:
    """Full DIIMM sweep over {backend} x {executor}.

    Every combination runs the same query; each row carries the
    per-component times (generation / selection / communication), the
    peak store + coverage memory, and ratios against the
    (first backend, first executor) baseline row — the declarative
    matrix the registry-driven ablation bench renders.
    """
    ds = load_dataset(dataset, seed=seed)
    rows: list[dict] = []
    baseline: dict | None = None
    for backend in backends:
        for executor in executors:
            result = run(
                "diimm",
                RunConfig(
                    graph=ds.graph,
                    k=k,
                    machines=machines,
                    eps=eps,
                    seed=seed,
                    backend=backend,
                    executor=executor,
                ),
            )
            metrics = result.metrics
            memory = metrics.memory_summary()
            row = {
                "ablation": "backend-matrix",
                "dataset": dataset,
                "backend": backend,
                "executor": executor,
                "spread": round(result.estimated_spread, 1),
                "num_rr_sets": result.num_rr_sets,
                "generation_s": round(metrics.generation_time, 4),
                "selection_s": round(metrics.computation_time, 4),
                "communication_s": round(metrics.communication_time, 4),
                "store_mb": round(memory["rr_store_nbytes"] / 1e6, 2),
                "coverage_mb": round(memory["coverage_nbytes"] / 1e6, 2),
            }
            if baseline is None:
                baseline = row
            row["generation_speedup"] = round(
                baseline["generation_s"] / max(row["generation_s"], 1e-9), 2
            )
            row["selection_speedup"] = round(
                baseline["selection_s"] / max(row["selection_s"], 1e-9), 2
            )
            row["memory_factor"] = round(
                (baseline["store_mb"] + baseline["coverage_mb"])
                / max(row["store_mb"] + row["coverage_mb"], 1e-9),
                2,
            )
            rows.append(row)
    return rows

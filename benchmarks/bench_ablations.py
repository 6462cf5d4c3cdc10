"""Ablations for the design choices DESIGN.md calls out (not paper figures).

Registry-driven: every ablation is one declarative :class:`Ablation`
entry — runner, QUICK/full kwargs, result-file name, and an acceptance
check over the rows — and a single parametrized test executes the whole
registry.  Adding an ablation is adding a row, not a function.

The sweep covers the classic single-axis ablations (lazy greedy, tuple
traffic, SUBSIM generation, heterogeneity, seed quality, communication
and workload scaling, the eps law, dynamic repair) plus the full
``{flat, sketch} x executor`` matrix with per-component speedup and
memory columns.
"""

from dataclasses import dataclass, field
from typing import Callable, Sequence

import pytest
from conftest import QUICK

from repro.experiments import (
    backend_matrix,
    communication_scaling,
    epsilon_sweep,
    heterogeneity,
    lazy_vs_naive_greedy,
    seed_quality_comparison,
    static_vs_dynamic_updates,
    subsim_vs_bfs_generation,
    traffic_tuple_vs_dense,
    workload_balance,
)


@dataclass(frozen=True)
class Ablation:
    """One registry entry: what to run, with what, and what must hold."""

    name: str  # result-file stem under benchmarks/results/
    title: str  # table heading
    runner: Callable[..., list]
    kwargs: dict = field(default_factory=dict)
    quick_kwargs: dict = field(default_factory=dict)  # overrides when REPRO_QUICK
    check: Callable[[list], None] = lambda rows: None

    def resolved_kwargs(self) -> dict:
        return {**self.kwargs, **(self.quick_kwargs if QUICK else {})}


def _check_lazy(rows):
    assert all(row["speedup"] > 1.0 for row in rows)


def _check_traffic(rows):
    assert all(row["saving_factor"] >= 1.0 for row in rows)


def _check_subsim(rows):
    assert any(row["speedup"] > 1.0 for row in rows)


def _check_heterogeneity(rows):
    even = next(r for r in rows if r["strategy"] == "even")
    assert even["vs_weighted"] > 1.0


def _check_seed_quality(rows):
    diimm_rows = [r for r in rows if r["strategy"] == "DIIMM"]
    assert all(r["vs_best"] >= 0.9 for r in diimm_rows)


def _check_communication(rows):
    # Communication grows with machines; identical coverage throughout.
    assert rows[-1]["communication_s"] >= rows[0]["communication_s"]
    assert len({row["coverage"] for row in rows}) == 1


def _check_epsilon(rows):
    # theta grows when eps shrinks, tracking the 1/eps^2 prediction.
    last = rows[-1]
    assert last["theta_ratio"] == pytest.approx(last["expected_ratio"], rel=0.5)


def _check_workload(rows):
    for row in rows:
        assert row["max_over_mean"] < 1.6


def _check_dynamic(rows):
    assert all(row["speedup"] > 1.0 for row in rows)


def _check_backend_matrix(rows):
    # Every cell of the matrix ran, and every run answered the query.
    assert {r["backend"] for r in rows} >= {"flat", "sketch"}
    assert all(r["spread"] > 0 for r in rows)
    # The lossy backend must not lose answer quality: every sketch cell's
    # spread stays within 10% of its flat counterpart.  (The memory win
    # is a scale effect — bench_sketch gates it on the livejournal
    # stand-in; the facebook matrix here is too small for banks to pay.)
    by_key = {(r["backend"], r["executor"]): r for r in rows}
    for (backend, executor), row in by_key.items():
        if backend != "sketch":
            continue
        flat_row = by_key[("flat", executor)]
        assert row["spread"] >= 0.9 * flat_row["spread"]
        assert row["store_mb"] > 0 and row["coverage_mb"] > 0


REGISTRY: Sequence[Ablation] = (
    Ablation(
        name="ablation_lazy_vs_naive",
        title="Ablation — lazy bucket vs naive greedy",
        runner=lazy_vs_naive_greedy,
        kwargs={"dataset": "facebook", "k_values": (10, 50)},
        check=_check_lazy,
    ),
    Ablation(
        name="ablation_traffic",
        title="Ablation — tuple vs dense communication",
        runner=traffic_tuple_vs_dense,
        kwargs={"dataset": "facebook", "machine_counts": (4, 16)},
        quick_kwargs={"machine_counts": (4,)},
        check=_check_traffic,
    ),
    Ablation(
        name="ablation_subsim",
        title="Ablation — SUBSIM vs reverse-BFS generation (scalar), keyed IC kernel",
        runner=subsim_vs_bfs_generation,
        kwargs={"num_rr_sets": 3000},
        quick_kwargs={"num_rr_sets": 1000},
        check=_check_subsim,
    ),
    Ablation(
        name="ablation_heterogeneity",
        title="Ablation — even vs weighted split on a heterogeneous cluster",
        runner=heterogeneity,
        kwargs={"dataset": "facebook", "num_machines": 8, "num_rr_sets": 4000},
        check=_check_heterogeneity,
    ),
    Ablation(
        name="ablation_seed_quality",
        title="Extension — DIIMM vs heuristic baselines (MC spread)",
        runner=seed_quality_comparison,
        kwargs={
            "datasets": ("facebook", "twitter"),
            "k": 50,
            "eps": 0.5,
            "mc_samples": 300,
        },
        quick_kwargs={"datasets": ("facebook",), "mc_samples": 100},
        check=_check_seed_quality,
    ),
    Ablation(
        name="ablation_communication",
        title="Ablation — NEWGREEDI communication vs machines (fixed RR pool)",
        runner=communication_scaling,
        kwargs={
            "dataset": "livejournal",
            "machine_counts": (1, 2, 4, 8, 16),
            "num_rr_sets": 20000,
        },
        quick_kwargs={
            "dataset": "facebook",
            "machine_counts": (1, 4),
            "num_rr_sets": 4000,
        },
        check=_check_communication,
    ),
    Ablation(
        name="ablation_epsilon",
        title="Ablation — RR-set budget vs eps (1/eps^2 law)",
        runner=epsilon_sweep,
        kwargs={"dataset": "facebook", "eps_values": (0.6, 0.5, 0.4, 0.3)},
        quick_kwargs={"eps_values": (0.6, 0.4)},
        check=_check_epsilon,
    ),
    Ablation(
        name="ablation_workload",
        title="Ablation — workload balance (Corollary 1)",
        runner=workload_balance,
        kwargs={
            "dataset": "livejournal",
            "machine_counts": (4, 16, 64),
            "num_rr_sets": 20000,
        },
        quick_kwargs={
            "dataset": "facebook",
            "machine_counts": (4,),
            "num_rr_sets": 4000,
        },
        check=_check_workload,
    ),
    Ablation(
        name="ablation_static_vs_dynamic",
        title="Ablation — static recompute vs dynamic in-place repair",
        runner=static_vs_dynamic_updates,
        kwargs={
            "dataset": "facebook",
            "machines": 2,
            "sets_per_machine": 600,
            "num_updates": 3,
            "edges_per_update": 2,
        },
        quick_kwargs={"sets_per_machine": 400, "num_updates": 2},
        check=_check_dynamic,
    ),
    Ablation(
        name="ablation_backend_matrix",
        title="Ablation — backend x executor matrix",
        runner=backend_matrix,
        kwargs={
            "dataset": "facebook",
            "backends": ("flat", "sketch"),
            "executors": ("simulated", "multiprocessing"),
            "k": 20,
            "eps": 0.5,
            "machines": 4,
        },
        quick_kwargs={"executors": ("simulated",), "k": 10},
        check=_check_backend_matrix,
    ),
)


@pytest.mark.parametrize("ablation", REGISTRY, ids=[a.name for a in REGISTRY])
def test_ablation(benchmark, record_rows, ablation):
    rows = benchmark.pedantic(
        ablation.runner,
        kwargs=ablation.resolved_kwargs(),
        rounds=1,
        iterations=1,
    )
    record_rows(ablation.name, rows, ablation.title)
    ablation.check(rows)

"""Figures 5-9: DIIMM / distributed SUBSIM running time versus machines.

Each figure is a sweep over machine counts for every dataset, reporting
the simulated-parallel time breakdown (RR-set generation, seed-selection
computation, communication) plus the speedup over single-machine IMM —
exactly the series the paper plots.

The paper's headline numbers to compare shapes against:

* cluster, 4 machines: ~3.5x speedup; 16 machines: ~14x (Fig 5);
* 64-core server: 56x / 45x / 43x / 31x on Facebook / Google+ /
  LiveJournal / Twitter (Fig 6);
* distributed SUBSIM scales like DIIMM (Fig 7);
* LT runs are faster than IC end-to-end (Figs 8-9);
* communication stays roughly an order of magnitude below computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..api import run
from ..cluster.network import NetworkModel, gigabit_cluster, shared_memory_server
from ..core.config import RunConfig
from ..graphs.datasets import DATASET_NAMES, load_dataset

__all__ = [
    "ScalingConfig",
    "run_scaling",
    "fig5_cluster_ic",
    "fig6_server_ic",
    "fig7_server_subsim",
    "fig8_cluster_lt",
    "fig9_server_lt",
]

CLUSTER_MACHINE_COUNTS = (1, 2, 4, 8, 16)
SERVER_CORE_COUNTS = (1, 4, 16, 64)


@dataclass(frozen=True)
class ScalingConfig:
    """One scaling experiment (= one figure of the paper)."""

    label: str
    datasets: Sequence[str] = DATASET_NAMES
    machine_counts: Sequence[int] = CLUSTER_MACHINE_COUNTS
    model: str = "ic"
    #: The distributed algorithm (a :data:`repro.core.diimm.REGISTRY` row)
    #: run at machine counts above 1.
    algorithm: str = "diimm"
    network_factory: Callable[[], NetworkModel] = gigabit_cluster
    k: int = 50
    eps: float = 0.5
    seed: int = 2022
    executor: str = "simulated"
    extra: dict = field(default_factory=dict)


def _result_row(config: ScalingConfig, dataset: str, num_machines: int, result) -> dict:
    breakdown = result.breakdown
    return {
        "figure": config.label,
        "dataset": dataset,
        "machines": num_machines,
        "algorithm": result.algorithm,
        "generation_s": round(breakdown["generation"], 4),
        "computation_s": round(breakdown["computation"], 4),
        "communication_s": round(breakdown["communication"], 4),
        "total_s": round(breakdown["total"], 4),
        "num_rr_sets": result.num_rr_sets,
    }


def run_scaling(config: ScalingConfig) -> list[dict]:
    """Run one figure's sweep; returns rows with times and speedups.

    Machine count 1 runs the vanilla single-machine algorithm (the paper's
    baseline); larger counts run the distributed algorithm.  Speedups are
    relative to the measured single-machine total.
    """
    rows: list[dict] = []
    for dataset in config.datasets:
        ds = load_dataset(dataset, seed=config.seed)
        baseline_total: float | None = None
        for num_machines in config.machine_counts:
            run_config = RunConfig(
                graph=ds.graph,
                k=config.k,
                machines=num_machines,
                eps=config.eps,
                model=config.model,
                network=None if num_machines == 1 else config.network_factory(),
                seed=config.seed,
                executor=config.executor,
            )
            result = run("imm" if num_machines == 1 else config.algorithm, run_config)
            row = _result_row(config, dataset, num_machines, result)
            if baseline_total is None:
                baseline_total = row["total_s"]
            row["speedup"] = round(baseline_total / row["total_s"], 2) if row["total_s"] else 0.0
            rows.append(row)
    return rows


def _make_figure(
    label: str,
    machine_counts: Sequence[int],
    model: str,
    algorithm: str,
    network_factory: Callable[[], NetworkModel],
):
    def runner(
        datasets: Sequence[str] = DATASET_NAMES,
        k: int = 50,
        eps: float = 0.5,
        seed: int = 2022,
        machine_counts: Sequence[int] = machine_counts,
    ) -> list[dict]:
        config = ScalingConfig(
            label=label,
            datasets=datasets,
            machine_counts=machine_counts,
            model=model,
            algorithm=algorithm,
            network_factory=network_factory,
            k=k,
            eps=eps,
            seed=seed,
        )
        return run_scaling(config)

    runner.__name__ = label.replace("-", "_")
    runner.__doc__ = f"Reproduce {label}: see module docstring for the paper's shape."
    return runner


fig5_cluster_ic = _make_figure(
    "fig5-cluster-ic", CLUSTER_MACHINE_COUNTS, "ic", "diimm", gigabit_cluster
)
fig6_server_ic = _make_figure(
    "fig6-server-ic", SERVER_CORE_COUNTS, "ic", "diimm", shared_memory_server
)
fig7_server_subsim = _make_figure(
    "fig7-server-subsim", SERVER_CORE_COUNTS, "ic", "dsubsim", shared_memory_server
)
fig8_cluster_lt = _make_figure(
    "fig8-cluster-lt", CLUSTER_MACHINE_COUNTS, "lt", "diimm", gigabit_cluster
)
fig9_server_lt = _make_figure(
    "fig9-server-lt", SERVER_CORE_COUNTS, "lt", "diimm", shared_memory_server
)

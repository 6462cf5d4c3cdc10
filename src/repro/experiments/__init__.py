"""Experiment harness: one runner per table/figure of the paper.

==================  ==========================================
Paper artefact      Runner
==================  ==========================================
Table III           :func:`tables.table3_rows`
Table IV            :func:`tables.table4_rows`
Fig 5               :func:`scaling.fig5_cluster_ic`
Fig 6               :func:`scaling.fig6_server_ic`
Fig 7               :func:`scaling.fig7_server_subsim`
Fig 8               :func:`scaling.fig8_cluster_lt`
Fig 9               :func:`scaling.fig9_server_lt`
Fig 10              :func:`maxcover.fig10_maxcover`
Ablations (ours)    :mod:`ablations`
==================  ==========================================
"""

from .ablations import (
    backend_matrix,
    epsilon_sweep,
    heterogeneity,
    lazy_vs_naive_greedy,
    static_vs_dynamic_updates,
    subsim_vs_bfs_generation,
    traffic_tuple_vs_dense,
    workload_balance,
)
from .communication import communication_scaling
from .frameworks import framework_comparison
from .quality import seed_quality_comparison
from .maxcover import fig10_maxcover
from .report import format_table, print_table, write_json
from .scaling import (
    ScalingConfig,
    fig5_cluster_ic,
    fig6_server_ic,
    fig7_server_subsim,
    fig8_cluster_lt,
    fig9_server_lt,
    run_scaling,
)
from .tables import table3_rows, table4_rows

__all__ = [
    "table3_rows",
    "table4_rows",
    "ScalingConfig",
    "run_scaling",
    "fig5_cluster_ic",
    "fig6_server_ic",
    "fig7_server_subsim",
    "fig8_cluster_lt",
    "fig9_server_lt",
    "fig10_maxcover",
    "lazy_vs_naive_greedy",
    "traffic_tuple_vs_dense",
    "subsim_vs_bfs_generation",
    "workload_balance",
    "heterogeneity",
    "epsilon_sweep",
    "static_vs_dynamic_updates",
    "backend_matrix",
    "seed_quality_comparison",
    "framework_comparison",
    "communication_scaling",
    "format_table",
    "print_table",
    "write_json",
]

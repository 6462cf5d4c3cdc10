#!/usr/bin/env python
"""Cluster scaling study: how DIIMM's running time splits and shrinks.

Reproduces the shape of the paper's Figs 5-6 on one dataset: sweeps the
machine count, prints the generation / computation / communication
breakdown, and finishes with a *real* multiprocessing cross-check — RR-set
generation fanned out over actual OS processes — so the simulated speedups
can be compared against physical ones on this machine.

Run:
    python examples/cluster_scaling_study.py [--dataset twitter] [--network cluster]
"""

import argparse
import time

from repro import FlatRRCollection, gigabit_cluster, load_dataset, shared_memory_server
from repro.cluster import GeneratePhase, SimulatedCluster, make_executor
from repro.experiments import print_table
from repro.experiments.scaling import ScalingConfig, run_scaling


def timed_generation(graph, counts) -> float:
    """Wall time of one generation phase, one worker process per machine."""
    cluster = SimulatedCluster(len(counts), seed=0)
    stores = [FlatRRCollection(graph.num_nodes) for __ in counts]
    plan = GeneratePhase("study/generate", counts=counts, targets=stores)
    with make_executor(f"multiprocessing:{len(counts)}", cluster, graph=graph) as executor:
        start = time.perf_counter()
        executor.run_phase(plan)
        return time.perf_counter() - start


def real_multiprocessing_check(graph, num_rr_sets: int, processes: int) -> None:
    """Generate the same number of sets on 1 and on N workers; print wall times."""
    serial = timed_generation(graph, [num_rr_sets])
    parallel = timed_generation(graph, [num_rr_sets // processes] * processes)

    print(
        f"\nreal multiprocessing cross-check ({num_rr_sets} RR sets, "
        f"{processes} processes): serial {serial:.2f}s, parallel {parallel:.2f}s, "
        f"speedup {serial / parallel:.2f}x"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="twitter")
    parser.add_argument(
        "--network",
        choices=("cluster", "server"),
        default="cluster",
        help="1 Gbps cluster or shared-memory multi-core server",
    )
    parser.add_argument("--k", type=int, default=50)
    parser.add_argument("--eps", type=float, default=0.5)
    parser.add_argument(
        "--machines", type=int, nargs="+", default=[1, 2, 4, 8, 16]
    )
    parser.add_argument("--model", choices=("ic", "lt"), default="ic")
    parser.add_argument(
        "--skip-multiprocessing",
        action="store_true",
        help="skip the real-process cross-check",
    )
    args = parser.parse_args()

    network_factory = gigabit_cluster if args.network == "cluster" else shared_memory_server
    config = ScalingConfig(
        label=f"scaling-{args.dataset}-{args.model}",
        datasets=[args.dataset],
        machine_counts=tuple(args.machines),
        model=args.model,
        network_factory=network_factory,
        k=args.k,
        eps=args.eps,
    )
    rows = run_scaling(config)
    print_table(
        rows,
        title=(
            f"DIIMM scaling on {args.dataset} ({args.model.upper()} model, "
            f"{args.network} network)"
        ),
    )

    if not args.skip_multiprocessing:
        graph = load_dataset(args.dataset).graph
        processes = min(4, max(args.machines))
        real_multiprocessing_check(graph, num_rr_sets=4000, processes=processes)


if __name__ == "__main__":
    main()

#!/usr/bin/env python
"""Checkpoint RR sets once, replay seed selection for many budgets.

Generating RR sets dominates every figure in the paper; the selection
phase is comparatively cheap.  That asymmetry makes checkpointing
attractive: persist each machine's collection after generation, then
replay NEWGREEDI for any number of budgets ``k`` — or on another day —
without regenerating a single sample.

This example generates a fixed RR budget across machines, saves every
machine's collection to disk, reloads them, verifies the reload is
byte-for-byte equivalent (same seeds), and then sweeps ``k`` on the
loaded collections.

Run:
    python examples/checkpoint_and_resume.py [--dataset facebook]
"""

import argparse
import tempfile
import time
from pathlib import Path

from repro import FlatRRCollection, SimulatedCluster, load_dataset, newgreedi
from repro.cluster import GeneratePhase, SimulatedExecutor, split_count
from repro.experiments import print_table
from repro.ris import load_collection, save_collection


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--dataset", default="facebook")
    parser.add_argument("--machines", type=int, default=8)
    parser.add_argument("--rr-sets", type=int, default=20000)
    parser.add_argument("--budgets", type=int, nargs="+", default=[10, 25, 50, 100])
    args = parser.parse_args()

    dataset = load_dataset(args.dataset)
    graph = dataset.graph
    cluster = SimulatedCluster(args.machines, seed=0)

    # Phase 1: generate once, distributed.
    executor = SimulatedExecutor(cluster, graph=graph)
    collections = [FlatRRCollection(graph.num_nodes) for __ in range(args.machines)]
    shares = split_count(args.rr_sets, args.machines)
    start = time.perf_counter()
    executor.run_phase(GeneratePhase("generate", counts=shares, targets=collections))
    generation_time = time.perf_counter() - start
    print(
        f"generated {args.rr_sets:,} RR sets across {args.machines} machines "
        f"in {generation_time:.2f}s (wall, sequential simulation)"
    )

    with tempfile.TemporaryDirectory() as tmp:
        # Phase 2: checkpoint every machine's collection.
        paths = []
        for machine_id, collection in enumerate(collections):
            path = Path(tmp) / f"machine-{machine_id}.npz"
            save_collection(collection, path)
            paths.append(path)
        total_bytes = sum(p.stat().st_size for p in paths)
        print(f"checkpointed to {len(paths)} files, {total_bytes / 1e6:.2f} MB total")

        # Phase 3: resume — fresh executor, collections loaded from disk.
        resumed = SimulatedExecutor(cluster)
        stores = [load_collection(path) for path in paths]

        reference = newgreedi(executor, max(args.budgets), stores=collections)
        replayed = newgreedi(resumed, max(args.budgets), stores=stores)
        assert replayed.seeds == reference.seeds, "checkpoint replay diverged!"
        print("replay verified: identical seed sequence after reload\n")

        # Phase 4: budget sweep on the loaded collections only.
        rows = []
        for k in args.budgets:
            fresh = SimulatedExecutor(cluster)
            start = time.perf_counter()
            result = newgreedi(fresh, k, stores=stores)
            elapsed = time.perf_counter() - start
            rows.append(
                {
                    "k": k,
                    "coverage": result.coverage,
                    "est_spread": round(graph.num_nodes * result.fraction, 1),
                    "selection_s": round(elapsed, 3),
                }
            )
        print_table(rows, title="Budget sweep on checkpointed RR sets (no regeneration)")
        print(
            f"\nevery sweep point cost a fraction of the {generation_time:.2f}s "
            "generation it avoided."
        )


if __name__ == "__main__":
    main()

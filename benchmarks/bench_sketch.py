"""The sketch coverage backend's CI memory gate (livejournal stand-in).

``test_micro_sketch_memory`` — the headline perf claim.  The same RR
sample goes into the exact flat CSR store and a HyperLogLog register
bank; the bank must be at least **3x** smaller (the CI floor — the
committed full-mode results record >= 5x) while the sketch greedy's
seeds, judged on the *exact* store (the differential oracle), cover
within **2%** of the exact greedy's.  The flat store grows with theta;
the bank does not — the ratio in the committed results is the ``theta``
point the sweep pins, and it only improves at paper scale.

Everything is fixed-seed and single-pass, so the recorded numbers are
deterministic run to run.
"""

import numpy as np
from conftest import QUICK

from repro.coverage import greedy_max_coverage
from repro.coverage.sketch import (
    SketchRRCollection,
    hll_relative_error,
    sketch_lazy_greedy,
)
from repro.graphs import load_dataset
from repro.ris import FlatRRCollection, append_batch, make_sampler

#: CI gate: the flat/sketch memory ratio every run must clear.
MEMORY_FLOOR = 3.0
#: Spread-quality gate: sketch seeds on the exact oracle, relative loss.
SPREAD_TOLERANCE = 0.02

# Full mode pins the committed >= 5x point; QUICK keeps the same gates
# at a quarter of the generation work.
NUM_SETS = 250_000 if QUICK else 700_000
PRECISION = 9 if QUICK else 10
K = 5 if QUICK else 10
SEED = 2022


def test_micro_sketch_memory(benchmark, record_rows):
    graph = load_dataset("livejournal").graph

    def measure() -> list[dict]:
        batch = make_sampler(graph, model="ic", method="vectorized").sample_batch(
            np.random.default_rng(SEED), NUM_SETS
        )
        flat = FlatRRCollection(graph.num_nodes)
        append_batch(flat, batch)
        sketch = SketchRRCollection(graph.num_nodes, precision=PRECISION)
        sketch.append_arrays(batch.nodes, batch.offsets, batch.edges_examined)
        sketch.prune_journal()

        exact_pick = greedy_max_coverage([flat], K)
        sketch_pick = sketch_lazy_greedy(sketch.register_bank(), K, NUM_SETS)
        # Judge both on the exact store — the flat differential oracle.
        exact_value = flat.coverage_of(exact_pick.seeds)
        sketch_value = flat.coverage_of(sketch_pick.seeds)
        return [
            {
                "dataset": "livejournal",
                "num_rr_sets": NUM_SETS,
                "precision": PRECISION,
                "k": K,
                "flat_mb": round(flat.nbytes() / 1e6, 2),
                "sketch_mb": round(sketch.nbytes() / 1e6, 2),
                "memory_ratio": round(flat.nbytes() / sketch.nbytes(), 2),
                "exact_coverage": int(exact_value),
                "sketch_coverage": int(sketch_value),
                "spread_loss": round(1.0 - sketch_value / exact_value, 4),
                "sketch_rel_error": round(hll_relative_error(PRECISION), 4),
            }
        ]

    rows = benchmark.pedantic(measure, rounds=1, iterations=1)
    record_rows(
        "micro_sketch_memory",
        rows,
        "Micro — sketch register bank vs flat CSR store (livejournal stand-in)",
    )
    (row,) = rows
    assert row["memory_ratio"] >= MEMORY_FLOOR, (
        f"sketch bank saves only {row['memory_ratio']}x over the flat "
        f"store; the CI floor is {MEMORY_FLOOR}x"
    )
    assert row["spread_loss"] <= SPREAD_TOLERANCE, (
        f"sketch seeds lose {row['spread_loss']:.1%} spread on the exact "
        f"oracle; the gate is {SPREAD_TOLERANCE:.0%}"
    )

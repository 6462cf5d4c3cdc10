"""Graph-update throughput: incremental RR-set repair vs full recompute.

A warm per-set :class:`~repro.core.pool.SamplePool` over the
LiveJournal stand-in (the facebook one under ``REPRO_QUICK``) absorbs a
stream of mixed edge batches (insert + delete + reweight).  Each update
is answered two ways:

``dynamic``
    :meth:`SamplePool.apply_update` — re-examine the RR sets whose
    reverse traversal consulted a changed in-row, replay each one's
    touched rows on the samplers before and after the update, and
    redraw and splice in place only the sets where a row's outcome
    changed; the rest keep their bytes.

``static``
    Full recompute — regenerate every resident RR set on the updated
    graph, which is all a pool without per-set substreams can do.

The runner differentially checks both paths produce bit-identical
collections before timing is trusted, so the speedup measures identical
work.  ``sets_repaired`` counts the re-examined sets.  Re-examined sets
are size-biased (a big RR set is more likely to contain any touched
node), and the few that are redrawn take a wave per level of their
reverse BFS, so per-update speedups vary with which rows an update
lands on; the CI regression gate is therefore on the **median** over the
stream, which must stay at least **3x**.
"""

import statistics

from conftest import QUICK

from repro.experiments import static_vs_dynamic_updates

MACHINES = 2
DATASET = "facebook" if QUICK else "livejournal"
SETS_PER_MACHINE = 600 if QUICK else 2000
NUM_UPDATES = 3 if QUICK else 5
EDGES_PER_UPDATE = 2 if QUICK else 3


def test_bench_update_repair_vs_recompute(record_rows):
    rows = static_vs_dynamic_updates(
        dataset=DATASET,
        machines=MACHINES,
        sets_per_machine=SETS_PER_MACHINE,
        num_updates=NUM_UPDATES,
        edges_per_update=EDGES_PER_UPDATE,
    )
    record_rows(
        "updates_repair_vs_recompute",
        rows,
        "Dynamic graphs — incremental repair vs full recompute",
    )
    # Incrementality: repairs must touch a strict minority of the pool.
    assert all(0 < row["sets_repaired"] < row["sets_total"] for row in rows)
    median = statistics.median(row["speedup"] for row in rows)
    assert median >= 3.0, f"median repair speedup {median} below the 3x floor"

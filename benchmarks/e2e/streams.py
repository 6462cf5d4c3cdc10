"""Seeded request streams for the serving workloads.

Both generators are pure functions of their arguments and emit plain
JSON-safe dicts — exactly what travels over the serving front-end — so a
fixed ``--seed`` replays byte-identical traffic.

The seed decides *order and pairing*, not *how much work* a stream holds:
the set of fresh queries is a fixed grid and the updates touch uniformly
chosen nodes rather than degree-biased ones.  Purely random composition
moved the serving medians by 20-30% from one seed to the next, which
would have drowned the changes the benchmark exists to see.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

__all__ = ["WARMUP_QUERIES", "PROBE_QUERY", "query_stream", "update_stream"]

#: Distinct queries a repeat may come from: the stream's working set,
#: chosen against the service's ``cache_size=128``.
RECENT = 32
#: Share of steps that issue a fresh query; the rest repeat a recent one.
FRESH = 0.2

#: One query per kind: the untimed warm-up pass that builds the pool.
WARMUP_QUERIES: List[Dict] = [
    {"kind": "diimm", "k": 20, "eps": 0.5},
    {"kind": "budgeted", "budget": 50.0, "num_rr_sets": 20000},
    {"kind": "profit", "num_rr_sets": 20000},
]
#: Asked once after the stream; its seeds are scored on held-out samples.
PROBE_QUERY: Dict = WARMUP_QUERIES[0]


def _fresh_queries(count: int) -> List[Dict]:
    """``count`` distinct queries: 75% diimm, 20% budgeted, 5% profit.

    ``k`` sweeps [5, 80) evenly; every fifth diimm query asks eps=0.4,
    which raises theta past what eps=0.5 queries generated — the pool
    tops up and every signature-keyed cache entry misses once.
    """
    diimm = round(0.75 * count)
    budgeted = round(0.2 * count)
    profit = count - diimm - budgeted
    queries: List[Dict] = [
        {
            "kind": "diimm",
            "k": 5 + (75 * i) // diimm,
            "eps": 0.4 if i % 5 == 2 else 0.5,
        }
        for i in range(diimm)
    ]
    queries += [
        {"kind": "budgeted", "budget": 20.0 + (60 * i) // budgeted, "num_rr_sets": 20000}
        for i in range(budgeted)
    ]
    queries += [
        {"kind": "profit", "num_rr_sets": 10000 + (10000 * i) // max(profit, 1)}
        for i in range(profit)
    ]
    return queries


def query_stream(seed: int, count: int) -> List[Dict]:
    """``count`` query payloads, one in five fresh, the rest repeats of
    one of the last :data:`RECENT` distinct queries."""
    rng = np.random.default_rng([seed, 0x5E12])
    fresh = _fresh_queries(max(1, round(FRESH * count)))
    fresh = [fresh[int(i)] for i in rng.permutation(len(fresh))]
    # The stream opens with the largest eps=0.4 query, so the pool tops up
    # exactly once, before anything is cached.  Left in seeded order, every
    # new record among them topped up again and re-missed the whole working
    # set — one to four times, 77 to 128 misses, depending on the seed.
    first = max(
        range(len(fresh)), key=lambda i: (fresh[i].get("eps") == 0.4, fresh[i].get("k", 0))
    )
    fresh.insert(0, fresh.pop(first))
    # Step 0 must be fresh; the other fresh steps fall where the seed says.
    steps = {0, *(1 + rng.choice(count - 1, size=len(fresh) - 1, replace=False)).tolist()}
    recent: List[Dict] = []
    stream: List[Dict] = []
    issued = 0
    for step in range(count):
        if step in steps:
            query = fresh[issued]
            issued += 1
            recent.append(query)
            del recent[:-RECENT]
        else:
            query = recent[int(rng.integers(len(recent)))]
        stream.append(query)
    return stream


def update_stream(graph, seed: int, count: int) -> List[Dict]:
    """``count`` update payloads over distinct edges of ``graph``.

    Each delta removes one existing edge, halves the weight of another
    and inserts one fresh edge — the per-update profile of
    ``repro.experiments.ablations._update_stream`` at one edge per kind,
    except that the three touched nodes are drawn uniformly over nodes
    (then one of the node's in-edges), not uniformly over edges: a
    degree-biased draw lands on a hub now and then, and one hub's repair
    cost moved a whole run's median.
    """
    rng = np.random.default_rng([seed, 0xD17A])
    n = graph.num_nodes
    used: set[tuple[int, int]] = set()

    def existing_edge() -> tuple[int, int, float]:
        while True:
            v = int(rng.integers(n))
            sources = graph.in_neighbors(v)
            if len(sources) == 0:
                continue
            pick = int(rng.integers(len(sources)))
            u = int(sources[pick])
            if (u, v) not in used:
                used.add((u, v))
                return u, v, float(graph.in_probabilities(v)[pick])

    def absent_edge() -> tuple[int, int]:
        while True:
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u != v and (u, v) not in used and not graph.has_edge(u, v):
                used.add((u, v))
                return u, v

    stream: List[Dict] = []
    for _ in range(count):
        gone = existing_edge()
        dimmed = existing_edge()
        u, v = absent_edge()
        stream.append(
            {
                "add_edges": [[u, v, 0.05]],
                "remove_edges": [[gone[0], gone[1]]],
                "reweight_edges": [[dimmed[0], dimmed[1], dimmed[2] * 0.5]],
            }
        )
    return stream

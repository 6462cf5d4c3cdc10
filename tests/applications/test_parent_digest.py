"""The applications' answers are pinned to the commit before they moved
onto ``SamplePool`` and NEWGREEDI's shared round.

``parent_digests.json`` was recorded at ``d7458f2`` by running this file
as a script (``PYTHONPATH=src python tests/applications/test_parent_digest.py``):
every case below — the five applications cold, the three served ones warm
on a static service and warm on a ``dynamic=True`` service after three
mixed graph updates, on the simulated and the ``multiprocessing:2``
executor — must keep its seeds, objective (bit for bit), ``num_rr_sets``
and ``params``.  The cases only use the surface both commits share: the
cold entry points' common parameters and ``InfluenceService.query``.

The two adaptive cases were re-pinned once, when adaptive IM moved from
per-machine sequential generators to coordinate-keyed draws
(``sample_set_range`` with the key ``adaptive-{round}``).  Every digest
was re-recorded once more when the IC/LT coins became hashes of the
coordinates (other samples, same distribution; CHANGES.md has old ->
new), and the targeted and adaptive ones once more when targeted roots
became keyed (``targets[mulhi(K, |T|)]``) and ``method`` left adaptive
IM's params.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.applications import (
    adaptive_influence_maximization,
    budgeted_influence_maximization,
    profit_maximization,
    seed_minimization,
    targeted_influence_maximization,
)
from repro.graphs import DirectedGraph, GraphDelta, erdos_renyi, weighted_cascade
from repro.serve import InfluenceService, Query, default_costs

DIGESTS = Path(__file__).with_name("parent_digests.json")
MACHINES = 3
SEED = 5
TARGETS = tuple(range(0, 200, 4))


def build_graph() -> DirectedGraph:
    """``conftest.small_wc_graph``, rebuilt so script mode needs no fixture
    and every service gets an instance it may mutate."""
    return weighted_cascade(erdos_renyi(200, 1200, np.random.default_rng(7)))


def digest(result) -> dict:
    return {
        "seeds": [int(s) for s in result.seeds],
        "objective": float(result.objective).hex(),
        "num_rr_sets": int(result.num_rr_sets),
        "params": json.loads(json.dumps(result.params)),
    }


def cold_cases(graph):
    costs = default_costs(graph)
    common = dict(num_machines=MACHINES, seed=SEED)
    return {
        "budgeted": lambda: budgeted_influence_maximization(
            graph, costs, 12.0, num_rr_sets=1500, **common
        ),
        "budgeted-lt": lambda: budgeted_influence_maximization(
            graph, costs, 9.0, num_rr_sets=1201, model="lt", **common
        ),
        "profit": lambda: profit_maximization(graph, costs / 2, num_rr_sets=1500, **common),
        "targeted": lambda: targeted_influence_maximization(
            graph, list(TARGETS), 4, num_rr_sets=1400, **common
        ),
        "seedmin": lambda: seed_minimization(graph, 40.0, num_rr_sets=1500, **common),
        "seedmin-capped": lambda: seed_minimization(
            graph, 150.0, num_rr_sets=700, max_seeds=3, **common
        ),
        "adaptive": lambda: adaptive_influence_maximization(
            graph, 3, rr_sets_per_round=300, **common
        ),
        # Recorded with method="vectorized"; method is gone (LT draws its
        # one keyed kernel), the case name stayed.
        "adaptive-vectorized-lt": lambda: adaptive_influence_maximization(
            graph, 3, rr_sets_per_round=250, model="lt", **common
        ),
    }


WARM_QUERIES = {
    "budgeted": Query(kind="budgeted", budget=12.0, num_rr_sets=1500),
    "profit": Query(kind="profit", num_rr_sets=1100),
    "targeted": Query(kind="targeted", k=4, targets=TARGETS, num_rr_sets=1400),
}


def updates(graph):
    """Three mixed deltas: edge churn, a node removal, a full invalidation."""
    edges = [(u, v) for u, v, _ in graph.edges()]
    return [
        GraphDelta(
            add_edges=[(0, 7, 0.4), (33, 90, 0.25)],
            remove_edges=edges[3:8],
            reweight_edges=[(*edges[15], 0.85)],
        ),
        GraphDelta(remove_nodes=[edges[40][1]], add_edges=[(5, 150, 0.3)]),
        GraphDelta(add_nodes=2, reweight_edges=[(*edges[60], 0.5)], remove_edges=edges[70:72]),
    ]


def warm_case(executor: str, dynamic: bool) -> dict:
    graph = build_graph()
    with InfluenceService(
        graph, machines=MACHINES, seed=SEED, executor=executor, dynamic=dynamic
    ) as service:
        # A diimm query grows the shared cluster pool past the
        # applications' prefixes first, as serving traffic does.
        service.query(Query(kind="diimm", k=4))
        answers = {name: service.query(q) for name, q in WARM_QUERIES.items()}
        if dynamic:
            for delta in updates(graph):
                service.apply_update(delta)
            answers = {name: service.query(q) for name, q in WARM_QUERIES.items()}
        return {name: digest(result) for name, result in answers.items()}


def warm_id(executor: str, dynamic: bool) -> str:
    return f"warm-{'dynamic' if dynamic else 'static'}/{executor}"


def record() -> dict:
    out = {f"cold/{name}": digest(call()) for name, call in cold_cases(build_graph()).items()}
    for executor in ("simulated", "multiprocessing:2"):
        for dynamic in (False, True):
            out[warm_id(executor, dynamic)] = warm_case(executor, dynamic)
    return out


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("name", sorted(cold_cases(build_graph())))
def test_cold_application_equals_parent(recorded, name):
    assert digest(cold_cases(build_graph())[name]()) == recorded[f"cold/{name}"]


@pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
@pytest.mark.parametrize(
    "executor", ["simulated", pytest.param("multiprocessing:2", marks=pytest.mark.slow)]
)
def test_warm_application_equals_parent(recorded, executor, dynamic):
    assert warm_case(executor, dynamic) == recorded[warm_id(executor, dynamic)]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"recorded {DIGESTS}")

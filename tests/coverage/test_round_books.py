"""The per-seed round keeps its books after the loop — the same books.

``NewGreeDiRounds.select`` meters a round and ``close`` writes its four
phase records.  The oracle below is ``select`` as it stood before: four
``Executor.run_phase`` calls per seed, each recording at once.  Whatever
drives the rounds — ``newgreedi`` on the kernel or on the dict-store
oracle, the budgeted, profit and seed-minimisation loops — must leave the
identical phase list.
"""

import itertools
from importlib import import_module

import numpy as np
import pytest

from repro.applications import (
    budgeted_influence_maximization,
    profit_maximization,
    seed_minimization,
)
from repro.cluster import COMMUNICATION, MachineFailure, SimulatedCluster
from repro.cluster.executor import BroadcastPhase, GatherPhase, MapPhase, MasterPhase
from repro.coverage import newgreedi
from repro.coverage.newgreedi import SEED_BYTES, NewGreeDiRounds
from repro.graphs import erdos_renyi, weighted_cascade
from repro.ris import make_sampler
from repro.ris.wire import tuple_vector_nbytes
from tests.oracle import RRCollection, engine

# The package re-exports the function under the submodule's name.
newgreedi_module = import_module("repro.coverage.newgreedi")

MACHINES = 4


class ParentRounds(NewGreeDiRounds):
    """The parent commit's round: every phase through ``run_phase``."""

    def select(self, seed):
        executor, label, counts = self.executor, self.label, self.counts
        decrements = newgreedi_module.sparse_decrements  # the oracle's, when swapped in

        def map_stage(machine):
            mid = machine.machine_id
            return decrements(self.stores[mid], seed, self._covered[mid])

        executor.run_phase(BroadcastPhase(f"{label}/seed", SEED_BYTES))
        responses = executor.run_phase(MapPhase(f"{label}/map", map_stage)).results
        executor.run_phase(
            GatherPhase(
                f"{label}/gather",
                tuple(tuple_vector_nbytes(nodes, decs) for nodes, decs, __ in responses),
            )
        )

        def reduce_stage():
            gained = 0
            for mid, (nodes, decs, newly) in enumerate(responses):
                self.covered_per_machine[mid] += newly
                gained += newly
                if nodes.size:
                    counts[nodes] -= decs
            return gained

        gained = executor.run_phase(MasterPhase(f"{label}/reduce", reduce_stage)).results
        self.marginals.append(gained)
        return gained


def books(metrics):
    """Everything of a phase list that is not a measured wall time."""
    return [
        (
            p.category,
            p.label,
            p.num_bytes,
            len(p.machine_times),
            p.round_index,
            p.rule,
            p.parallel_time if p.category == COMMUNICATION else None,
        )
        for p in metrics.phases
    ]


def build_stores(seed: int, count: int = 160):
    graph = weighted_cascade(erdos_renyi(60, 300, np.random.default_rng(seed)))
    samples = make_sampler(graph, "ic").sample_many(count, np.random.default_rng(seed))
    stores = [RRCollection(graph.num_nodes) for __ in range(MACHINES)]
    for idx, sample in enumerate(samples):
        stores[idx % MACHINES].add(sample)
    return stores


@pytest.mark.parametrize("backend", ["flat", "reference"])
@pytest.mark.parametrize("seed", [0, 1])
def test_newgreedi_books_equal_the_per_seed_run_phase_loop(monkeypatch, backend, seed):
    """``backend="reference"`` runs both sides on the oracle's dict loops."""
    def run():
        cluster = SimulatedCluster(MACHINES, seed=0)
        with cluster.metrics.annotated(round_index=3, rule="imm-schedule"):
            result = newgreedi(cluster, 7, stores=build_stores(seed), label="search-3/newgreedi")
        return result, books(cluster.metrics)

    with engine(backend):
        result, ours = run()
        monkeypatch.setattr(newgreedi_module, "NewGreeDiRounds", ParentRounds)
        parent_result, parents = run()
    assert (result.seeds, result.marginals) == (parent_result.seeds, parent_result.marginals)
    assert ours == parents
    assert [entry[1] for entry in ours].count("search-3/newgreedi/map") == len(result.marginals)
    assert {entry[4:6] for entry in ours} == {(3, "imm-schedule")}


APPLICATIONS = {
    "budgeted": lambda g, costs: budgeted_influence_maximization(
        g, costs, 6.0, MACHINES, 900, seed=3
    ),
    "profit": lambda g, costs: profit_maximization(g, 4 * costs, MACHINES, 900, seed=3),
    "seedmin": lambda g, costs: seed_minimization(g, 60.0, MACHINES, 900, seed=3),
}


@pytest.mark.parametrize("name", sorted(APPLICATIONS))
def test_application_books_equal_the_per_seed_run_phase_loop(small_wc_graph, monkeypatch, name):
    costs = np.random.default_rng(3).uniform(0.5, 2.0, size=small_wc_graph.num_nodes)
    result = APPLICATIONS[name](small_wc_graph, costs)
    module = import_module(f"repro.applications.{name}")
    monkeypatch.setattr(module, "NewGreeDiRounds", ParentRounds)
    parent = APPLICATIONS[name](small_wc_graph, costs)
    assert (result.seeds, result.objective) == (parent.seeds, parent.objective)
    assert len(result.seeds) > 1
    assert books(result.metrics) == books(parent.metrics)


def test_map_failure_names_the_machine_and_keeps_finished_rounds(monkeypatch):
    """Machine 2's map stage raises on the third seed: the failure carries
    its id and label, and the two finished rounds are on the books."""
    stores = build_stores(4)
    real = newgreedi_module.sparse_decrements
    calls_on_machine_2 = itertools.count(1)

    def failing(store, seed, covered):
        if store is flat_stores[2] and next(calls_on_machine_2) == 3:
            raise OSError("simulated storage failure")
        return real(store, seed, covered)

    monkeypatch.setattr(newgreedi_module, "sparse_decrements", failing)
    cluster = SimulatedCluster(MACHINES, seed=0)
    executor = newgreedi_module.as_executor(cluster)
    with pytest.raises(MachineFailure) as info:
        with NewGreeDiRounds(executor, stores, "newgreedi") as rounds:
            flat_stores = rounds.stores
            order = np.argsort(-rounds.counts, kind="stable")[:5].tolist()
            for seed in order:
                rounds.select(seed)
    assert (info.value.machine_id, info.value.label) == (2, "newgreedi/map")
    assert isinstance(info.value.__cause__, OSError)
    assert len(rounds.marginals) == 2
    labels = [p.label for p in cluster.metrics.phases if "/init/" not in p.label]
    assert labels == ["newgreedi/reset"] + [
        f"newgreedi/{stage}" for __ in range(2) for stage in ("seed", "map", "gather", "reduce")
    ]


def test_newgreedi_closes_the_books_when_a_round_fails(monkeypatch):
    stores = build_stores(5)
    real = newgreedi_module.sparse_decrements
    calls = itertools.count(1)

    def failing(store, seed, covered):
        if next(calls) == 2 * MACHINES + 3:  # third seed, machine 2
            raise OSError("simulated storage failure")
        return real(store, seed, covered)

    monkeypatch.setattr(newgreedi_module, "sparse_decrements", failing)
    cluster = SimulatedCluster(MACHINES, seed=0)
    with pytest.raises(MachineFailure) as info:
        newgreedi(cluster, 6, stores=stores)
    assert info.value.machine_id == 2
    labels = [p.label for p in cluster.metrics.phases]
    assert labels.count("newgreedi/map") == labels.count("newgreedi/reduce") == 2
    assert "newgreedi/select" not in labels


def test_rounds_are_metered_on_the_cluster_clock_times_slowdown():
    ticks = itertools.count()
    cluster = SimulatedCluster(2, seed=0, clock=lambda: float(next(ticks)), slowdowns=[1.0, 3.0])
    stores = build_stores(6)[:2]
    with NewGreeDiRounds(newgreedi_module.as_executor(cluster), stores, "rounds") as rounds:
        rounds.select(int(np.argmax(rounds.counts)))
        assert [p.label for p in cluster.metrics.phases if p.label.startswith("rounds/map")] == []
    by_label = {p.label: p for p in cluster.metrics.phases}
    assert by_label["rounds/map"].machine_times == (1.0, 3.0)
    assert by_label["rounds/reduce"].machine_times == (1.0,)
    assert by_label["rounds/seed"].num_bytes == 2 * SEED_BYTES
    rounds.close()  # nothing left to write
    assert [p.label for p in cluster.metrics.phases].count("rounds/map") == 1

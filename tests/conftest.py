"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import SimulatedCluster, SimulatedExecutor
from repro.coverage import from_elements
from repro.ris import FlatRRCollection, append_batch, pack_samples
from repro.graphs import (
    GraphBuilder,
    erdos_renyi,
    paper_coverage_example,
    paper_example_graph,
    weighted_cascade,
)


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh deterministic generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def paper_graph():
    """The 4-node graph of the paper's Fig 1 (Examples 1 and 2)."""
    return paper_example_graph()


@pytest.fixture(scope="session")
def paper_instance() -> FlatRRCollection:
    """The 6-RR-set coverage instance of the paper's Fig 2 (Example 3)."""
    return from_elements(5, paper_coverage_example())


@pytest.fixture(scope="session")
def small_wc_graph():
    """A 200-node ER graph with weighted-cascade probabilities."""
    graph = erdos_renyi(200, 1200, np.random.default_rng(7))
    return weighted_cascade(graph)


@pytest.fixture(scope="session")
def medium_wc_graph():
    """A 2000-node ER graph with weighted-cascade probabilities."""
    graph = erdos_renyi(2000, 10000, np.random.default_rng(11))
    return weighted_cascade(graph)


@pytest.fixture
def diamond_graph():
    """Deterministic diamond 0 -> {1, 2} -> 3 with unit probabilities."""
    return GraphBuilder.from_edges(
        [(0, 1, 1.0), (0, 2, 1.0), (1, 3, 1.0), (2, 3, 1.0)], num_nodes=4
    )


@pytest.fixture
def drivers(monkeypatch):
    """Every ``RoundDriver`` that ``core.diimm.run`` builds during the test,
    in order — the way to the per-machine stores of a finished run."""
    from importlib import import_module

    from repro.core.driver import RoundDriver

    built = []

    class Recording(RoundDriver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    # ``repro.core.diimm`` the attribute is the function; the module is patched.
    monkeypatch.setattr(import_module("repro.core.diimm"), "RoundDriver", Recording)
    return built


def simulated(num_machines: int, **shape) -> SimulatedExecutor:
    """A graph-less simulated executor on ``SimulatedCluster(num_machines, **shape)``:
    enough for every phase but generation."""
    return SimulatedExecutor(SimulatedCluster(num_machines, **shape))


def make_random_instance(
    rng: np.random.Generator,
    max_sets: int = 30,
    max_elements: int = 60,
) -> FlatRRCollection:
    """Random coverage instance helper used by several test modules."""
    num_sets = int(rng.integers(2, max_sets))
    num_elements = int(rng.integers(1, max_elements))
    elements = [
        rng.choice(
            num_sets,
            size=int(rng.integers(1, min(6, num_sets + 1))),
            replace=False,
        )
        for __ in range(num_elements)
    ]
    return from_elements(num_sets, elements)


def round_robin_stores(samples, num_nodes: int, machines: int, store=FlatRRCollection):
    """``samples`` dealt round-robin over ``machines`` fresh stores of type
    ``store``: machine ``i`` gets samples ``i, i + machines, ...`` in order,
    as one packed batch."""
    stores = [store(num_nodes) for __ in range(machines)]
    for mid, target in enumerate(stores):
        append_batch(target, pack_samples(samples[mid::machines]))
    return stores

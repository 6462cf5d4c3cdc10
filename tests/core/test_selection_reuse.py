"""The driver runs only the selection rounds whose answer is read.

On the facebook stand-in at eps=0.5 with four machines, ``k=64`` plans a
final theta the passing search round already holds — the final round must
hand back that round's selection object instead of selecting again —
while ``k=20`` plans a larger one and must select on the grown collection.
Both have doomed search rounds, which stop short of ``k`` seed rounds.
"""

from collections import Counter
from importlib import import_module

import pytest

from repro import api
from repro.api import RunConfig
from repro.core.driver import RoundDriver
from repro.coverage import newgreedi
from repro.graphs.datasets import load_dataset
from tests.conftest import simulated

# The package re-exports the function under the submodule's name.
driver_module = import_module("repro.core.driver")


@pytest.fixture
def traced(monkeypatch):
    """Every ``DriverRun`` (with its driver) and every NEWGREEDI selection."""
    runs, selections = [], []
    real_run, real_newgreedi = RoundDriver.run, driver_module.newgreedi

    def run(self):
        runs.append((self, real_run(self)))
        return runs[-1][1]

    def recording_newgreedi(*args, **kwargs):
        selections.append((kwargs["label"], real_newgreedi(*args, **kwargs)))
        return selections[-1][1]

    monkeypatch.setattr(RoundDriver, "run", run)
    monkeypatch.setattr(driver_module, "newgreedi", recording_newgreedi)
    return runs, selections


def diimm(k):
    graph = load_dataset("facebook").graph
    result = api.run("diimm", RunConfig(graph=graph, k=k, machines=4, eps=0.5, seed=1))
    maps = Counter(
        p.label.split("/")[0] for p in result.metrics.phases if p.label.endswith("/newgreedi/map")
    )
    return result, maps


def test_an_ungrown_final_round_reuses_the_passing_selection(traced):
    runs, selections = traced
    result, maps = diimm(64)
    (driver, run), (last_label, last_selection) = runs[0], selections[-1]
    assert result.search_rounds == 3 and run.rounds_executed == 4
    # Nothing to generate, ingest or select: the final round meters nothing.
    assert not [p.label for p in result.metrics.phases if p.label.startswith("final/")]
    assert last_label == "search-3/newgreedi"
    assert run.selection is last_selection
    assert maps["search-3"] == 64
    assert maps["search-1"] < 64 and maps["search-2"] < 64  # doomed, cut short
    assert result.num_rr_sets == driver.total_sets("main") == last_selection.num_elements
    # What a second selection on the final collection would have returned.
    again = newgreedi(simulated(4, seed=0), 64, stores=driver.stores["main"])
    assert (again.seeds, again.coverage) == (result.seeds, run.selection.coverage)


def test_a_grown_final_round_selects_again(traced):
    runs, selections = traced
    result, maps = diimm(20)
    run = runs[0][1]
    assert [label for label, __ in selections][-2:] == ["search-3/newgreedi", "final/newgreedi"]
    assert run.selection is selections[-1][1]
    assert run.selection.num_elements == result.num_rr_sets > selections[-2][1].num_elements
    assert maps["final"] == maps["search-3"] == 20
    assert maps["search-1"] < 20 and maps["search-2"] < 20

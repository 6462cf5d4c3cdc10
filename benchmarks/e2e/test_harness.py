"""Tests of the benchmark harness itself (not of the program it measures).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; the
directory is outside tier-1's ``testpaths`` on purpose.
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (os.path.join(ROOT, "src"), ROOT):
    if path not in sys.path:
        sys.path.insert(0, path)

from benchmarks.e2e import compare as compare_mod  # noqa: E402
from benchmarks.e2e import metrics, stats, streams, trace  # noqa: E402


# -- the percentile rule -----------------------------------------------
def test_percentile_refuses_fewer_than_ten_beyond():
    samples = list(range(1, 501))
    assert stats.percentile(samples, 98) == 490  # exactly ten beyond
    with pytest.raises(ValueError, match="only 5 beyond"):
        stats.percentile(samples, 99)
    with pytest.raises(ValueError, match="only 9 beyond"):
        stats.percentile(list(range(39)), 75)
    assert stats.percentile(list(range(1, 41)), 75) == 30
    # Smoke runs may look, but only by saying so.
    assert stats.percentile(samples, 99, strict=False) == 495


def test_percentile_is_a_tail_statistic():
    with pytest.raises(ValueError, match=r"\(50, 100\)"):
        stats.percentile(list(range(100)), 50)


def test_quantile_interval_brackets_and_tightens():
    few = stats.quantile_interval([3.0, 1.0, 2.0])
    assert few == (1.0, 3.0)  # three samples cannot say more than the range
    assert stats.quantile_interval(list(range(1, 9))) == (3, 6)  # ~ the quartiles
    lo, hi = stats.quantile_interval(list(range(1000)))
    assert lo < 500 < hi and hi - lo < 30
    lo, hi = stats.quantile_interval(list(range(1000)), 97)
    assert lo < 970 < hi and hi - lo < 12


# -- span self time ----------------------------------------------------
def _span(name, layer, start, end, parent):
    return [name, layer, start, end, parent, 1, 0]


def test_self_time_subtracts_the_union_of_children():
    tracer = trace.Tracer()
    tracer.spans = [
        _span("root", "harness", 0.0, 10.0, -1),
        _span("a", "core.driver", 1.0, 6.0, 0),
        _span("a1", "ris.sampler", 2.0, 4.0, 1),
        _span("a2", "ris.flat", 4.0, 5.0, 1),
        # Two children on other threads overlap each other: the parent
        # loses their union (7..9.5), not their sum.
        _span("b", "serve.service", 7.0, 9.0, 0),
        _span("c", "serve.service", 8.0, 9.5, 0),
    ]
    assert trace.self_times(tracer.spans) == [2.5, 2.0, 2.0, 1.0, 2.0, 1.5]
    table = trace.layer_table(tracer)
    assert table["harness.self_s"] == 2.5
    assert table["core.driver.self_s"] == 2.0
    assert table["serve.service.calls"] == 2
    # b and c overlap for one second, which both layers' sums keep; apart
    # from such cross-thread overlap, self times add up to the wall.
    total = sum(table[f"{layer}.self_s"] for layer in trace.LAYERS)
    assert total == pytest.approx(tracer.wall() + 1.0)


def test_live_spans_nest_and_inherit_layers():
    tracer = trace.Tracer()
    with tracer.request("op", "serve.frontend") as root:
        inner = tracer.begin("work", None)
        tracer.end(inner)
    assert tracer.spans[inner][1] == "serve.frontend"
    assert tracer.spans[inner][4] == root
    assert tracer.spans[root][5] == tracer.spans[inner][5] == 1
    assert tracer.wall() >= tracer.spans[inner][3] - tracer.spans[inner][2]


# -- streams -----------------------------------------------------------
def test_query_stream_is_a_function_of_the_seed():
    first = json.dumps(streams.query_stream(7, 300))
    assert first == json.dumps(streams.query_stream(7, 300))
    assert first != json.dumps(streams.query_stream(8, 300))
    stream = streams.query_stream(7, 300)
    distinct = {json.dumps(q, sort_keys=True) for q in stream}
    assert 30 < len(distinct) < 120  # mostly repeats, some fresh
    assert {q["kind"] for q in stream} == {"diimm", "budgeted", "profit"}


def test_update_stream_is_a_function_of_the_seed():
    from repro.graphs.generators import barabasi_albert
    import numpy as np

    graph = barabasi_albert(200, 4, np.random.default_rng(0))
    first = json.dumps(streams.update_stream(graph, 7, 20))
    assert first == json.dumps(streams.update_stream(graph, 7, 20))
    assert first != json.dumps(streams.update_stream(graph, 8, 20))
    touched = set()
    for delta in streams.update_stream(graph, 7, 20):
        assert [len(delta[key]) for key in sorted(delta)] == [1, 1, 1]
        for edge in delta["remove_edges"] + delta["reweight_edges"]:
            assert graph.has_edge(edge[0], edge[1])
            touched.add((edge[0], edge[1]))
    assert len(touched) == 40  # disjoint edges across the whole stream


# -- compare -----------------------------------------------------------
def _metric(bound=0.10, better="lower"):
    return metrics.Metric("m", "s", better, bound, "")


def test_compare_verdicts():
    verdict = compare_mod.verdict
    tight = lambda v: (v, v * 0.99, v * 1.01)  # noqa: E731
    assert verdict(_metric(), tight(1.0), tight(1.05)) == "same"
    assert verdict(_metric(), tight(1.0), tight(1.2)) == "worse"
    assert verdict(_metric(), tight(1.0), tight(0.8)) == "better"
    assert verdict(_metric(better="higher"), tight(1.0), tight(0.8)) == "worse"
    assert verdict(_metric(better="higher"), tight(1.0), tight(1.2)) == "better"
    # Spread wider than the bound with overlapping intervals: cannot tell.
    assert verdict(_metric(), (1.0, 0.8, 1.3), (1.2, 0.9, 1.5)) == "unresolved"
    # Wide but disjoint: every reading of B is beyond every reading of A.
    assert verdict(_metric(), (1.0, 0.8, 1.1), (1.6, 1.3, 1.9)) == "worse"
    # fail_frac: absolute, any rise is a regression.
    assert verdict(_metric(bound=0.0), (0.0, 0.0, 0.0), (0.01, 0.01, 0.01)) == "worse"
    assert verdict(_metric(bound=0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)) == "same"


def _report(run_s, fail_frac, sampler_s):
    row = {"value": run_s, "samples": {"lo": run_s * 0.99, "hi": run_s * 1.01}}
    per_layer = {f"{layer}.self_s": 0.0 for layer in trace.LAYERS}
    per_layer["ris.sampler.self_s"] = sampler_s
    return {
        "workloads": {
            "cold_ic_bfs": {
                "timed": {
                    "end_to_end": {"run_s": row},
                    "extra": {"fail_frac": {"value": fail_frac}},
                },
                "traced": {"per_layer": per_layer},
            }
        }
    }


def test_compare_names_the_layer_and_flags_regressions():
    rows, regressed = compare_mod.compare(_report(1.0, 0.0, 0.8), _report(1.5, 0.0, 1.3))
    by_metric = {row["metric"]: row for row in rows}
    assert regressed
    assert by_metric["run_s"]["verdict"] == "worse"
    assert by_metric["run_s"]["layer"].startswith("ris.sampler.self_s 0.8 -> 1.3")
    assert by_metric["run_s"]["ratio"] == pytest.approx(1.5)
    assert by_metric["fail_frac"]["verdict"] == "same"
    _, regressed = compare_mod.compare(_report(1.0, 0.0, 0.8), _report(1.0, 0.1, 0.8))
    assert regressed  # a rise in fail_frac alone fails the comparison
    _, regressed = compare_mod.compare(_report(1.0, 0.0, 0.8), _report(0.7, 0.0, 0.5))
    assert not regressed


# -- the contract ------------------------------------------------------
def test_benchmark_json_is_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        assert json.load(handle) == metrics.benchmark_json()
    names = [m.name for m in metrics.END_TO_END] + [n for n, _, _ in metrics.PER_LAYER]
    assert len(names) == len(set(names))
    assert "setup_s" in names
    assert len(metrics.PER_LAYER) <= 128 and len(metrics.END_TO_END) <= 16
    assert all(len(why) <= 200 for why in metrics.WORKLOADS.values())
    assert max(m.bound for m in metrics.END_TO_END) <= 0.25


# -- wrappers ----------------------------------------------------------
def test_traced_run_records_layers_and_removes_every_wrapper():
    import numpy as np

    from repro import api
    from repro.graphs.generators import barabasi_albert
    from repro.graphs.weights import weighted_cascade

    # The plan can be listed without installing anything.
    targets = [(owner, attr) for owner, attr, _ in trace._patches(trace.Tracer())]

    def current():
        return [vars(owner).get(attr) for owner, attr in targets]

    before = current()
    graph = weighted_cascade(barabasi_albert(300, 4, np.random.default_rng(0)))
    config = api.RunConfig(graph=graph, k=5, machines=2, eps=0.5, seed=3)
    plain = api.run("diimm", config)
    with trace.tracing() as tracer:
        during = current()
        with tracer.request("api.run"):
            traced = api.run("diimm", config)
    after = current()

    assert len(targets) > 40
    assert all(a is b for a, b in zip(before, after))  # fully restored
    assert all(d is not b for d, b in zip(during, before))  # and were installed
    assert list(traced.seeds) == list(plain.seeds)  # observing changes nothing
    table = trace.layer_table(tracer)
    assert table["ris.sampler.self_s"] > 0 and table["coverage.select.calls"] >= 1
    assert tracer.counts["ris.sampler.sets"] == traced.num_rr_sets
    total = sum(table[f"{layer}.self_s"] for layer in trace.LAYERS)
    assert total == pytest.approx(tracer.wall())
    assert len({span[5] for span in tracer.spans}) == 1  # one shared trace id

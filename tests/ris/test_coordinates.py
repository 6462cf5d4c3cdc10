"""A set's generator is its coordinates.

``sample_set_range(sampler, seed, machine, ids, key)`` is the one place
``(seed, key, machine, index)`` becomes a generator: the ``(seed, key,
machine)`` base stream jumped ``index`` times.  Pinned here, each test
failing if its property is lost:

* every sampler draws set ``j`` exactly as its ``sample_batch`` would from
  a generator built independently (``tests.conftest.coordinate_rng``: a
  fresh ``PCG64`` + numpy's own ``jumped``), on plain and overlaid graphs;
* chunking and the reused generator ring never show;
* distinct coordinates are distinct, uniform streams — including the
  defect a power-of-two spacing (``advance(index << 64)``) would bring;
* the LT and SUBSIM samplers' sequential-stream ``sample_batch`` did not
  move a byte when ``sample_sets`` became their one loop.
"""

import hashlib

import numpy as np
import pytest

from repro.applications.targeted import TargetedSampler
from repro.core import distributed_opimc, distributed_ssa
from repro.core.pool import SamplePool
from repro.diffusion import ICTriggering, LTTriggering
from repro.graphs import DirectedGraph, GraphDelta, VersionedGraph, erdos_renyi, weighted_cascade
from repro.ris import TriggeringRRSampler, VectorizedTriggeringSampler, make_sampler
from repro.ris.rrset import PER_SET_BLOCK, RRSampler, concat_batches, sample_set_range
from tests.conftest import coordinate_rng

# name -> (graph -> sampler, works on a VersionedGraph overlay)
SAMPLERS = {
    "ic-bfs": (lambda g: make_sampler(g, "ic", "bfs"), True),
    "ic-subsim": (lambda g: make_sampler(g, "ic", "subsim"), True),
    "ic-vectorized": (lambda g: make_sampler(g, "ic", "vectorized"), False),
    "lt-bfs": (lambda g: make_sampler(g, "lt", "bfs"), True),
    "lt-vectorized": (lambda g: make_sampler(g, "lt", "vectorized"), False),
    "triggering-ic": (lambda g: TriggeringRRSampler(g, ICTriggering()), False),
    "triggering-lt": (lambda g: TriggeringRRSampler(g, LTTriggering()), False),
    "vectorized-triggering": (lambda g: VectorizedTriggeringSampler(g, ICTriggering()), False),
    "targeted": (lambda g: TargetedSampler(make_sampler(g, "ic"), range(0, 200, 3)), True),
}
PER_SET = [name for name in SAMPLERS if "vectorized" not in name]

# Scattered, unsorted, no two consecutive: a block-source sampler draws
# each as a run of one.
SCATTERED = [912, 3, 77, 40_000_000_000, 5, 640, 131, 0, 258]


def overlaid(graph):
    """``graph`` with patched, emptied and added in-rows (LT-safe: only
    removals and downward reweights)."""
    wrapped = VersionedGraph(DirectedGraph(graph.num_nodes, *graph.edge_arrays()))
    edges = list(graph.edges())
    emptied = edges[0][1]
    wrapped.apply(
        GraphDelta(
            remove_edges=[(u, v) for u, v, _ in edges if v == emptied]
            + [(u, v) for u, v, _ in edges[30:34]],
            reweight_edges=[(u, v, p * 0.5) for u, v, p in edges[50:54] if v != emptied],
        )
    )
    return wrapped


def assert_equal(batch, reference):
    for got, want in zip(batch, reference):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def digest(batch) -> str:
    sha = hashlib.sha256()
    for part in batch:
        sha.update(np.ascontiguousarray(part).tobytes())
    return sha.hexdigest()[:16]


# ----------------------------------------------------------------------
# (i) set j == sample_batch(<independently built generator>, 1)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SAMPLERS))
@pytest.mark.parametrize("layout", ["plain", "overlay"])
def test_set_equals_scalar_draw_from_its_coordinates(small_wc_graph, name, layout):
    build, on_overlay = SAMPLERS[name]
    if layout == "overlay" and not on_overlay:
        pytest.skip("sampler reads base CSR arrays only")
    graph = overlaid(small_wc_graph) if layout == "overlay" else small_wc_graph
    sampler, oracle = build(graph), build(graph)
    for key, machine in (("main", 0), ("verify", 3)):
        batch = sample_set_range(sampler, 21, machine, SCATTERED, key)
        assert_equal(
            batch,
            concat_batches(
                [oracle.sample_batch(coordinate_rng(21, key, machine, i), 1) for i in SCATTERED]
            ),
        )
    # Every coordinate matters.
    base = digest(sample_set_range(sampler, 21, 0, SCATTERED, "main"))
    assert base == digest(sample_set_range(sampler, 21, 0, SCATTERED))  # the default key
    assert base != digest(sample_set_range(sampler, 22, 0, SCATTERED, "main"))
    assert base != digest(sample_set_range(sampler, 21, 1, SCATTERED, "main"))
    assert base != digest(sample_set_range(sampler, 21, 0, SCATTERED, "R2"))
    assert base != digest(sample_set_range(sampler, 21, 0, [i + 1 for i in SCATTERED], "main"))


@pytest.mark.parametrize("name", ["ic-vectorized", "lt-vectorized", "vectorized-triggering"])
def test_block_source_draws_a_run_from_its_first_generator(small_wc_graph, name):
    sampler, oracle = SAMPLERS[name][0](small_wc_graph), SAMPLERS[name][0](small_wc_graph)
    assert not sampler.per_set_source
    run = sample_set_range(sampler, 4, 2, range(70, 370), "main")
    assert_equal(run, oracle.sample_batch(coordinate_rng(4, "main", 2, 70), 300))
    # Where the draw starts shows: the reason pools refuse the method.
    tail = sample_set_range(sampler, 4, 2, range(170, 370), "main")
    assert digest(tail) != digest(type(run)(*(part[100:] for part in run)))
    # Runs of consecutive ids are blocks of their own.
    ids = [*range(5, 25), 90, *range(40, 45)]
    pieces = [(5, 20), (90, 1), (40, 5)]
    assert_equal(
        sample_set_range(sampler, 4, 2, ids, "k"),
        concat_batches(
            [oracle.sample_batch(coordinate_rng(4, "k", 2, at), n) for at, n in pieces]
        ),
    )


def test_which_samplers_take_one_generator_per_set(small_wc_graph):
    flags = {name: build(small_wc_graph).per_set_source for name, (build, _) in SAMPLERS.items()}
    assert {name for name, flag in flags.items() if flag} == set(PER_SET)


# ----------------------------------------------------------------------
# (ii) chunking and ring reuse never show
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["ic-bfs", "ic-subsim", "lt-bfs", "targeted", "triggering-lt"])
def test_one_call_equals_any_split(small_wc_graph, name):
    sampler = SAMPLERS[name][0](small_wc_graph)
    assert 2 * PER_SET_BLOCK < 300  # the single call crosses ring boundaries
    whole = sample_set_range(sampler, 9, 1, range(300), "main")
    thirds = [sample_set_range(sampler, 9, 1, range(a, a + 100), "main") for a in (0, 100, 200)]
    assert_equal(concat_batches(thirds), whole)
    singles = [sample_set_range(sampler, 9, 1, [i], "main") for i in range(300)]
    assert_equal(concat_batches(singles), whole)
    assert len(sampler._ring) == PER_SET_BLOCK  # grown once, to one block


@pytest.mark.parametrize("name", ["ic-bfs", "lt-bfs", "ic-subsim"])
def test_draws_on_another_sampler_between_pulls_do_not_show(small_wc_graph, name):
    """Each generator is pulled just before its set is drawn; a whole draw
    on a sampler sharing nothing may run between any two pulls."""
    build = SAMPLERS[name][0]
    sampler, other = build(small_wc_graph), build(small_wc_graph)
    expected = sample_set_range(build(small_wc_graph), 6, 0, range(150), "main")
    expected_other = sample_set_range(build(small_wc_graph), 6, 1, range(40), "main")
    real = sampler.sample_sets

    def interleaved(rngs):
        def pulling():
            for rng in rngs:
                assert_equal(sample_set_range(other, 6, 1, range(40), "main"), expected_other)
                yield rng

        return real(pulling())

    sampler.sample_sets = interleaved
    assert_equal(sample_set_range(sampler, 6, 0, range(150), "main"), expected)


# ----------------------------------------------------------------------
# (iii) distinct coordinates, distinct uniform streams
# ----------------------------------------------------------------------
class _Probe(RRSampler):
    """Records what each handed generator yields first."""

    def __init__(self, graph):
        super().__init__(graph)
        self.seen = []

    def sample(self, rng):
        raise NotImplementedError

    def sample_sets(self, rngs):
        self.seen.extend(tuple(rng.random(4).tolist()) for rng in rngs)
        return concat_batches([])


def test_no_two_coordinates_share_their_first_outputs(small_wc_graph):
    probe = _Probe(small_wc_graph)
    for key in ("R1", "R2"):
        for machine in range(4):
            sample_set_range(probe, 1, machine, range(1250), key)
    assert len(probe.seen) == 10_000
    assert len(set(probe.seen)) == 10_000
    assert len({value for firsts in probe.seen for value in firsts}) == 40_000


def test_roots_of_consecutive_sets_are_uniform(small_wc_graph):
    """The first output of sets 0..N-1 of one collection is the root draw.
    Spaced a power of two apart (``advance(i << 64)``) an LCG's states
    share their low bits and this statistic reads ~60x its degrees of
    freedom; numpy's odd ``jumped`` stride keeps it a chi-square."""
    probe = _Probe(small_wc_graph)
    sample_set_range(probe, 5, 2, range(40_000), "main")
    firsts = np.asarray(probe.seen)
    for column, bins in ((0, 200), (0, 1999), (1, 200), (3, 200)):
        counts = np.bincount((firsts[:, column] * bins).astype(int), minlength=bins)
        expected = firsts.shape[0] / bins
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        df = bins - 1
        assert abs(chi2 - df) < 5 * np.sqrt(2 * df), (column, bins, chi2)
    # Neighbouring sets are uncorrelated, position by position.
    for column in range(4):
        corr = np.corrcoef(firsts[:-1, column], firsts[1:, column])[0, 1]
        assert abs(corr) < 5 / np.sqrt(firsts.shape[0])


# ----------------------------------------------------------------------
# (iv) the stream form did not move
# ----------------------------------------------------------------------
def nonuniform_graph():
    rng = np.random.default_rng(2)
    graph = erdos_renyi(150, 900, rng)
    src, dst, _ = graph.edge_arrays()
    # In-probability sums <= 1 (LT-valid), unequal within a row.
    weighted = weighted_cascade(graph)
    _, _, probs = weighted.edge_arrays()
    return DirectedGraph(graph.num_nodes, src, dst, probs * rng.uniform(0.3, 1.0, size=src.size))


# sha256[:16] of sample_batch(default_rng(3), 400) over all four arrays,
# recorded at the parent commit (b2c84c7), where LT had its own batch loop
# and SUBSIM ran pack_samples(sample_many(...)).
PARENT_STREAM_DIGESTS = {
    ("lt", "bfs", "wc"): "ab7671df140cf7d6",
    ("lt", "bfs", "nonuniform"): "c51957b66ce44b68",
    ("lt", "bfs", "overlay"): "f9672705177a98d0",
    ("ic", "subsim", "wc"): "fb7ce70346d46574",
    ("ic", "subsim", "nonuniform"): "1ca4d61cf4590cb0",
    ("ic", "subsim", "overlay"): "b22793ad76e2ff7f",
}


def stream_graph(layout):
    wc = weighted_cascade(erdos_renyi(200, 1200, np.random.default_rng(7)))  # small_wc_graph
    return {"wc": wc, "nonuniform": nonuniform_graph(), "overlay": overlaid(wc)}[layout]


@pytest.mark.parametrize("case", sorted(PARENT_STREAM_DIGESTS), ids="-".join)
def test_stream_sample_batch_is_the_parents(case):
    model, method, layout = case
    sampler = make_sampler(stream_graph(layout), model, method)
    rng = np.random.default_rng(3)
    batch = sampler.sample_batch(rng, 400)
    assert digest(batch) == PARENT_STREAM_DIGESTS[case]
    # ... and it is the one loop: the same generator pulled 400 times.
    again = sampler.sample_sets([rng_ := np.random.default_rng(3)] * 400)
    assert digest(again) == PARENT_STREAM_DIGESTS[case]
    assert rng.bit_generator.state == rng_.bit_generator.state
    assert sampler.sample_batch(rng, 0).offsets.tolist() == [0]
    with pytest.raises(ValueError, match=">= 0"):
        sampler.sample_batch(rng, -1)


# ----------------------------------------------------------------------
# The key is a coordinate everywhere a set is drawn
# ----------------------------------------------------------------------
def first_sets(store, limit=200):
    count = min(limit, store.num_sets)
    return [tuple(store.nodes[store.offsets[i] : store.offsets[i + 1]]) for i in range(count)]


@pytest.mark.parametrize(
    "algorithm,keys", [(distributed_ssa, ("select", "verify")), (distributed_opimc, ("R1", "R2"))]
)
def test_two_collections_of_one_run_are_independent(small_wc_graph, drivers, algorithm, keys):
    """D-SSA verifies, and D-OPIM-C certifies, a selection on its second
    collection: drawn with the key dropped it would be the very samples
    that chose the seeds."""
    algorithm(small_wc_graph, 4, 3, eps=0.3, seed=11)
    (driver,) = drivers
    assert tuple(driver.stores) == keys
    for first, second in zip(*(driver.stores[key] for key in keys)):
        a, b = first_sets(first), first_sets(second)
        assert len(a) == len(b) >= 100
        # Equal (machine, index), different key: equal sets only by chance
        # (two singleton draws of the same root).
        assert sum(x == y for x, y in zip(a, b)) <= 5


def test_pool_keys_are_independent_and_reproducible(small_wc_graph):
    with SamplePool(small_wc_graph, machines=2, seed=13) as pool, SamplePool(
        small_wc_graph, machines=2, seed=13
    ) as twin:
        pool.ensure("a", [150, 150])
        pool.ensure("b", [150, 150])
        twin.ensure("b", [60, 150])
        twin.ensure("b", [150, 150])
        for a, b, again in zip(pool.stores("a"), pool.stores("b"), twin.stores("b")):
            assert sum(x == y for x, y in zip(first_sets(a), first_sets(b))) <= 5
            np.testing.assert_array_equal(b.nodes, again.nodes)
            np.testing.assert_array_equal(b.offsets, again.offsets)


"""A set's draw is its coordinates.

``sample_set_range(sampler, seed, machine, ids, key)`` is the one place
``(seed, key, machine, index)`` reaches a sampler: as a 64-bit set key
(``set_keys``) handed to a keyed kernel, with the root set a targeted
draw takes its roots from.  Pinned here, each test failing if its
property is lost:

* every sampler draws set ``j`` exactly as an independently built oracle
  would — a key computed in plain Python integers — on plain and
  overlaid graphs;
* a keyed set's bytes do not depend on the block it is drawn in, nor on
  how a draw is chunked;
* distinct coordinates are distinct keys, and the keyed roots (targeted
  ones too) and coins pass chi-square gates;
* the scalar references (LT walk, SUBSIM) take generators only, and
  their sequential-stream ``sample_batch`` did not move a byte;
* a targeted pool draws on its workers, byte for byte as in process.
"""

import hashlib
import zlib

import numpy as np
import pytest

from repro.core import distributed_opimc, distributed_ssa
from repro.core.pool import SamplePool
from repro.diffusion import ICTriggering, LTTriggering
from repro.graphs import DirectedGraph, GraphDelta, VersionedGraph, erdos_renyi, weighted_cascade
from repro.ris import (
    ICReverseBFSSampler,
    LTReverseWalkSampler,
    SubsimSampler,
    TriggeringRRSampler,
    make_sampler,
)
from repro.ris.rrset import GOLDEN, concat_batches, sample_set_range, set_keys
from repro.ris.vectorized import _mix, _mulhi, _row_keys, _thresholds

# name -> graph -> sampler.  "ic-subsim" is make_sampler's ``method``
# vestige: the keyed IC kernel, like every other method.  "targeted" is
# the IC kernel drawing its roots from ROOTS["targeted"].
SAMPLERS = {
    "ic-bfs": lambda g: make_sampler(g, "ic", "bfs"),
    "ic-subsim": lambda g: make_sampler(g, "ic", "subsim"),
    "ic-vectorized": lambda g: make_sampler(g, "ic", "vectorized"),
    "lt-bfs": lambda g: make_sampler(g, "lt", "bfs"),
    "lt-vectorized": lambda g: make_sampler(g, "lt", "vectorized"),
    "targeted": lambda g: make_sampler(g, "ic"),
}
#: name -> the sorted root set its sets are drawn from; absent: all nodes.
ROOTS = {"targeted": np.arange(0, 200, 3)}
# The scalar references: they draw from a generator, never from set keys.
SCALAR = {
    "ic-reverse-bfs": ICReverseBFSSampler,
    "lt-reverse-walk": LTReverseWalkSampler,
    "subsim": SubsimSampler,
    "triggering-ic": lambda g: TriggeringRRSampler(g, ICTriggering()),
    "triggering-lt": lambda g: TriggeringRRSampler(g, LTTriggering()),
}

# Scattered, unsorted, no two consecutive.
SCATTERED = [912, 3, 77, 40_000_000_000, 5, 640, 131, 0, 258]

_M64 = (1 << 64) - 1


def python_set_key(seed, key, machine, index):
    """Set ``index``'s key in plain integers: output ``index`` of the
    splitmix64 stream started at the ``(seed, crc32(key), machine)`` word."""
    spawn_key = (zlib.crc32(key.encode()), machine)
    base = int(np.random.SeedSequence(seed, spawn_key=spawn_key).generate_state(1, np.uint64)[0])
    z = (base + (index + 1) * GOLDEN) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def python_root(sampler, set_key, roots=None):
    """The root a set key picks: ``mulhi(K, n)``, or ``roots[mulhi(K, |T|)]``."""
    if roots is not None:
        return int(roots[(set_key * roots.size) >> 64])
    return (set_key * sampler.graph.num_nodes) >> 64


def oracle_draw(oracle, seed, key, machine, index, roots=None):
    """Set ``(seed, key, machine, index)`` drawn alone from its coordinates."""
    set_key = python_set_key(seed, key, machine, index)
    batch = oracle.sample_keys([set_key], roots)
    assert int(batch.roots[0]) == python_root(oracle, set_key, roots)
    return batch


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
# (i) set j == its draw from an independently built key
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(SAMPLERS))
@pytest.mark.parametrize("layout", ["plain", "overlay"])
def test_set_equals_scalar_draw_from_its_coordinates(small_wc_graph, name, layout):
    build, roots = SAMPLERS[name], ROOTS.get(name)
    graph = overlaid(small_wc_graph) if layout == "overlay" else small_wc_graph
    sampler, oracle = build(graph), build(graph)

    def draw(seed, machine, ids, key="main"):
        return digest(sample_set_range(sampler, seed, machine, ids, key, roots))

    for key, machine in (("main", 0), ("verify", 3)):
        batch = sample_set_range(sampler, 21, machine, SCATTERED, key, roots)
        assert_equal(
            batch,
            concat_batches([oracle_draw(oracle, 21, key, machine, i, roots) for i in SCATTERED]),
        )
    # Every coordinate matters.
    base = draw(21, 0, SCATTERED)
    assert base == digest(sample_set_range(sampler, 21, 0, SCATTERED, roots=roots))  # default key
    assert base != draw(22, 0, SCATTERED)
    assert base != draw(21, 1, SCATTERED)
    assert base != draw(21, 0, SCATTERED, "R2")
    assert base != draw(21, 0, [i + 1 for i in SCATTERED])


@pytest.mark.parametrize("name", ["ic-vectorized", "lt-vectorized", "targeted"])
def test_keyed_draw_is_position_free(small_wc_graph, name):
    """A keyed set's bytes are its key's: not where its call started, not
    the block width, not which sets share its block."""
    sampler, roots = SAMPLERS[name](small_wc_graph), ROOTS.get(name)
    run = sample_set_range(sampler, 4, 2, range(70, 370), "main", roots)
    tail = sample_set_range(sampler, 4, 2, range(170, 370), "main", roots)
    alone = [oracle_draw(sampler, 4, "main", 2, i, roots) for i in range(170, 370)]
    assert_equal(tail, concat_batches(alone))
    assert digest(tail) == digest(_slice(run, 100, 300))
    keys = set_keys(4, 2, range(70, 370))
    for block in (1, 7, 64):
        sampler.block_size = block
        assert_equal(sampler.sample_keys(keys, roots), run)


def _slice(batch, start, stop):
    """Sets ``start..stop`` of a flat batch, re-based."""
    lo, hi = batch.offsets[start], batch.offsets[stop]
    return type(batch)(
        batch.nodes[lo:hi],
        batch.offsets[start : stop + 1] - lo,
        batch.roots[start:stop],
        batch.edges_examined[start:stop],
    )


def test_which_samplers_take_one_generator_per_set(small_wc_graph):
    """None on the coordinate path: every sampler ``sample_set_range`` or a
    pool draws with takes set keys.  The scalar references take a
    generator, through ``sample`` / ``sample_batch`` only."""
    for build in SAMPLERS.values():
        assert hasattr(build(small_wc_graph), "sample_keys")
    for name, build in SCALAR.items():
        sampler = build(small_wc_graph)
        assert not hasattr(sampler, "sample_keys"), name
        assert sampler.sample_batch(np.random.default_rng(1), 3).count == 3


# ----------------------------------------------------------------------
# (ii) chunking never shows
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["ic-bfs", "ic-subsim", "lt-bfs", "targeted"])
def test_one_call_equals_any_split(small_wc_graph, name):
    sampler, roots = SAMPLERS[name](small_wc_graph), ROOTS.get(name)
    whole = sample_set_range(sampler, 9, 1, range(300), "main", roots)
    thirds = [
        sample_set_range(sampler, 9, 1, range(a, a + 100), "main", roots) for a in (0, 100, 200)
    ]
    assert_equal(concat_batches(thirds), whole)
    singles = [sample_set_range(sampler, 9, 1, [i], "main", roots) for i in range(300)]
    assert_equal(concat_batches(singles), whole)


@pytest.mark.parametrize("name", ["ic-bfs", "lt-bfs", "ic-subsim"])
def test_draws_on_another_sampler_between_pulls_do_not_show(small_wc_graph, name):
    """A keyed sampler draws block by block; a whole draw on a sampler
    sharing nothing may run between any two blocks."""
    build = SAMPLERS[name]
    sampler, other = build(small_wc_graph), build(small_wc_graph)
    expected = sample_set_range(build(small_wc_graph), 6, 0, range(150), "main")
    expected_other = sample_set_range(build(small_wc_graph), 6, 1, range(40), "main")
    sampler.block_size = 16
    real = sampler._run_block

    def between_blocks(keys, roots):
        assert_equal(sample_set_range(other, 6, 1, range(40), "main"), expected_other)
        return real(keys, roots)

    sampler._run_block = between_blocks
    assert_equal(sample_set_range(sampler, 6, 0, range(150), "main"), expected)


# ----------------------------------------------------------------------
# (iii) distinct coordinates, distinct uniform streams
# ----------------------------------------------------------------------
class _Probe:
    """Records the set keys ``sample_set_range`` hands a sampler."""

    def __init__(self):
        self.seen = []

    def sample_keys(self, keys, roots=None):
        self.seen.extend(np.asarray(keys, dtype=np.uint64).tolist())
        return concat_batches([])


def test_no_two_coordinates_share_their_first_outputs():
    """A set's first output is its key: distinct coordinates, distinct keys."""
    probe = _Probe()
    for key in ("R1", "R2"):
        for machine in range(4):
            sample_set_range(probe, 1, machine, range(1250), key)
    assert len(probe.seen) == 10_000
    assert len(set(probe.seen)) == 10_000


def test_roots_of_consecutive_sets_are_uniform():
    """Sets 0..N-1 of one collection, as ``sample_set_range`` keys them:
    their roots (the keys' multiply-high by n) and the keys' low words are
    uniform, and neighbouring sets' keys are uncorrelated."""
    probe = _Probe()
    sample_set_range(probe, 5, 2, range(40_000), "main")
    keys = np.asarray(probe.seen, dtype=np.uint64)
    for n in (200, 1999):
        ok, chi2 = chi_square_ok(np.bincount(_mulhi(keys, n), minlength=n))
        assert ok, (n, chi2)
    low = _mulhi(keys << np.uint64(32), 200)
    assert chi_square_ok(np.bincount(low, minlength=200))[0]
    uniforms = keys.astype(np.float64) * 2.0**-64
    corr = np.corrcoef(uniforms[:-1], uniforms[1:])[0, 1]
    assert abs(corr) < 5 / np.sqrt(keys.size)


def chi_square_ok(counts):
    """Is a histogram's chi-square statistic within 5 sigma of its df?"""
    counts = np.asarray(counts, dtype=np.float64).ravel()
    expected = counts.sum() / counts.size
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    df = counts.size - 1
    return abs(chi2 - df) < 5 * np.sqrt(2 * df), chi2


def joint(a, b, bins=16):
    """The ``bins x bins`` histogram of pairs of uniforms in [0, 1)."""
    return np.bincount((a * bins).astype(int) * bins + (b * bins).astype(int), minlength=bins**2)


def coin_uniforms(set_keys_, nodes, rank):
    """The keyed IC coin of edge ``rank`` of ``nodes``' rows, as [0, 1)."""
    coins = _mix(_row_keys(set_keys_, nodes) + np.uint64(rank)) >> np.uint64(1)
    return coins.astype(np.float64) * 2.0**-63


KEYED_N = 100_000


def test_keyed_roots_of_consecutive_sets_are_uniform():
    """Roots are the multiply-high of consecutive set keys by n."""
    keys = set_keys(5, 2, range(KEYED_N), "main")
    for n in (200, 1999):
        ok, chi2 = chi_square_ok(np.bincount(_mulhi(keys, n), minlength=n))
        assert ok, (n, chi2)
    roots = _mulhi(keys, 1 << 20) / (1 << 20)
    assert chi_square_ok(joint(roots[:-1], roots[1:]))[0]


def test_keyed_targeted_roots_are_uniform_over_the_targets(small_wc_graph):
    """A targeted set's root is ``targets[mulhi(K, |T|)]``: uniform over a
    67-node target set, and independent across consecutive set ids."""
    targets = ROOTS["targeted"]
    assert targets.size == 67
    sampler = make_sampler(small_wc_graph, "ic")
    roots = sample_set_range(sampler, 5, 2, range(KEYED_N), "main", targets).roots
    assert np.isin(roots, targets).all()
    ranks = np.searchsorted(targets, roots)
    ok, chi2 = chi_square_ok(np.bincount(ranks, minlength=targets.size))
    assert ok, chi2
    pairs = ranks[:-1] * targets.size + ranks[1:]
    ok, chi2 = chi_square_ok(np.bincount(pairs, minlength=targets.size**2))
    assert ok, chi2


@pytest.mark.parametrize("rank", [0, 1, 5])
def test_coins_of_two_edges_of_one_node_within_one_set(rank):
    """Ranks ``r`` and ``r + 1`` of one row in one set: independent
    uniforms (the mix's input differs by one)."""
    keys = set_keys(3, 0, range(KEYED_N), "main")
    nodes = np.arange(KEYED_N, dtype=np.int64) % 997
    first, second = coin_uniforms(keys, nodes, rank), coin_uniforms(keys, nodes, rank + 1)
    for counts in (np.bincount((first * 64).astype(int)), joint(first, second)):
        ok, chi2 = chi_square_ok(counts)
        assert ok, chi2
    assert abs(np.corrcoef(first, second)[0, 1]) < 5 / np.sqrt(KEYED_N)


@pytest.mark.parametrize("step", [1, 2, 1000])
def test_row_keys_of_two_nodes_within_one_set(step):
    """Nodes ``v`` and ``v + step`` of one set: independent row keys
    (their hash inputs differ by a multiple of the golden increment)."""
    keys = set_keys(4, 2, range(KEYED_N), "main")
    nodes = np.arange(KEYED_N, dtype=np.int64) % 50_000
    first = _row_keys(keys, nodes).astype(np.float64) * 2.0**-64
    second = _row_keys(keys, nodes + step).astype(np.float64) * 2.0**-64
    ok, chi2 = chi_square_ok(joint(first, second))
    assert ok, chi2
    assert abs(np.corrcoef(first, second)[0, 1]) < 5 / np.sqrt(KEYED_N)


@pytest.mark.parametrize("node", [0, 17, 59_999])
def test_coin_of_one_edge_across_consecutive_set_ids(node):
    keys = set_keys(8, 1, range(KEYED_N), "R1")
    coins = coin_uniforms(keys, np.full(KEYED_N, node), 2)
    for counts in (np.bincount((coins * 64).astype(int)), joint(coins[:-1], coins[1:])):
        ok, chi2 = chi_square_ok(counts)
        assert ok, chi2
    assert abs(np.corrcoef(coins[:-1], coins[1:])[0, 1]) < 5 / np.sqrt(KEYED_N)


@pytest.mark.parametrize("node", [3, 4_000])
def test_lt_stop_and_pick_draws_across_consecutive_set_ids(node):
    """LT's stop draw (the row key's high word) and pick draw (its low
    word): each uniform, independent of each other, and of the next set's."""
    keys = set_keys(6, 3, range(KEYED_N), "main")
    draws = _row_keys(keys, np.full(KEYED_N, node))
    stop = (draws >> np.uint64(32)).astype(np.float64) * 2.0**-32
    pick = (draws & np.uint64(0xFFFFFFFF)).astype(np.float64) * 2.0**-32
    for a, b in ((stop, pick), (stop[:-1], stop[1:]), (pick[:-1], pick[1:]), (pick[:-1], stop[1:])):
        ok, chi2 = chi_square_ok(joint(a, b))
        assert ok, chi2
    # The pick's multiply-high by a degree is uniform over the row.
    for degree in (3, 10):
        picked = ((draws & np.uint64(0xFFFFFFFF)) * np.uint64(degree)) >> np.uint64(32)
        assert chi_square_ok(np.bincount(picked.astype(np.int64), minlength=degree))[0]


def test_thresholds_pin_both_ends():
    """``p >= 1`` always live, ``p <= 0`` never, no overflow at 1.0."""
    thresholds = _thresholds(np.array([-0.5, 0.0, 0.25, 1.0, 3.0]))
    assert thresholds.dtype == np.uint64
    assert thresholds.tolist() == [0, 0, 1 << 61, 1 << 63, 1 << 63]
    extreme = np.array([0, (1 << 63) - 1], dtype=np.uint64)  # every 63-bit coin
    assert (extreme < thresholds[3]).all() and not (extreme < thresholds[1]).any()


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
# and SUBSIM ran pack_samples(sample_many(...)).  ("lt", "bfs") is the
# scalar LTReverseWalkSampler and ("ic", "subsim") the scalar
# SubsimSampler: make_sampler returns the keyed kernels.  The "overlay"
# digests draw on an updated graph and were re-pinned once when its
# in-rows became rank-stable (a removed slot takes the row's last
# survivor); the other four did not move.
PARENT_STREAM_DIGESTS = {
    ("lt", "bfs", "wc"): "ab7671df140cf7d6",
    ("lt", "bfs", "nonuniform"): "c51957b66ce44b68",
    ("lt", "bfs", "overlay"): "708c591c728cfef1",
    ("ic", "subsim", "wc"): "fb7ce70346d46574",
    ("ic", "subsim", "nonuniform"): "1ca4d61cf4590cb0",
    ("ic", "subsim", "overlay"): "a4ca791ecd801d14",
}


def stream_graph(layout):
    wc = weighted_cascade(erdos_renyi(200, 1200, np.random.default_rng(7)))  # small_wc_graph
    return {"wc": wc, "nonuniform": nonuniform_graph(), "overlay": overlaid(wc)}[layout]


@pytest.mark.parametrize("case", sorted(PARENT_STREAM_DIGESTS), ids="-".join)
def test_stream_sample_batch_is_the_parents(case):
    model, method, layout = case
    graph = stream_graph(layout)
    sampler = LTReverseWalkSampler(graph) if model == "lt" else SubsimSampler(graph)
    rng = np.random.default_rng(3)
    batch = sampler.sample_batch(rng, 400)
    assert digest(batch) == PARENT_STREAM_DIGESTS[case]
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


@pytest.mark.parametrize("executor", ["multiprocessing:2", "socket:2"])
def test_targeted_pool_draws_on_its_workers(small_wc_graph, executor):
    """A targeted pool's top-ups are generation phases like any other
    pool's: the workers draw them, with the root set in the request, and
    the collections equal an in-process pool's byte for byte."""
    roots = ROOTS["targeted"]
    with SamplePool(small_wc_graph, 2, seed=13, roots=roots) as local, SamplePool(
        small_wc_graph, 2, seed=13, roots=roots, executor=executor
    ) as remote:
        for pool in (local, remote):
            pool.ensure("main", [150, 120])
            pool.ensure("main", [200, 260])
        assert remote.lifetime_metrics.wire_summary()["round_trips"] > 0
        for a, b in zip(local.stores("main"), remote.stores("main")):
            np.testing.assert_array_equal(a.nodes, b.nodes)
            np.testing.assert_array_equal(a.offsets, b.offsets)
            assert a.total_edges_examined == b.total_edges_examined
        # Rooted in the targets: the sets are the kernel's draws from them.
        kernel = make_sampler(small_wc_graph, "ic")
        for mid, store in enumerate(local.stores("main")):
            batch = sample_set_range(kernel, 13, mid, range(store.num_sets), "main", roots)
            assert np.isin(batch.roots, roots).all()
            np.testing.assert_array_equal(store.nodes[: batch.offsets[-1]], batch.nodes)


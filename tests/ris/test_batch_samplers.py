"""Differential tests for the batched flat samplers.

Pins the central contract of the batch-generation path: for every
sampler, ``sample_batch(rng, count)`` is *bit-identical* to
``pack_samples(sample_many(count, rng))`` under the same RNG stream —
same nodes, same offsets, same roots, same per-set work counts, and the
generator ends in the same state.  The optimized batch implementations
may reorganize bookkeeping but must never touch the RNG differently.
"""

import hashlib

import numpy as np
import pytest

from repro.diffusion import ICTriggering, LTTriggering
from repro.graphs import DirectedGraph, GraphBuilder, erdos_renyi, weighted_cascade
from repro.ris import (
    FlatRRCollection,
    SubsimSampler,
    TriggeringRRSampler,
    VectorizedICSampler,
    append_batch,
    make_collection,
    make_sampler,
)
from repro.ris.rrset import (
    concat_batches,
    pack_samples,
    sample_set_range,
    set_keys,
)
from repro.ris import vectorized
from repro.ris.stats import RRSetStatistics
from repro.ris.vectorized import _mix_tail
from tests.oracle import RRCollection

SAMPLER_SPECS = [
    ("ic", "bfs"),
    ("ic", "subsim"),
    ("lt", "bfs"),
    ("triggering-ic", None),
    ("triggering-lt", None),
]
SPEC_IDS = [spec[0] if spec[1] in (None, "bfs") else "ic-subsim" for spec in SAMPLER_SPECS]

# Samplers that share a _visited scratch array across draws (all of them:
# LT "bfs" is the keyed walk kernel).
SCRATCH_SPECS = SAMPLER_SPECS
SCRATCH_IDS = SPEC_IDS


def build(spec, graph):
    model, method = spec
    if model == "triggering-ic":
        return TriggeringRRSampler(graph, ICTriggering())
    if model == "triggering-lt":
        return TriggeringRRSampler(graph, LTTriggering())
    if method == "subsim":  # the scalar reference: make_sampler's is the kernel
        return SubsimSampler(graph)
    return make_sampler(graph, model=model, method=method)


def is_keyed(sampler):
    return hasattr(sampler, "sample_keys")


def assert_batches_equal(batch, reference):
    np.testing.assert_array_equal(batch.nodes, reference.nodes)
    np.testing.assert_array_equal(batch.offsets, reference.offsets)
    np.testing.assert_array_equal(batch.roots, reference.roots)
    np.testing.assert_array_equal(batch.edges_examined, reference.edges_examined)
    assert batch.nodes.dtype == np.int32
    assert batch.offsets.dtype == np.int64


class TestBitIdentity:
    @pytest.mark.parametrize("spec", SAMPLER_SPECS, ids=SPEC_IDS)
    @pytest.mark.parametrize("seed", [0, 1, 2022])
    def test_batch_equals_per_set_reference(self, small_wc_graph, spec, seed):
        sampler = build(spec, small_wc_graph)
        rng_batch = np.random.default_rng(seed)
        rng_ref = np.random.default_rng(seed)

        batch = sampler.sample_batch(rng_batch, 150)
        reference = pack_samples(sampler.sample_many(150, rng_ref))

        assert_batches_equal(batch, reference)
        # Not just the same draws: the same *number* of draws, so a
        # batch-generated stream can be continued per-set and vice versa.
        assert rng_batch.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("spec", SAMPLER_SPECS, ids=SPEC_IDS)
    def test_streams_interleave(self, small_wc_graph, spec):
        """batch(30)+batch(20) == per-set(50): no per-call RNG setup."""
        sampler = build(spec, small_wc_graph)
        rng_batch = np.random.default_rng(7)
        rng_ref = np.random.default_rng(7)

        first = sampler.sample_batch(rng_batch, 30)
        second = sampler.sample_batch(rng_batch, 20)
        reference = pack_samples(sampler.sample_many(50, rng_ref))

        stitched_nodes = np.concatenate([first.nodes, second.nodes])
        np.testing.assert_array_equal(stitched_nodes, reference.nodes)
        np.testing.assert_array_equal(
            np.concatenate([first.roots, second.roots]), reference.roots
        )
        assert rng_batch.bit_generator.state == rng_ref.bit_generator.state

    @pytest.mark.parametrize("spec", SAMPLER_SPECS, ids=SPEC_IDS)
    def test_empty_batch(self, small_wc_graph, spec):
        sampler = build(spec, small_wc_graph)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        batch = sampler.sample_batch(rng, 0)
        assert batch.count == 0
        assert batch.nodes.size == 0
        assert batch.offsets.tolist() == [0]
        assert batch.roots.size == 0 and batch.edges_examined.size == 0
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("spec", SAMPLER_SPECS, ids=SPEC_IDS)
    def test_negative_count_rejected(self, small_wc_graph, spec):
        sampler = build(spec, small_wc_graph)
        with pytest.raises(ValueError, match=">= 0"):
            sampler.sample_batch(np.random.default_rng(0), -1)

    @pytest.mark.parametrize("spec", SAMPLER_SPECS, ids=SPEC_IDS)
    def test_sets_are_sorted_unique_and_contain_root(self, small_wc_graph, spec):
        sampler = build(spec, small_wc_graph)
        batch = sampler.sample_batch(np.random.default_rng(3), 80)
        for i in range(batch.count):
            nodes = batch.nodes[batch.offsets[i] : batch.offsets[i + 1]]
            assert nodes.size > 0
            assert (np.diff(nodes) > 0).all()  # strictly increasing
            assert batch.roots[i] in nodes


class TestCollectionIntegration:
    def test_append_batch_equals_extend(self, small_wc_graph):
        sampler = make_sampler(small_wc_graph, model="ic", method="bfs")
        rng_a = np.random.default_rng(5)
        rng_b = np.random.default_rng(5)

        via_batch = FlatRRCollection(small_wc_graph.num_nodes)
        append_batch(via_batch, sampler.sample_batch(rng_a, 60))
        via_extend = FlatRRCollection(small_wc_graph.num_nodes)
        via_extend.extend(sampler.sample_many(60, rng_b))

        assert via_batch.num_sets == via_extend.num_sets == 60
        assert via_batch.total_edges_examined == via_extend.total_edges_examined
        for i in range(60):
            np.testing.assert_array_equal(via_batch.get(i), via_extend.get(i))

    def test_append_batch_into_reference_collection(self, small_wc_graph):
        sampler = make_sampler(small_wc_graph, model="lt")
        rng_a = np.random.default_rng(9)
        rng_b = np.random.default_rng(9)

        reference = RRCollection(small_wc_graph.num_nodes)
        append_batch(reference, sampler.sample_batch(rng_a, 40))
        flat = make_collection(small_wc_graph.num_nodes, "flat")
        append_batch(flat, sampler.sample_batch(rng_b, 40))

        assert reference.num_sets == flat.num_sets == 40
        assert reference.total_edges_examined == flat.total_edges_examined
        for i in range(40):
            np.testing.assert_array_equal(reference.get(i), flat.get(i))

    def test_statistics_from_batch(self, small_wc_graph):
        sampler = make_sampler(small_wc_graph, model="ic")
        rng_a = np.random.default_rng(13)
        rng_b = np.random.default_rng(13)

        from_batch = RRSetStatistics.from_batch(sampler.sample_batch(rng_a, 100))
        from_samples = RRSetStatistics.from_samples(sampler.sample_many(100, rng_b))
        assert from_batch == from_samples


class _FlakyRNG:
    """Proxy that raises after a set number of RNG calls, mid-BFS."""

    def __init__(self, inner, fail_after):
        self._inner = inner
        self._fail_after = fail_after
        self._calls = [0]

    def __getattr__(self, name):
        target = getattr(self._inner, name)
        return _failing(target, self._fail_after, self._calls) if callable(target) else target


def _failing(target, fail_after, calls=None):
    """``target``, raising once it has been called ``fail_after`` times."""
    calls = [0] if calls is None else calls

    def wrapped(*args, **kwargs):
        calls[0] += 1
        if calls[0] > fail_after:
            raise RuntimeError("injected RNG failure")
        return target(*args, **kwargs)

    return wrapped


class TestScratchStateLeak:
    """A draw that dies mid-BFS must not poison the next draw.

    The samplers share one ``_visited`` scratch array across draws and
    normally reset only the touched entries; after an exception the
    touched set is unknown, so the next draw must fall back to a full
    reset (the ``_scratch_dirty`` flag).  A keyed kernel calls its RNG
    once per draw, before any wave: it is failed in its hash
    (``_mix_tail``, called every wave).
    """

    @pytest.mark.parametrize("spec", SCRATCH_SPECS, ids=SCRATCH_IDS)
    @pytest.mark.parametrize("api", ["sample", "sample_batch"])
    def test_draws_after_midway_failure_are_clean(self, small_wc_graph, spec, api, monkeypatch):
        sampler = build(spec, small_wc_graph)
        # Warm up, then kill a draw partway through its RNG usage.
        sampler.sample_many(5, np.random.default_rng(1))
        failed = 0
        for fail_after in (0, 1, 2, 3):
            flaky = np.random.default_rng(2)
            if is_keyed(sampler):
                monkeypatch.setattr(vectorized, "_mix_tail", _failing(_mix_tail, fail_after))
            else:
                flaky = _FlakyRNG(flaky, fail_after)
            try:
                if api == "sample":
                    sampler.sample(flaky)
                else:
                    sampler.sample_batch(flaky, 10)
            except RuntimeError:
                failed += 1
            else:
                continue  # draw finished before the injected failure
            finally:
                monkeypatch.undo()
            # Every subsequent draw must match a pristine sampler's.
            fresh = build(spec, small_wc_graph)
            rng_dirty = np.random.default_rng(40 + fail_after)
            rng_fresh = np.random.default_rng(40 + fail_after)
            assert_batches_equal(
                sampler.sample_batch(rng_dirty, 25),
                fresh.sample_batch(rng_fresh, 25),
            )
            assert rng_dirty.bit_generator.state == rng_fresh.bit_generator.state
        assert failed

    def test_scratch_clean_after_successful_draws(self, small_wc_graph):
        for spec in SCRATCH_SPECS:
            sampler = build(spec, small_wc_graph)
            sampler.sample_batch(np.random.default_rng(0), 20)
            assert not sampler._visited.any()


def per_set_oracle(sampler, seed, machine_id, ids, key="main"):
    """One draw per set id, each alone, from the set's own key."""
    return concat_batches(
        [sampler.sample_keys(set_keys(seed, machine_id, [int(i)], key)) for i in ids]
    )


def random_ic_graph(seed, probabilities):
    rng = np.random.default_rng(seed)
    graph = erdos_renyi(int(rng.integers(40, 160)), int(rng.integers(100, 900)), rng)
    if probabilities == "weighted-cascade":
        return weighted_cascade(graph)
    src, dst, _ = graph.edge_arrays()
    if probabilities == "dense":  # most coins succeed: long, wide waves
        probs = np.full(src.size, 0.9)
    else:  # per-edge probabilities, off the uniform-per-node fast path
        probs = rng.uniform(0.02, 0.7, size=src.size)
    return DirectedGraph(graph.num_nodes, src, dst, probs)


def id_sets(block, rng):
    scattered = np.sort(rng.choice(5000, size=37, replace=False))
    return {
        "empty": [],
        "one": [17],
        "contiguous": range(40, 95),
        "scattered": scattered,
        "block-1": range(3, 3 + block - 1),
        "block": range(block),
        "block+1": range(9, 9 + block + 1),
        "shuffled": rng.permutation(scattered),
    }


class TestSampleSets:
    """``sample_set_range`` — every per-set draw's entry point — equals one
    draw per set on all four arrays, one key at a time; the scalar
    references take no keys and are drawn only through their own loop.
    """

    @pytest.mark.parametrize("probabilities", ["weighted-cascade", "nonuniform", "dense"])
    @pytest.mark.parametrize("graph_seed", [0, 1, 2])
    def test_blocked_ic_equals_scalar_loop(self, graph_seed, probabilities):
        graph = random_ic_graph(graph_seed, probabilities)
        sampler = make_sampler(graph, model="ic", method="bfs")
        empty = sampler.sample_keys([])
        assert empty.count == 0 and empty.offsets.tolist() == [0]
        assert (sampler._node_threshold is None) == (probabilities == "nonuniform")
        for name, ids in id_sets(sampler.block_size, np.random.default_rng(graph_seed)).items():
            batch = sample_set_range(sampler, 5, graph_seed, ids)
            assert_batches_equal(batch, per_set_oracle(sampler, 5, graph_seed, ids))
            assert batch.count == len(ids), name

    def test_dead_roots_and_first_wave_deaths(self):
        # Node 0 has no in-edge (a root there examines nothing); nodes
        # 1..5 have one in-edge that almost never fires (the set dies on
        # its first wave); 6..9 sit on a certain chain back to 5.
        edges = [(0, v, 1e-9) for v in range(1, 6)]
        edges += [(v - 1, v, 1.0) for v in range(6, 10)]
        graph = GraphBuilder.from_edges(edges, num_nodes=10)
        sampler = make_sampler(graph, model="ic", method="bfs")
        batch = sample_set_range(sampler, 2, 0, range(200))
        assert_batches_equal(batch, per_set_oracle(sampler, 2, 0, range(200)))
        sizes = np.diff(batch.offsets)
        assert ((sizes == 1) & (batch.edges_examined == 0)).any()
        assert ((sizes == 1) & (batch.edges_examined == 1)).any()
        assert (sizes > 3).any()

    def test_kernel_matches_at_any_block_size(self, small_wc_graph):
        default = make_sampler(small_wc_graph, model="ic", method="bfs")
        expected = per_set_oracle(default, 9, 1, range(70))
        keys = set_keys(9, 1, range(70))
        for block in (1, 2, 7, 64, 1024):
            kernel = VectorizedICSampler(small_wc_graph, block_size=block)
            assert_batches_equal(kernel.sample_keys(keys), expected)

    @pytest.mark.parametrize(
        "spec", [s for s in SAMPLER_SPECS if s != ("ic", "bfs")], ids=SPEC_IDS[1:]
    )
    def test_default_is_the_scalar_loop(self, small_wc_graph, spec):
        # SUBSIM and triggering are scalar references: their one batch
        # form is their own loop on a generator, and sample_set_range,
        # which hands out set keys, cannot draw them.  LT "bfs" is keyed.
        sampler = build(spec, small_wc_graph)
        assert is_keyed(sampler) == (spec == ("lt", "bfs"))
        ids = [0, 1, 2, 50, 7]
        if not is_keyed(sampler):
            assert_batches_equal(
                sampler.sample_batch(np.random.default_rng(4), 5),
                pack_samples(sampler.sample_many(5, np.random.default_rng(4))),
            )
            with pytest.raises(AttributeError, match="sample_keys"):
                sample_set_range(sampler, 4, 3, ids)
            return
        assert_batches_equal(
            sample_set_range(sampler, 4, 3, ids), per_set_oracle(sampler, 4, 3, ids)
        )
        assert sample_set_range(sampler, 4, 3, []).offsets.tolist() == [0]

    def test_negative_ids_rejected(self, small_wc_graph):
        sampler = make_sampler(small_wc_graph, model="ic", method="bfs")
        with pytest.raises(ValueError, match=">= 0"):
            sample_set_range(sampler, 1, 0, [4, -1, 6])

    def test_scratch_sized_by_the_draw_and_reused(self, small_wc_graph):
        n = small_wc_graph.num_nodes
        kernel = make_sampler(small_wc_graph, model="ic", method="bfs")
        sample_set_range(kernel, 1, 0, range(5))
        assert kernel._visited.size == 5 * n  # not a full block
        sample_set_range(kernel, 1, 0, range(3 * kernel.block_size))
        scratch = kernel._visited
        assert scratch.size == kernel.block_size * n and not scratch.any()
        sample_set_range(kernel, 1, 0, range(9))
        assert kernel._visited is scratch and not scratch.any()

    @pytest.mark.parametrize("fail_after", [0, 1, 3])
    def test_generator_raising_mid_block_does_not_poison_the_next_draw(
        self, small_wc_graph, fail_after, monkeypatch
    ):
        """A draw that raises some waves into a block (here: in the hash,
        the keyed kernel's only per-wave draw) leaves the next draw the
        bytes it would have had."""
        sampler = make_sampler(small_wc_graph, model="ic", method="bfs")
        expected = sample_set_range(sampler, 8, 0, range(60))  # warms the scratch
        monkeypatch.setattr(vectorized, "_mix_tail", _failing(_mix_tail, fail_after))
        with pytest.raises(RuntimeError, match="injected"):
            sample_set_range(sampler, 8, 0, range(60))
        monkeypatch.undo()
        assert_batches_equal(sample_set_range(sampler, 8, 0, range(60)), expected)
        assert not sampler._visited.any()


def test_vectorized_method_draws_the_bytes_it_always_did(small_wc_graph):
    """The keyed kernel's stream form, ``sample_batch(rng, 300)``, pinned
    on both coin paths (per-node and per-edge thresholds) and two block
    widths — equal, as a keyed set's bytes ignore the block.  Digests
    recorded when the coins became keyed (every draw's bytes moved then).
    """
    src, dst, _ = small_wc_graph.edge_arrays()
    probs = np.random.default_rng(3).uniform(0.05, 0.6, size=src.size)
    nonuniform = DirectedGraph(small_wc_graph.num_nodes, src, dst, probs)
    recorded = {
        ("wc", None): "6449842d81fcb46c",
        ("wc", 7): "6449842d81fcb46c",
        ("nonuniform", None): "3dc3447450924b6d",
        ("nonuniform", 7): "3dc3447450924b6d",
    }
    for (name, block), expected in recorded.items():
        graph = small_wc_graph if name == "wc" else nonuniform
        sampler = VectorizedICSampler(graph, block_size=block)
        batch = sampler.sample_batch(np.random.default_rng(11), 300)
        digest = hashlib.sha256()
        for array in batch:
            digest.update(np.ascontiguousarray(array).tobytes())
        assert digest.hexdigest()[:16] == expected, (name, block)

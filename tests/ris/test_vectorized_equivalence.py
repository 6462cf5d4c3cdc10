"""Equivalence suite for the vectorized frontier kernels.

Two layers of guarantees, mirroring ``repro.ris.vectorized``'s contract:

* **Bit-identity across block widths** — a keyed set's bytes are its
  key's, so the kernel at ``block_size=1`` (one set per block, the
  per-set path) draws exactly what the default block draws, and consumes
  the RNG identically (one 64-bit word per set).
* **Statistical equivalence against the generator-coin oracles** — the
  keyed coins differ bit-for-bit from
  :class:`~repro.ris.ic_sampler.ICReverseBFSSampler`'s and
  :class:`~repro.ris.lt_sampler.LTReverseWalkSampler`'s, so the kernels
  are certified distributionally with the fixed-seed harness in
  :mod:`tests.ris.equivalence` (per-root size/work KS tests, membership
  chi-square, spread agreement within Hoeffding bounds) on both
  executors.

Every test seeds its own generators; see the harness module docstring
for the suite's false-positive budget.
"""

import os

import numpy as np
import pytest

from repro.api import RunConfig, run
from repro.cluster import GeneratePhase, SimulatedCluster, make_executor
from repro.diffusion import ICTriggering, LTTriggering
from repro.ris import (
    FlatRRCollection,
    ICReverseBFSSampler,
    LTReverseWalkSampler,
    TriggeringRRSampler,
    VectorizedICSampler,
    VectorizedLTSampler,
    append_batch,
    make_sampler,
)
from repro.ris import vectorized
from repro.ris.rrset import pack_samples

from .equivalence import (
    assert_frequencies_match,
    assert_same_distribution,
    chi_square_gof,
    chi_square_homogeneity,
    hoeffding_epsilon,
    ks_two_sample,
    pool_small_bins,
)

# (id, reference-sampler factory, vectorized-sampler factory).  The odd
# block size exercises partial final blocks in every batch.  The
# triggering model's IC and LT distributions are the two kernels: the
# "triggering-*" pairs hold each kernel to the literal Definition 1
# sampler.
PAIRS = [
    ("ic", ICReverseBFSSampler, lambda g: VectorizedICSampler(g, block_size=96)),
    ("lt", LTReverseWalkSampler, lambda g: VectorizedLTSampler(g, block_size=96)),
    (
        "triggering-ic",
        lambda g: TriggeringRRSampler(g, ICTriggering()),
        lambda g: VectorizedICSampler(g, block_size=96),
    ),
    (
        "triggering-lt",
        lambda g: TriggeringRRSampler(g, LTTriggering()),
        lambda g: VectorizedLTSampler(g, block_size=96),
    ),
]
PAIR_IDS = [p[0] for p in PAIRS]


def set_sizes(batch) -> np.ndarray:
    return np.diff(batch.offsets)


class TestHarness:
    """Self-tests of the statistical machinery (no SciPy to lean on)."""

    def test_ks_accepts_identical_distributions(self):
        rng = np.random.default_rng(0)
        a, b = rng.poisson(9.0, size=4000), rng.poisson(9.0, size=4000)
        _, p = ks_two_sample(a, b)
        assert p > 0.01

    def test_ks_rejects_shifted_distributions(self):
        rng = np.random.default_rng(1)
        _, p = ks_two_sample(rng.poisson(9.0, 4000), rng.poisson(10.5, 4000))
        assert p < 1e-6

    def test_gamma_q_known_values(self):
        # chi2.sf(x, df) = Q(df/2, x/2); classic table entries.
        _, p = chi_square_gof([60, 40], [50, 50], min_expected=1)
        assert p == pytest.approx(0.0455, abs=2e-3)  # chi2=4, df=1

    def test_chi_square_homogeneity_accepts_and_rejects(self):
        rng = np.random.default_rng(2)
        probs = rng.dirichlet(np.ones(40))
        same_a = rng.multinomial(30000, probs)
        same_b = rng.multinomial(30000, probs)
        _, p_same = chi_square_homogeneity(same_a, same_b)
        other = rng.multinomial(30000, rng.dirichlet(np.ones(40)))
        _, p_diff = chi_square_homogeneity(same_a, other)
        assert p_same > 0.01 and p_diff < 1e-9

    def test_pool_small_bins(self):
        observed, expected = pool_small_bins([10, 1, 2, 30], [9.0, 2.0, 1.0, 31.0])
        assert observed.tolist() == [10, 30, 3]
        assert expected.tolist() == [9.0, 31.0, 3.0]

    def test_hoeffding_epsilon_shrinks_with_samples(self):
        assert hoeffding_epsilon(40000) < hoeffding_epsilon(10000) / 1.9
        with pytest.raises(ValueError):
            hoeffding_epsilon(0)


class TestBitIdentity:
    """A keyed set's bytes do not depend on the block it is drawn in."""

    @pytest.mark.parametrize("seed", [0, 1, 2022])
    def test_ic_block_one_matches_per_set_path(self, small_wc_graph, seed):
        reference = VectorizedICSampler(small_wc_graph)
        vectorized = VectorizedICSampler(small_wc_graph, block_size=1)
        rng_ref = np.random.default_rng(seed)
        rng_vec = np.random.default_rng(seed)

        expected = pack_samples(reference.sample_many(150, rng_ref))
        batch = vectorized.sample_batch(rng_vec, 150)

        np.testing.assert_array_equal(batch.nodes, expected.nodes)
        np.testing.assert_array_equal(batch.offsets, expected.offsets)
        np.testing.assert_array_equal(batch.roots, expected.roots)
        np.testing.assert_array_equal(batch.edges_examined, expected.edges_examined)
        assert batch.nodes.dtype == np.int32
        # Same draws AND the same number of draws.
        assert rng_vec.bit_generator.state == rng_ref.bit_generator.state

    def test_ic_block_one_streams_interleave(self, small_wc_graph):
        reference = VectorizedICSampler(small_wc_graph)
        vectorized = VectorizedICSampler(small_wc_graph, block_size=1)
        rng_ref = np.random.default_rng(7)
        rng_vec = np.random.default_rng(7)

        first = vectorized.sample_batch(rng_vec, 30)
        second = vectorized.sample_batch(rng_vec, 20)
        expected = reference.sample_batch(rng_ref, 50)

        np.testing.assert_array_equal(
            np.concatenate([first.nodes, second.nodes]), expected.nodes
        )
        np.testing.assert_array_equal(
            np.concatenate([first.roots, second.roots]), expected.roots
        )
        assert rng_vec.bit_generator.state == rng_ref.bit_generator.state

    def test_ic_single_sample_matches(self, small_wc_graph):
        reference = VectorizedICSampler(small_wc_graph)
        vectorized = VectorizedICSampler(small_wc_graph, block_size=1)
        for seed in range(5):
            a = reference.sample(np.random.default_rng(seed))
            b = vectorized.sample(np.random.default_rng(seed))
            assert a.root == b.root
            assert a.edges_examined == b.edges_examined
            np.testing.assert_array_equal(a.nodes, b.nodes)


class TestSamplerContract:
    """The vectorized samplers honor the shared RRSampler interface."""

    @pytest.mark.parametrize("pair", PAIRS, ids=PAIR_IDS)
    def test_sets_sorted_unique_and_contain_root(self, small_wc_graph, pair):
        _, __, build_vec = pair
        batch = build_vec(small_wc_graph).sample_batch(np.random.default_rng(3), 300)
        assert batch.count == 300
        for i in range(300):
            nodes = batch.nodes[batch.offsets[i] : batch.offsets[i + 1]]
            assert nodes.size > 0
            assert (np.diff(nodes) > 0).all()
            assert batch.roots[i] in nodes

    @pytest.mark.parametrize("pair", PAIRS, ids=PAIR_IDS)
    def test_empty_batch_and_negative_count(self, small_wc_graph, pair):
        _, __, build_vec = pair
        sampler = build_vec(small_wc_graph)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        batch = sampler.sample_batch(rng, 0)
        assert batch.count == 0 and batch.offsets.tolist() == [0]
        assert rng.bit_generator.state == before
        with pytest.raises(ValueError, match=">= 0"):
            sampler.sample_batch(rng, -1)

    @pytest.mark.parametrize("pair", PAIRS, ids=PAIR_IDS)
    def test_scratch_clean_after_draws(self, small_wc_graph, pair):
        _, __, build_vec = pair
        sampler = build_vec(small_wc_graph)
        sampler.sample_batch(np.random.default_rng(0), 150)
        scratch = getattr(sampler, "_kernel", sampler)._visited
        assert not scratch.any()

    def test_scratch_is_private_to_the_process(self, small_wc_graph):
        # The scratch is an anonymous mapping of its own; a shared one
        # (mmap's default) would show a forked worker's marks here.
        sampler = VectorizedICSampler(small_wc_graph)
        sampler.sample_batch(np.random.default_rng(0), 10)
        pid = os.fork()
        if pid == 0:
            sampler._visited[:] = True
            os._exit(0)
        os.waitpid(pid, 0)
        assert not sampler._visited.any()

    @pytest.mark.parametrize("pair", PAIRS, ids=PAIR_IDS)
    def test_failed_draw_does_not_poison_the_next(self, small_wc_graph, pair, monkeypatch):
        """A draw dying some waves in (its hash raises: the keyed kernels'
        only per-wave draw) leaves the next draw clean."""
        real = vectorized._mix_tail

        def failing(fail_after):
            calls = [0]

            def mix_tail(*args):
                calls[0] += 1
                if calls[0] > fail_after:
                    raise RuntimeError("injected failure")
                return real(*args)

            return mix_tail

        _, __, build_vec = pair
        sampler = build_vec(small_wc_graph)
        sampler.sample_batch(np.random.default_rng(1), 20)
        died = False
        for fail_after in (1, 2, 3):
            monkeypatch.setattr(vectorized, "_mix_tail", failing(fail_after))
            try:
                sampler.sample_batch(np.random.default_rng(2), 50)
            except RuntimeError:
                died = True
            finally:
                monkeypatch.undo()
            fresh = build_vec(small_wc_graph)
            rng_dirty = np.random.default_rng(40 + fail_after)
            rng_fresh = np.random.default_rng(40 + fail_after)
            dirty = sampler.sample_batch(rng_dirty, 60)
            clean = fresh.sample_batch(rng_fresh, 60)
            np.testing.assert_array_equal(dirty.nodes, clean.nodes)
            np.testing.assert_array_equal(dirty.offsets, clean.offsets)
            assert rng_dirty.bit_generator.state == rng_fresh.bit_generator.state
        assert died, "injected failures never fired mid-draw"

    def test_make_sampler_dispatch(self, small_wc_graph):
        assert isinstance(
            make_sampler(small_wc_graph, model="ic", method="vectorized"),
            VectorizedICSampler,
        )
        assert isinstance(
            make_sampler(small_wc_graph, model="lt", method="vectorized"),
            VectorizedLTSampler,
        )
        # ``method`` is a vestige: the three old names, ignored.
        with pytest.raises(ValueError, match="method must be one of"):
            make_sampler(small_wc_graph, model="ic", method="warp")
        with pytest.raises(ValueError, match="method must be one of"):
            make_sampler(small_wc_graph, model="lt", method="warp")
        assert isinstance(
            make_sampler(small_wc_graph, model="lt", method="subsim"), VectorizedLTSampler
        )

    def test_block_size_validated(self, small_wc_graph):
        with pytest.raises(ValueError, match="block_size"):
            VectorizedICSampler(small_wc_graph, block_size=0)

    def test_rooted_batch_validates_roots(self, small_wc_graph):
        sampler = VectorizedICSampler(small_wc_graph)
        with pytest.raises(ValueError, match="1-D"):
            sampler.sample_batch_rooted(np.random.default_rng(0), [[0, 1]])
        with pytest.raises(ValueError, match="lie in"):
            sampler.sample_batch_rooted(
                np.random.default_rng(0), [small_wc_graph.num_nodes]
            )


class TestSizeDistributions:
    """Per-root RR-set size and work (``w(R)``) distributions via KS."""

    SAMPLES = 2500

    def roots_of_interest(self, graph) -> list[int]:
        in_degrees = np.diff(graph.in_indptr)
        return [int(in_degrees.argmax()), int(in_degrees.argmin())]

    @pytest.mark.parametrize("pair", PAIRS, ids=PAIR_IDS)
    def test_per_root_sizes_and_work_match(self, small_wc_graph, pair):
        label, build_ref, build_vec = pair
        reference = build_ref(small_wc_graph)
        vectorized = build_vec(small_wc_graph)
        for root in self.roots_of_interest(small_wc_graph):
            rng_ref = np.random.default_rng(1000 + root)
            rng_vec = np.random.default_rng(2000 + root)
            ref_samples = [
                reference.sample(rng_ref, root=root) for _ in range(self.SAMPLES)
            ]
            batch = vectorized.sample_batch_rooted(
                rng_vec, np.full(self.SAMPLES, root, dtype=np.int64)
            )
            assert_same_distribution(
                [len(s) for s in ref_samples],
                set_sizes(batch),
                label=f"{label} sizes, root={root}",
            )
            assert_same_distribution(
                [s.edges_examined for s in ref_samples],
                batch.edges_examined,
                label=f"{label} w(R), root={root}",
            )

    @pytest.mark.parametrize("pair", PAIRS, ids=PAIR_IDS)
    def test_unconditional_sizes_match(self, small_wc_graph, pair):
        """Full sample_batch streams (roots drawn internally) agree."""
        label, build_ref, build_vec = pair
        ref = build_ref(small_wc_graph).sample_batch(
            np.random.default_rng(11), self.SAMPLES
        )
        vec = build_vec(small_wc_graph).sample_batch(
            np.random.default_rng(12), self.SAMPLES
        )
        assert_same_distribution(
            set_sizes(ref), set_sizes(vec), label=f"{label} unconditional sizes"
        )
        # Roots themselves must be uniform in both paths.
        assert_frequencies_match(
            np.bincount(ref.roots, minlength=small_wc_graph.num_nodes),
            np.bincount(vec.roots, minlength=small_wc_graph.num_nodes),
            label=f"{label} root frequencies",
        )


class TestMembershipFrequencies:
    """How often each node lands in an RR set: chi-square homogeneity."""

    SAMPLES = 5000

    @pytest.mark.parametrize("pair", PAIRS, ids=PAIR_IDS)
    def test_membership_counts_match(self, small_wc_graph, pair):
        label, build_ref, build_vec = pair
        n = small_wc_graph.num_nodes
        ref = build_ref(small_wc_graph).sample_batch(
            np.random.default_rng(21), self.SAMPLES
        )
        vec = build_vec(small_wc_graph).sample_batch(
            np.random.default_rng(22), self.SAMPLES
        )
        assert_frequencies_match(
            np.bincount(ref.nodes, minlength=n),
            np.bincount(vec.nodes, minlength=n),
            label=f"{label} membership",
        )


class TestSpreadAgreement:
    """Golden seed sets score the same spread within Hoeffding bounds."""

    SAMPLES = 8000

    def spread_fraction(self, graph, sampler, seeds, rng) -> float:
        store = FlatRRCollection(graph.num_nodes)
        append_batch(store, sampler.sample_batch(rng, self.SAMPLES))
        return store.coverage_of(seeds) / self.SAMPLES

    @pytest.mark.parametrize("pair", PAIRS, ids=PAIR_IDS)
    def test_golden_seeds_score_identically(self, small_wc_graph, pair):
        label, build_ref, build_vec = pair
        # Golden seed set: the top out-degree hubs — fixed, model-blind.
        seeds = np.argsort(np.diff(small_wc_graph.out_indptr))[-3:].tolist()
        frac_ref = self.spread_fraction(
            small_wc_graph, build_ref(small_wc_graph), seeds, np.random.default_rng(31)
        )
        frac_vec = self.spread_fraction(
            small_wc_graph, build_vec(small_wc_graph), seeds, np.random.default_rng(32)
        )
        # Each estimate is a mean of SAMPLES Bernoulli indicators; under
        # the null both concentrate on one expectation, so the gap is at
        # most the two epsilons combined.
        budget = 2 * hoeffding_epsilon(self.SAMPLES)
        assert abs(frac_ref - frac_vec) <= budget, (
            f"{label}: coverage fractions {frac_ref:.4f} vs {frac_vec:.4f} "
            f"differ by more than the Hoeffding budget {budget:.4f}"
        )


class TestExecutors:
    """The keyed kernels behave identically behind both executors."""

    @pytest.mark.parametrize("model", ["ic", "lt"])
    def test_executors_agree_bit_for_bit(self, small_wc_graph, model):
        """Simulated and multiprocessing produce identical collections."""
        snapshots = {}
        for name in ("simulated", "multiprocessing"):
            cluster = SimulatedCluster(2, seed=5)
            stores = [FlatRRCollection(small_wc_graph.num_nodes) for __ in range(2)]
            executor = make_executor(name, cluster, graph=small_wc_graph)
            try:
                executor.run_phase(
                    GeneratePhase(
                        "t/gen",
                        counts=(40, 25),
                        targets=stores,
                        model=model,
                        method="vectorized",
                    )
                )
                snapshots[name] = [
                    [store.get(j).tolist() for j in range(store.num_sets)] for store in stores
                ]
            finally:
                executor.close()
        assert snapshots["simulated"] == snapshots["multiprocessing"]

    @pytest.mark.parametrize("executor", ["simulated", "multiprocessing"])
    def test_vectorized_spread_agrees_with_bfs(self, small_wc_graph, executor):
        """End-to-end api.run: ``method`` is a vestige, so the "bfs" and
        "vectorized" runs are one run — same seeds, same spread."""
        results = {}
        for method in ("bfs", "vectorized"):
            config = RunConfig(
                graph=small_wc_graph,
                k=3,
                machines=2,
                eps=0.5,
                method=method,
                seed=0,
                executor=executor,
            )
            results[method] = run("diimm", config)
        assert results["bfs"].seeds == results["vectorized"].seeds
        assert results["bfs"].estimated_spread == results["vectorized"].estimated_spread

    def test_end_to_end_identical_across_executors(self, small_wc_graph):
        results = {
            name: run(
                "diimm",
                RunConfig(
                    graph=small_wc_graph,
                    k=4,
                    machines=3,
                    eps=0.6,
                    method="vectorized",
                    seed=11,
                    executor=name,
                ),
            )
            for name in ("simulated", "multiprocessing")
        }
        assert results["simulated"].seeds == results["multiprocessing"].seeds
        assert (
            results["simulated"].num_rr_sets == results["multiprocessing"].num_rr_sets
        )

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bayesblind import (
    BlockWeights,
    FiniteDistribution,
    Partition,
    accessible_brute_force,
    coarsest_partition,
    is_nontrivial,
    jc_apply,
    normalize,
    rigidity_holds,
)
from bayesblind.jeffrey import partitions
from bayesblind.errors import InputError
from helpers import (
    finite_from_rationals,
    random_dist,
    random_partition,
    random_positive_dist,
    random_weights,
    refines,
)
from reference import rigidity_by_masses

F = Fraction

P3 = finite_from_rationals([F(1, 2), F(1, 4), F(1, 4)])
UNIFORM3 = finite_from_rationals([F(1, 3), F(1, 3), F(1, 3)])


class TestPartition:
    def test_canonicalization(self):
        e = Partition.of([[3, 2], [1]])
        assert e.blocks == ((1,), (2, 3))

    def test_rejects_gap(self):
        with pytest.raises(InputError, match="without gaps"):
            Partition.of([[1], [3]])

    def test_rejects_overlap(self):
        with pytest.raises(InputError, match="appears in two blocks"):
            Partition.of([[1, 2], [2, 3]])

    @pytest.mark.parametrize("blocks, fragment", [
        pytest.param([[1], [], [2]], "empty partition block", id="empty-block"),
        pytest.param([[0], [1, 2]], "positive integers, got 0", id="index-zero"),
        pytest.param([[True], [2, 3]], "positive integers, got True", id="index-true"),
        pytest.param([["a"], [1, 2]], "positive integers, got 'a'", id="string-block"),
        pytest.param([[1, "a"]], "positive integers, got 'a'", id="string-index"),
    ])
    def test_rejects_bad_blocks(self, blocks, fragment):
        with pytest.raises(InputError, match=fragment):
            Partition.of(blocks)

    def test_json_roundtrip(self):
        e = Partition.of([[1], [2, 3]])
        assert Partition.from_json(e.to_json()) == e

    def test_refines(self):
        fine = Partition.of([[1], [2], [3, 4]])
        coarse = Partition.of([[1, 2], [3, 4]])
        assert refines(fine, coarse)
        assert not refines(coarse, fine)


class TestEnumeration:
    @pytest.mark.parametrize("n,bell", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52), (6, 203)])
    def test_bell_counts(self, n, bell):
        assert sum(1 for _ in partitions(n)) == bell

    @pytest.mark.parametrize("n", range(1, 8))
    def test_growth_strings_strictly_increase(self, n):
        def labels(e):
            return [k for i in range(1, n + 1) for k, b in enumerate(e.blocks) if i in b]

        strings = [labels(e) for e in partitions(n)]
        assert all(a < b for a, b in zip(strings, strings[1:]))

    def test_order_endpoints(self):
        all3 = list(partitions(3))
        assert all3[0] == Partition.of([[1, 2, 3]])
        assert all3[-1] == Partition.of([[1], [2], [3]])


class TestNontrivial:
    def test_trivial(self):
        assert not is_nontrivial(Partition.of([[1], [2], [3]]))

    def test_one_merged_block(self):
        assert is_nontrivial(Partition.of([[1], [2, 3]]))

    def test_single_block(self):
        assert is_nontrivial(Partition.of([[1, 2, 3]]))


class TestJcApply:
    def test_hand_evaluation(self):
        q = jc_apply(P3, Partition.of([[1], [2, 3]]), BlockWeights((F(1, 3), F(2, 3))))
        assert q == UNIFORM3

    def test_block_masses_preserved_means_identity(self):
        e = Partition.of([[1], [2, 3]])
        w = BlockWeights((F(1, 2), F(1, 2)))  # w_b = p(E_b)
        assert jc_apply(P3, e, w) == P3

    def test_trivial_partition_is_total_reassessment(self):
        e = Partition.of([[1], [2], [3]])
        w = BlockWeights((F(1, 6), F(1, 3), F(1, 2)))
        assert jc_apply(P3, e, w).probs == w.weights

    def test_weight_count_mismatch(self):
        with pytest.raises(InputError, match="weights for 2 blocks"):
            jc_apply(P3, Partition.of([[1], [2, 3]]), BlockWeights((F(1),)))

    def test_zero_prior_rejected(self):
        p = finite_from_rationals([F(1), F(0), F(0)])
        with pytest.raises(InputError, match="prior must be strictly positive"):
            jc_apply(p, Partition.of([[1], [2, 3]]), BlockWeights((F(1, 2), F(1, 2))))

    def test_weights_validated(self):
        with pytest.raises(InputError, match="block weights sum to"):
            BlockWeights((F(1, 2), F(1, 4)))


class TestRigidity:
    def test_holds(self):
        assert rigidity_holds(P3, UNIFORM3, Partition.of([[1], [2, 3]]))

    def test_identity(self):
        for e in partitions(3):
            assert rigidity_holds(P3, P3, e)

    def test_fails(self):
        q = finite_from_rationals([F(1, 4), F(1, 2), F(1, 4)])
        assert not rigidity_holds(P3, q, Partition.of([[1], [2, 3]]))

    def test_zero_posterior_block_skipped(self):
        q = finite_from_rationals([F(1), F(0), F(0)])
        assert rigidity_holds(P3, q, Partition.of([[1], [2, 3]]))

    @given(st.data())
    def test_matches_the_block_mass_oracle(self, data):
        """Random exact (p, q, E) with zero q entries and zero-mass blocks;
        half of the q are Jeffrey updates of p on E, so both verdicts occur."""
        n = data.draw(st.integers(2, 6))
        p = normalize(data.draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)))
        labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        e = Partition.of([i + 1 for i in range(n) if labels[i] == k] for k in set(labels))

        def masses(k):
            return data.draw(st.lists(st.integers(0, 3), min_size=k, max_size=k).filter(any))

        if data.draw(st.booleans()):
            q = normalize(masses(n))
        else:
            w = masses(len(e.blocks))
            q = jc_apply(p, e, BlockWeights(tuple(F(m, sum(w)) for m in w)))
        assert rigidity_holds(p, q, e) == rigidity_by_masses(p, q, e)


class TestRatioConstant:
    """The block-mass oracle that ``rigidity_holds`` is checked against."""

    def test_holds(self):
        assert rigidity_by_masses(P3, UNIFORM3, Partition.of([[1], [2, 3]]))

    def test_identity_any_partition(self):
        for e in partitions(3):
            assert rigidity_by_masses(P3, P3, e)

    def test_trivial_partition_always_true(self):
        q = finite_from_rationals([F(1, 4), F(1, 2), F(1, 4)])
        assert rigidity_by_masses(P3, q, Partition.of([[1], [2], [3]]))


#: an exact prior and a float posterior whose exact ratios are pairwise
#: distinct, though two of them round to the same float
MIXED_PRIOR = finite_from_rationals([F(49, 61), F(5, 61), F(7, 61)])
FLOAT_POSTERIOR = FiniteDistribution((0.12753451286971085, 0.013013725803031718,
                                      0.8594517613272574))


@pytest.mark.parametrize("check", [
    pytest.param(lambda p, q: rigidity_holds(p, q, Partition.of([[1, 2], [3]])), id="rigidity"),
    pytest.param(coarsest_partition, id="coarsest"),
    pytest.param(accessible_brute_force, id="brute"),
])
def test_float_inputs_refused(check):
    for p, q in ((MIXED_PRIOR, FLOAT_POSTERIOR), (FLOAT_POSTERIOR, MIXED_PRIOR)):
        with pytest.raises(InputError, match="needs exact-rational distributions"):
            check(p, q)


class TestCoarsest:
    def test_ratio_fibers(self):
        assert coarsest_partition(P3, UNIFORM3) == Partition.of([[1], [2, 3]])

    def test_identity(self):
        assert coarsest_partition(P3, P3) == Partition.of([[1, 2, 3]])

    def test_all_distinct_gives_trivial(self):
        q = finite_from_rationals([F(1, 2), F(3, 10), F(1, 5)])
        assert coarsest_partition(P3, q) == Partition.of([[1], [2], [3]])


class TestBruteForce:
    def test_identity_accessible(self):
        v = accessible_brute_force(P3, P3)
        assert v.accessible
        assert v.witness == Partition.of([[1, 2, 3]])

    def test_inaccessible(self):
        q = finite_from_rationals([F(1, 2), F(3, 10), F(1, 5)])
        assert not accessible_brute_force(P3, q).accessible

    def test_witness(self):
        v = accessible_brute_force(P3, UNIFORM3)
        assert v.accessible
        assert rigidity_holds(P3, UNIFORM3, v.witness)

    def test_too_large(self):
        p = random_positive_dist(random.Random(0), 9)
        with pytest.raises(InputError, match="brute force limited"):
            accessible_brute_force(p, p)


class TestEquivalence:
    def test_jc_output_satisfies_both_conditions(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(2, 6)
            p = random_positive_dist(rng, n)
            e = random_partition(rng, n)
            w = random_weights(rng, len(e.blocks))
            q = jc_apply(p, e, w)
            assert sum(q.probs) == 1
            assert rigidity_by_masses(p, q, e)
            assert rigidity_holds(p, q, e)

    def test_reconstruction_from_block_masses(self):
        rng = random.Random(12)
        for _ in range(60):
            n = rng.randint(2, 6)
            p = random_positive_dist(rng, n)
            e = random_partition(rng, n)
            q = jc_apply(p, e, random_weights(rng, len(e.blocks)))
            masses = BlockWeights(
                tuple(sum(q.value(i) for i in block) for block in e.blocks)
            )
            assert jc_apply(p, e, masses) == q

    def test_witness_blocks_inside_coarsest(self):
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(2, 5)
            p = random_positive_dist(rng, n)
            q = random_dist(rng, n)
            coarsest = coarsest_partition(p, q)
            for e in partitions(n):
                if rigidity_holds(p, q, e):
                    assert refines(e, coarsest)

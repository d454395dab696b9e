import random
from fractions import Fraction

import pytest

from bayesblind import (
    BlockWeights,
    Partition,
    accessible_brute_force,
    coarsest_partition,
    is_nontrivial,
    jc_apply,
    ratio_constant_on_blocks,
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


class TestRatioConstant:
    def test_holds(self):
        assert ratio_constant_on_blocks(P3, UNIFORM3, Partition.of([[1], [2, 3]]))

    def test_identity_any_partition(self):
        for e in partitions(3):
            assert ratio_constant_on_blocks(P3, P3, e)

    def test_trivial_partition_always_true(self):
        q = finite_from_rationals([F(1, 4), F(1, 2), F(1, 4)])
        assert ratio_constant_on_blocks(P3, q, Partition.of([[1], [2], [3]]))


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
        assert ratio_constant_on_blocks(P3, UNIFORM3, v.witness)

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
            assert rigidity_holds(p, q, e)
            assert ratio_constant_on_blocks(p, q, e)

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
                if ratio_constant_on_blocks(p, q, e):
                    assert refines(e, coarsest)

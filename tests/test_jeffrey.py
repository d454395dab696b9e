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
    jc_apply,
    normalize,
    rigidity_holds,
)
from bayesblind import jeffrey
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
import reference
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

    @pytest.mark.parametrize("obj", [
        pytest.param({"blocks": [[1], [2, 3]], "rest": "block"}, id="unknown-key"),
        pytest.param({}, id="no-blocks"),
        pytest.param([[1], [2, 3]], id="not-an-object"),
        pytest.param({"blocks": 5}, id="blocks-not-a-list"),
        pytest.param({"blocks": [1, 2]}, id="block-not-a-list"),
    ])
    def test_from_json_rejects_malformed_objects(self, obj):
        with pytest.raises(InputError):
            Partition.from_json(obj)

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
        def labels(blocks):
            return [k for i in range(1, n + 1) for k, b in enumerate(blocks) if i in b]

        strings = [labels(e) for e in partitions(n)]
        assert all(a < b for a, b in zip(strings, strings[1:]))

    def test_order_endpoints(self):
        all3 = list(partitions(3))
        assert all3[0] == ((1, 2, 3),)
        assert all3[-1] == ((1,), (2,), (3,))


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
        with pytest.raises(InputError, match=r"^prior has nonpositive component 0 at index 2$"):
            jc_apply(p, Partition.of([[1], [2, 3]]), BlockWeights((F(1, 2), F(1, 2))))

    def test_weights_validated(self):
        with pytest.raises(InputError, match="block weights sum to"):
            BlockWeights((F(1, 2), F(1, 4)))

    def test_negative_weight_rejected(self):
        """Weights that sum to 1 are still refused with a negative entry."""
        with pytest.raises(InputError, match="^negative block weight -1/2$"):
            BlockWeights((F(3, 2), F(-1, 2)))

    def test_partition_must_cover_the_vector(self):
        p = finite_from_rationals([F(1, 4)] * 4)
        with pytest.raises(InputError, match="^partition covers 3 indices, distribution has 4$"):
            jc_apply(p, Partition.of([[1], [2, 3]]), BlockWeights((F(1, 2), F(1, 2))))

    @given(st.data())
    def test_matches_the_fraction_oracle(self, data):
        """Random exact priors over mixed denominators, random partitions and
        weights with zero-weight blocks: the integer build equals the
        per-entry Fraction arithmetic it replaced, entry by entry."""
        n = data.draw(st.integers(2, 9))
        p = normalize([F(k, d) for k, d in data.draw(st.lists(
            st.tuples(st.integers(1, 40), st.integers(1, 12)), min_size=n, max_size=n))])
        labels = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        e = Partition.of([i + 1 for i in range(n) if labels[i] == k] for k in set(labels))
        w = data.draw(st.lists(st.integers(0, 5), min_size=len(e.blocks),
                               max_size=len(e.blocks)).filter(any))
        weights = BlockWeights(tuple(F(m, sum(w)) for m in w))
        got, expected = jc_apply(p, e, weights), reference.jc_apply(p, e, weights)
        assert got.probs == expected.probs
        assert all(type(v) is Fraction for v in got.probs)


class TestRigidity:
    def test_holds(self):
        assert rigidity_holds(P3, UNIFORM3, Partition.of([[1], [2, 3]]))

    def test_identity(self):
        for e in map(Partition, partitions(3)):
            assert rigidity_holds(P3, P3, e)

    def test_fails(self):
        q = finite_from_rationals([F(1, 4), F(1, 2), F(1, 4)])
        assert not rigidity_holds(P3, q, Partition.of([[1], [2, 3]]))

    def test_zero_posterior_block_skipped(self):
        q = finite_from_rationals([F(1), F(0), F(0)])
        assert rigidity_holds(P3, q, Partition.of([[1], [2, 3]]))

    def test_partition_must_cover_the_vector(self):
        with pytest.raises(InputError, match="^partition covers 2 indices, distribution has 3$"):
            rigidity_holds(P3, UNIFORM3, Partition.of([[1], [2]]))

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
        for e in map(Partition, partitions(3)):
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
        with pytest.raises(InputError, match="^Jeffrey conditioning requires an exact-rational"):
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
        """Distinct ratios: only the all-singletons partition is rigid, and brute
        force skips it as trivial (no fewer blocks than indices)."""
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

    def test_wraps_only_its_witness_in_a_partition(self, monkeypatch):
        """The 4140 partitions of {1..8} are scanned as block tuples: a blind-spot
        pair builds no ``Partition``, an accessible pair its witness alone."""
        built = []

        class Counted(Partition):  # declares no fields: Record reads Partition's
            __slots__ = ()

            def __init__(self, *values):
                built.append(values)
                super().__init__(*values)

        monkeypatch.setattr(jeffrey, "Partition", Counted)
        p = normalize([F(i) for i in range(1, 9)])
        blind = normalize([F(i * i) for i in range(1, 9)])  # q_i / p_i ~ i
        assert not accessible_brute_force(p, blind).accessible and built == []
        accessible = normalize([F(i * i) for i in range(1, 8)] + [F(56)])  # q_7/p_7 = q_8/p_8
        witness = accessible_brute_force(p, accessible).witness
        assert witness.blocks == ((1,), (2,), (3,), (4,), (5,), (6,), (7, 8))
        assert built == [(witness.blocks,)]


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
            for e in map(Partition, partitions(n)):
                if rigidity_holds(p, q, e):
                    assert refines(e, coarsest)

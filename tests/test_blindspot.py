import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bayesblind import (
    L1,
    BlockWeights,
    FiniteDistribution,
    Geometric,
    Partition,
    coarsest_partition,
    collision_count,
    densify,
    family_membership,
    geometric,
    generate_blindspot_member,
    geometric_witness,
    jc_apply,
    lp_distance,
    membership_finite,
    membership_prefix,
    normalize,
    rigidity_holds,
    truncate,
)
from bayesblind.blindspot import Verdict
from bayesblind.construct import generate_raw_sequence
from bayesblind.distributions import (
    TruncatedDistribution, dist_from_json, dist_to_json, require_priors,
)
from bayesblind.errors import InputError
from helpers import finite_from_rationals, random_dist, random_positive_dist

F = Fraction

P3 = finite_from_rationals([F(1, 2), F(1, 4), F(1, 4)])


class TestMembershipFinite:
    def test_distinct_ratios(self):
        q = finite_from_rationals([F(1, 2), F(3, 10), F(1, 5)])
        v = membership_finite(P3, q)
        assert v.distinct
        assert v.witness is None

    def test_identity_accessible(self):
        v = membership_finite(P3, P3)
        assert not v.distinct
        assert v.witness == (1, 2)
        assert v.coarsest == Partition.of([[1, 2, 3]])

    def test_zero_ratio_collision(self):
        q = finite_from_rationals([F(1), F(0), F(0)])
        v = membership_finite(P3, q)
        assert v.witness == (2, 3)

    def test_witness_self_certifying(self):
        rng = random.Random(21)
        for _ in range(100):
            n = rng.randint(2, 6)
            p = random_positive_dist(rng, n)
            q = random_dist(rng, n)
            v = membership_finite(p, q)
            assert v.coarsest == (coarsest_partition(p, q) if v.witness else None)
            prefix = membership_prefix(p, q, n)
            assert (prefix.distinct, prefix.witness) == (v.distinct, v.witness)
            if v.witness is not None:
                i, j = v.witness
                assert q.value(i) * p.value(j) == q.value(j) * p.value(i)

    def test_zero_prior(self):
        p = finite_from_rationals([F(1), F(0), F(0)])
        with pytest.raises(InputError, match="nonpositive component"):
            membership_finite(p, P3)

    def test_length_mismatch(self):
        with pytest.raises(InputError, match="lengths differ"):
            membership_finite(P3, finite_from_rationals([F(1, 2), F(1, 2)]))

    def test_float_prior_gets_the_full_verdict(self):
        p = FiniteDistribution((0.5, 0.25, 0.25))
        blind = finite_from_rationals([F(1, 2), F(3, 10), F(1, 5)])
        assert membership_finite(p, blind).distinct
        assert membership_finite(p, P3) == membership_finite(P3, P3)

    @pytest.mark.parametrize("other", [truncate(geometric(F(1, 2)), 3), geometric(F(1, 2))])
    def test_non_finite_input_needs_a_horizon(self, other):
        for p, q in ((P3, other), (other, P3)):
            with pytest.raises(InputError, match="need a horizon"):
                membership_finite(p, q)
            with pytest.raises(InputError, match="need a horizon"):
                collision_count(p, q)


#: float inputs with exactly distinct ratios that collide as float quotients:
#: two that round to one float, and two that overflow to inf
FLOAT_ARTEFACTS = [
    pytest.param(finite_from_rationals([F(49, 61), F(5, 61), F(7, 61)]),
                 FiniteDistribution((0.12753451286971085, 0.013013725803031718,
                                     0.8594517613272574)), id="rounding"),
    pytest.param(FiniteDistribution((1.0, 1e-320, 1e-320)),
                 FiniteDistribution((0.25, 0.5, 0.25)), id="overflow"),
]


@pytest.mark.parametrize("p, q", FLOAT_ARTEFACTS)
def test_float_quotient_artefacts_are_not_collisions(p, q):
    assert membership_finite(p, q) == Verdict(True, None, None, None)
    assert membership_prefix(p, q, 3) == Verdict(True, 3, None, None)
    assert collision_count(p, q) == 0


class TestMembershipPrefix:
    def test_geometric_vs_geometric_monotone_ratios(self):
        # ratios (4/3) * (2/3)^(i-1) are strictly decreasing, never equal
        p = geometric(F(1, 2))
        for n in (2, 8, 32, 64):
            q = truncate(geometric(F(1, 3)), n)
            v = membership_prefix(p, q, n)
            assert v.distinct and v.horizon == n

    def test_prior_prefix_collides_with_itself(self):
        p = geometric(F(1, 2))
        q = truncate(geometric(F(1, 2)), 8)
        v = membership_prefix(p, q, 8)
        assert not v.distinct
        assert v.witness == (1, 2)

    def test_constructed_collision(self):
        p = geometric(F(1, 2))
        base = truncate(geometric(F(1, 3)), 8)
        target = base.prefix[0] / p.value(1) * p.value(5)  # forces q_5/p_5 = q_1/p_1
        shift = base.prefix[4] - target
        prefix = list(base.prefix)
        prefix[4] = target
        prefix[1] = prefix[1] + shift  # rebalance on a large coordinate
        q = TruncatedDistribution(tuple(prefix), base.tail_mass)
        v = membership_prefix(p, q, 8)
        assert v.witness == (1, 5)

    def test_horizon_too_large(self):
        q = truncate(geometric(F(1, 3)), 8)
        with pytest.raises(InputError, match="exceeds available prefix length"):
            membership_prefix(geometric(F(1, 2)), q, 9)


class TestFamilyMembership:
    def test_singleton_reduces_to_finite(self):
        q = finite_from_rationals([F(1, 2), F(3, 10), F(1, 5)])
        fv = family_membership([P3], q)
        assert fv.member
        assert fv.verdicts[0].distinct

    def test_self_prior_not_member(self):
        fv = family_membership([P3], P3)
        assert not fv.member

    def test_monotone_in_family(self):
        rng = random.Random(22)
        for _ in range(40):
            n = rng.randint(2, 6)
            priors = [random_positive_dist(rng, n) for _ in range(3)]
            q = random_dist(rng, n)
            small = family_membership(priors[:1], q).member
            large = family_membership(priors, q).member
            assert not large or small  # BS(P') subset of BS(P) for P subset P'

    def test_prefix_mode(self):
        priors = [geometric(F(1, 2)), geometric(F(1, 3))]
        q = truncate(geometric(F(2, 5)), 16)
        fv = family_membership(priors, q, 16)
        assert all(v.horizon == 16 for v in fv.verdicts)

    @pytest.mark.parametrize("n", [None, 3])
    def test_empty_family_rejected(self, n):
        with pytest.raises(InputError, match="^prior family must be nonempty$"):
            family_membership([], P3, n)


class TestCollisionCount:
    def test_all_pairs(self):
        assert collision_count(P3, P3) == 3  # n(n-1)/2 with n = 3

    def test_distinct(self):
        q = finite_from_rationals([F(1, 2), F(3, 10), F(1, 5)])
        assert collision_count(P3, q) == 0

    def test_fiber_of_three(self):
        p = finite_from_rationals([F(1, 4)] * 4)
        q = finite_from_rationals([F(1, 5), F(1, 5), F(1, 5), F(2, 5)])
        assert collision_count(p, q) == 3  # C(3, 2) in the size-3 fiber

    def test_zero_iff_in_blind_spot(self):
        rng = random.Random(23)
        for _ in range(100):
            n = rng.randint(2, 6)
            p = random_positive_dist(rng, n)
            q = random_dist(rng, n)
            assert (collision_count(p, q) == 0) == membership_finite(p, q).distinct


def test_exact_scans_make_no_fraction_division(monkeypatch):
    """The ratio scans key positions by integer cross products of integer
    pairs, geometric prefixes included, and rigidity compares the same cross
    products; the generator, ``normalize`` and Jeffrey conditioning take
    shares, and the exact l1 distance and block weights sum integers, over one
    common denominator, and plain "a/b" text parses as two ints.  So the
    rational mode checks ratios without adding, subtracting, multiplying or
    dividing one Fraction, and decodes JSON without parsing a Fraction from
    text.  ``densify`` on a target whose ratios are already distinct nudges
    nothing, so it neither divides nor subtracts a Fraction."""
    rng = random.Random(24)
    p, q = random_positive_dist(rng, 12), random_dist(rng, 12)
    priors = [geometric(r) for r in (F(1, 2), F(2, 5), F(5, 7))]
    member = truncate(geometric(F(3, 8)), 24)
    e = Partition.of([[1, 2, 3], [4, 5], list(range(6, 13))])
    w = BlockWeights((F(1, 2), F(0), F(1, 2)))
    moved = jc_apply(p, e, BlockWeights((F(1, 2), F(1, 3), F(1, 6))))
    text = json.dumps(dist_to_json(q))
    calls = []

    def counted(name):
        operation = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name,
                            lambda a, b: calls.append(name) or operation(a, b))

    def counted_new(cls, numerator=0, denominator=None, **kwargs):
        if isinstance(numerator, str):
            calls.append("parse")
        return fraction_new(cls, numerator, denominator, **kwargs)

    arithmetic = [f"__{r}{op}__" for op in ("add", "sub", "mul", "truediv") for r in ("", "r")]
    for name in arithmetic:
        counted(name)
    fraction_new = Fraction.__new__
    monkeypatch.setattr(Fraction, "__new__", counted_new)
    half = F(1, 2)
    half + 1, 1 + half, half - 1, 1 - half, half * 2, 2 * half, half / 2, 2 / half, F("1/2")
    assert calls == arithmetic + ["parse"]  # the wrappers count
    calls.clear()
    membership_prefix(priors[0], member, 24)
    family_membership(priors, member, 24)
    family_membership([p], q)
    family_membership([p], p)  # accessible: builds the coarsest partition
    coarsest_partition(p, q)
    collision_count(p, q)
    collision_count(priors[1], member, 24)
    assert rigidity_holds(p, moved, e) and not rigidity_holds(p, q, e)
    generate_raw_sequence(priors, 24, seed=3)
    generate_blindspot_member(priors, 24, seed=3)
    assert jc_apply(p, e, w).probs[3:5] == (0, 0)
    assert lp_distance(p, q, L1) == lp_distance(q, p, L1) > 0
    assert dist_from_json(json.loads(text)) == q
    assert normalize([F(0), F(3, 8), F(1, 6), F(2)]).probs[0] == 0
    assert BlockWeights((F(1, 2), F(0), F(1, 3), F(1, 6))).weights[1] == 0
    assert calls == []
    target = generate_blindspot_member(priors, 24, seed=3)
    calls.clear()
    result = densify(priors[0], target, F(1, 2 ** 20))
    assert result.distribution == target and result.l1_upper == 0  # nothing was nudged
    assert [c for c in calls if "sub" in c or "truediv" in c] == []


class TestOverlongHorizon:
    """A horizon beyond a stored prefix is refused before any prefix is
    built, whichever side the stored input is on."""

    SHORT = TruncatedDistribution((F(1, 4), F(1, 8), F(1, 4), F(1, 8)), F(1, 4))

    @pytest.mark.parametrize("call", [
        pytest.param(lambda g, h, s: membership_prefix(g, s, 10 ** 6), id="geometric-prior"),
        pytest.param(lambda g, h, s: membership_prefix(s, g, 10 ** 6), id="stored-prior"),
        pytest.param(lambda g, h, s: family_membership([g, h], s, 10 ** 6), id="family"),
        pytest.param(lambda g, h, s: collision_count(g, s, 10 ** 6), id="collision-count"),
        pytest.param(lambda g, h, s: generate_raw_sequence([g, s], 10 ** 6, 1), id="generator"),
        pytest.param(lambda g, h, s: require_priors(10 ** 6, g, s), id="prior-guard"),
    ])
    def test_no_geometric_prefix_is_built(self, monkeypatch, call):
        def refuse(self, n):
            raise AssertionError(f"a geometric prefix of length {n} was built")

        monkeypatch.setattr(Geometric, "prefix_pairs", refuse)
        message = r"^horizon 1000000 exceeds available prefix length 4$"
        with pytest.raises(InputError, match=message):
            call(geometric(F(1, 3)), geometric(F(1, 2)), self.SHORT)


class TestGeometricWitness:
    """No representable posterior is in the blind spot of every rational
    geometric prior: the first strict descent names one that it is not in."""

    @given(st.lists(st.integers(0, 12), min_size=2, max_size=12).filter(any))
    def test_witness_collides_at_or_before_its_pair(self, weights):
        q = normalize([F(w) for w in weights])
        descents = [i for i in range(1, len(q)) if 0 < q.value(i + 1) < q.value(i)]
        witness = geometric_witness(q)
        if not descents:
            assert witness is None
            return
        r, pair = witness
        i = descents[0]
        assert pair == (i, i + 1) and r == q.value(i + 1) / q.value(i)
        verdict = membership_prefix(geometric(r), q, len(q))
        assert not verdict.distinct and verdict.witness <= pair

    def test_generated_family_member_is_caught(self):
        priors = [geometric(F(1, 3)), geometric(F(2, 5))]
        member = generate_blindspot_member(priors, 64, seed=1)
        assert family_membership(priors, member, 64).member
        r, pair = geometric_witness(member)
        verdict = membership_prefix(geometric(r), member, 64)
        assert not verdict.distinct and verdict.witness <= pair

    @pytest.mark.parametrize("q", [
        pytest.param(TruncatedDistribution((F(1, 8), F(1, 8), F(1, 4)), F(1, 2)), id="truncated"),
        pytest.param(FiniteDistribution((F(0), F(0), F(1, 3), F(2, 3))), id="zeros-first"),
        pytest.param(FiniteDistribution((0.25, 0.75)), id="float"),
    ])
    def test_nondecreasing_prefix_gives_none(self, q):
        assert geometric_witness(q) is None

    def test_float_descent_is_exact(self):
        assert geometric_witness(FiniteDistribution((0.75, 0.25))) == (F(1, 3), (1, 2))

    def test_geometric_input_refused(self):
        with pytest.raises(InputError, match="no stored prefix"):
            geometric_witness(geometric(F(1, 2)))

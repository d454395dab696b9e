import random
from fractions import Fraction

import pytest

from bayesblind import (
    FiniteDistribution,
    Partition,
    coarsest_partition,
    collision_count,
    family_membership,
    geometric,
    membership_finite,
    membership_prefix,
    truncate,
)
from bayesblind.blindspot import Verdict
from bayesblind.distributions import TruncatedDistribution
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
    assert membership_finite(p, q) == Verdict(True)
    assert membership_prefix(p, q, 3) == Verdict(True, 3)
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
    """The ratio scans key positions by integer cross products, so the
    rational mode checks ratios without building one quotient."""
    rng = random.Random(24)
    p, q = random_positive_dist(rng, 12), random_dist(rng, 12)
    priors = [geometric(r) for r in (F(1, 2), F(2, 5), F(5, 7))]
    member = truncate(geometric(F(3, 8)), 24)
    divisions = []

    def counted(name):
        divide = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name,
                            lambda a, b: divisions.append(name) or divide(a, b))

    counted("__truediv__")
    counted("__rtruediv__")
    assert F(1, 2) / 2 == F(1, 4) and divisions == ["__truediv__"]  # the wrapper counts
    divisions.clear()
    membership_prefix(priors[0], member, 24)
    family_membership(priors, member, 24)
    family_membership([p], q)
    family_membership([p], p)  # accessible: builds the coarsest partition
    coarsest_partition(p, q)
    collision_count(p, q)
    collision_count(priors[1], member, 24)
    assert divisions == []

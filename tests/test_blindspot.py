import random
from fractions import Fraction

import pytest

from bayesblind import (
    FiniteDistribution,
    Partition,
    coarsest_partition,
    collision_count,
    family_membership,
    finite_from_rationals,
    geometric,
    membership_finite,
    membership_prefix,
    truncate,
)
from bayesblind.distributions import TruncatedDistribution
from bayesblind.errors import HorizonTooLarge, LengthMismatch, ZeroPrior
from helpers import random_dist, random_positive_dist

F = Fraction

P3 = finite_from_rationals([F(1, 2), F(1, 4), F(1, 4)])


class TestMembershipFinite:
    def test_distinct_ratios(self):
        q = finite_from_rationals([F(1, 2), F(3, 10), F(1, 5)])
        v = membership_finite(P3, q)
        assert v.in_blind_spot
        assert v.witness is None

    def test_identity_accessible(self):
        v = membership_finite(P3, P3)
        assert not v.in_blind_spot
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
            if v.witness is not None:
                i, j = v.witness
                assert q.value(i) * p.value(j) == q.value(j) * p.value(i)

    def test_zero_prior(self):
        p = finite_from_rationals([F(1), F(0), F(0)])
        with pytest.raises(ZeroPrior):
            membership_finite(p, P3)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            membership_finite(P3, finite_from_rationals([F(1, 2), F(1, 2)]))

    def test_float_prior_needs_exactness_only_for_the_partition(self):
        p = FiniteDistribution((0.5, 0.25, 0.25))
        blind = finite_from_rationals([F(1, 2), F(3, 10), F(1, 5)])
        assert membership_finite(p, blind).in_blind_spot
        with pytest.raises(ZeroPrior):
            membership_finite(p, P3)

    @pytest.mark.parametrize("other", [truncate(geometric(F(1, 2)), 3), geometric(F(1, 2))])
    def test_non_finite_input_needs_a_horizon(self, other):
        for p, q in ((P3, other), (other, P3)):
            with pytest.raises(LengthMismatch):
                membership_finite(p, q)
            with pytest.raises(LengthMismatch):
                collision_count(p, q)


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
        assert v.collision == (1, 2)

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
        assert v.collision == (1, 5)

    def test_horizon_too_large(self):
        q = truncate(geometric(F(1, 3)), 8)
        with pytest.raises(HorizonTooLarge):
            membership_prefix(geometric(F(1, 2)), q, 9)


class TestFamilyMembership:
    def test_singleton_reduces_to_finite(self):
        q = finite_from_rationals([F(1, 2), F(3, 10), F(1, 5)])
        fv = family_membership([P3], q)
        assert fv.member
        assert fv.verdicts[0].in_blind_spot

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
            assert (collision_count(p, q) == 0) == membership_finite(p, q).in_blind_spot

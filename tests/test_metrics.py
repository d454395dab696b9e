import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from bayesblind import L1, L2, LINF, Norm, bounded_metric, geometric, lp_distance, truncate
from bayesblind.metrics import DistanceInterval, l1_upper_bound, parse_norm
from bayesblind import FiniteDistribution, TruncatedDistribution
from bayesblind.errors import InputError
from helpers import finite_from_rationals, random_dist
import reference

F = Fraction


def dist(*vals):
    return finite_from_rationals([F(v) for v in vals])


POINT = dist("1", "0", "0")
OTHER = dist("0", "1", "0")


class TestLpDistance:
    def test_identity(self):
        assert lp_distance(POINT, POINT, L1) == 0
        assert lp_distance(POINT, POINT, LINF) == 0

    def test_l1_swap(self):
        assert lp_distance(POINT, OTHER, L1) == 2

    def test_linf_swap(self):
        assert lp_distance(POINT, OTHER, LINF) == 1

    def test_l1_exact_type(self):
        assert isinstance(lp_distance(POINT, OTHER, L1), Fraction)

    def test_l2_float(self):
        t = lp_distance(POINT, OTHER, L2)
        assert abs(t - 2 ** 0.5) < 1e-12

    def test_large_p_does_not_underflow(self):
        """Gaps are scaled by the largest before the power: 0.5 ** 2000 alone is 0."""
        lp2000 = Norm(2000)
        t = lp_distance(dist("1/2", "1/2"), dist("1", "0"), lp2000)
        assert t == pytest.approx(2 ** (1 / 2000) / 2, rel=1e-12, abs=0)
        u = truncate(geometric(F(1, 2)), 8)
        v = truncate(geometric(F(1, 3)), 8)
        assert lp_distance(u, v, lp2000).lower > 0

    def test_length_mismatch(self):
        with pytest.raises(InputError, match="lengths differ"):
            lp_distance(POINT, dist("1/2", "1/2"), L1)

    def test_truncated_interval(self):
        u = truncate(geometric(F(1, 2)), 8)
        v = truncate(geometric(F(1, 3)), 8)
        t = lp_distance(u, v, L1)
        assert isinstance(t, DistanceInterval)
        assert t.lower <= t.upper
        assert t.upper - t.lower == u.tail_mass + v.tail_mass


class TestBoundedMetric:
    def test_identity(self):
        assert bounded_metric(POINT, POINT, L1) == 0

    def test_plug_in(self):
        assert bounded_metric(POINT, OTHER, L1) == F(2, 3)

    def test_below_one(self):
        rng = random.Random(0)
        for _ in range(50):
            u = random_dist(rng, 5)
            v = random_dist(rng, 5)
            assert bounded_metric(u, v, L1) < 1

    def test_monotone_in_base_distance(self):
        rng = random.Random(1)
        pairs = []
        for _ in range(30):
            u, v = random_dist(rng, 5), random_dist(rng, 5)
            pairs.append((lp_distance(u, v, L1), bounded_metric(u, v, L1)))
        pairs.sort()
        bounded = [b for _, b in pairs]
        assert bounded == sorted(bounded)


class TestMetricAxioms:
    def test_symmetry_and_triangle(self):
        rng = random.Random(2)
        norms = [L1, L2, LINF]
        for _ in range(100):
            u, v, w = (random_dist(rng, 6) for _ in range(3))
            for norm in norms:
                slack = 0 if norm.is_exact else 1e-12
                assert lp_distance(u, v, norm) == lp_distance(v, u, norm)
                assert lp_distance(u, w, norm) <= (
                    lp_distance(u, v, norm) + lp_distance(v, w, norm) + slack
                )
                assert bounded_metric(u, w, norm) <= (
                    bounded_metric(u, v, norm) + bounded_metric(v, w, norm) + slack
                )

    def test_norm_ordering(self):
        rng = random.Random(3)
        for _ in range(50):
            u, v = random_dist(rng, 6), random_dist(rng, 6)
            linf = lp_distance(u, v, LINF)
            l2 = lp_distance(u, v, L2)
            l1 = lp_distance(u, v, L1)
            assert float(linf) <= l2 + 1e-12
            assert l2 <= float(l1) + 1e-12


class TestNormParsing:
    @pytest.mark.parametrize("text", ["l1", "l2", "linf", "lp:3", "lp:3/2"])
    def test_roundtrip(self, text):
        assert str(parse_norm(text)) in (text, "l1", "l2", "linf", "lp:3", "lp:3/2")

    def test_p_below_one_rejected(self):
        with pytest.raises(InputError, match="lp norms require p"):
            Norm(F(1, 2))

    @pytest.mark.parametrize("p", [10**400, F(10**400, 3)])
    def test_p_beyond_the_float_range_rejected(self, p):
        with pytest.raises(InputError, match="lp norms require p to fit a float"):
            Norm(p)

    def test_unknown(self):
        with pytest.raises(InputError, match="unknown norm"):
            parse_norm("l0")

    @pytest.mark.parametrize("text", ["lp:x", "lp:1/0", "lp:"])
    def test_malformed_p_is_an_input_error(self, text):
        with pytest.raises(InputError, match="^not a rational: "):
            parse_norm(text)


def test_l1_upper_bound_scalar_and_interval():
    assert l1_upper_bound(POINT, OTHER) == 2
    u = truncate(geometric(F(1, 2)), 8)
    v = truncate(geometric(F(1, 3)), 8)
    assert l1_upper_bound(u, v) == lp_distance(u, v, L1).upper


#: nonnegative entries over mixed denominators, some of them floats
exact_entries = st.builds(F, st.integers(0, 30), st.integers(1, 16))
entries = st.one_of(exact_entries, exact_entries.map(float))


@given(st.data())
def test_l1_matches_the_fraction_oracle(data):
    """L1 over one common denominator equals the per-entry Fraction
    differences it replaced, in value and type, for finite and truncated
    pairs, exact or with float entries (which keep the float path)."""
    n = data.draw(st.integers(2, 10))
    values = st.lists(data.draw(st.sampled_from([exact_entries, entries])),
                      min_size=n + 1, max_size=n + 1).filter(lambda vs: any(vs[:n]))

    def draw():
        vs = data.draw(values)[:n + truncated]  # the last entry weighs the tail
        probs = tuple(v / sum(vs) for v in vs)
        return TruncatedDistribution(probs[:n], probs[n]) if truncated \
            else FiniteDistribution(probs)

    truncated = data.draw(st.booleans())
    u, v = draw(), draw()
    got, expected = lp_distance(u, v, L1), reference.l1_distance(u, v)
    assert type(got) is type(expected)
    if isinstance(got, DistanceInterval):
        got, expected = (got.lower, got.upper), (expected.lower, expected.upper)
    assert got == expected

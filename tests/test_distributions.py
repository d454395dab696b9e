import json
import math
import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bayesblind import (
    FiniteDistribution,
    TruncatedDistribution,
    geometric,
    normalize,
    truncate,
)
from bayesblind import distributions
from bayesblind.distributions import (
    Distribution,
    RatioIndex,
    _ratio,
    dist_from_json,
    dist_to_json,
    exact_sum,
    format_rational,
    parse_rational,
    require_finite,
    require_priors,
    require_stored,
    shares,
)
from bayesblind.errors import InputError
from bayesblind.records import setfield
from helpers import finite_from_rationals
import reference
from reference import ratio_profile

F = Fraction


class TestFiniteFromRationals:
    def test_valid(self):
        d = finite_from_rationals([F(1, 2), F(1, 4), F(1, 4)])
        assert d.probs == (F(1, 2), F(1, 4), F(1, 4))

    def test_not_normalized(self):
        with pytest.raises(InputError, match="entries sum to"):
            finite_from_rationals([F(1, 2), F(1, 2), F(1, 4)])

    def test_sum_message_names_the_reduced_total(self):
        with pytest.raises(InputError, match="^entries sum to 3/2, not 1$"):
            finite_from_rationals([F(1, 2), F(1, 4), F(3, 4)])

    def test_point_mass_allowed(self):
        d = finite_from_rationals([F(1), F(0), F(0)])
        assert d.value(1) == 1

    def test_negative_entry(self):
        with pytest.raises(InputError, match="negative probability entry"):
            finite_from_rationals([F(3, 2), F(-1, 2)])

    def test_too_short(self):
        with pytest.raises(InputError, match="at least 2 components"):
            finite_from_rationals([F(1)])


class TestNormalize:
    def test_integers(self):
        assert normalize([F(1), F(1), F(2)]).probs == (F(1, 4), F(1, 4), F(1, 2))

    def test_already_proportional(self):
        assert normalize([F(1, 2), F(1, 2)]).probs == (F(1, 2), F(1, 2))

    def test_hand_normalization(self):
        # sum = 23/32
        d = normalize([F(1, 2), F(1, 8), F(1, 16), F(1, 32)])
        assert d.probs == (F(16, 23), F(4, 23), F(2, 23), F(1, 23))

    def test_all_zero(self):
        with pytest.raises(InputError, match="zero vector"):
            normalize([F(0), F(0)])

    @given(st.lists(st.fractions(min_value=0, max_value=50), min_size=2, max_size=8))
    def test_idempotent(self, values):
        if not any(values):
            return
        once = normalize(values)
        assert normalize(once.probs).probs == once.probs


def outcome(fn, *args):
    """What fn returns, or the type and message of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # compared, never swallowed
        return type(exc), str(exc)


class TestShares:
    """``shares`` and ``normalize`` match the division forms they replace."""

    @given(st.lists(st.tuples(st.integers(0, 10 ** 9), st.integers(1, 10 ** 9)),
                    min_size=1, max_size=12).filter(lambda ps: any(a for a, _ in ps)),
           st.integers(0, 60), st.integers(1, 60))
    def test_matches_the_division_form(self, pairs, u, v):
        total = sum(F(a, b) for a, b in pairs)
        got = shares(pairs, u, v)
        assert got == tuple(F(u, v) * F(a, b) / total for a, b in pairs)
        assert all(type(x) is F for x in got)

    @given(st.lists(st.one_of(st.fractions(min_value=-2, max_value=50), st.just(F(0)),
                              st.integers(0, 9)), max_size=8))
    def test_normalize_matches_the_division_oracle(self, values):
        got, expected = outcome(normalize, values), outcome(reference.normalize, values)
        if isinstance(expected, FiniteDistribution):
            assert [v.as_integer_ratio() for v in got.probs] == [
                v.as_integer_ratio() for v in expected.probs]
            assert got.is_exact and got.tail_mass == 0 and type(got.tail_mass) is F
        else:
            assert got == expected


def test_exactness_is_decided_at_validation(monkeypatch):
    """Building a distribution scans its entries for exactness once, in
    validation; reading ``is_exact`` and a finite vector's ``tail_mass``
    scans nothing."""
    calls = []
    is_exact = distributions._is_exact
    monkeypatch.setattr(distributions, "_is_exact", lambda vs: calls.append(1) or is_exact(vs))
    cases = [
        (FiniteDistribution, ((F(1, 2), F(1, 4), F(1, 4)),), True, F(0)),
        (FiniteDistribution, ((0.5, 0.25, 0.25),), False, 0.0),
        (FiniteDistribution, ((F(1, 2), 0.25, F(1, 4)),), False, 0.0),
        (TruncatedDistribution, ((F(1, 2), F(1, 4)), F(1, 4)), True, F(1, 4)),
        (TruncatedDistribution, ((0.5, 0.25), 0.25), False, 0.25),
        (TruncatedDistribution, ((F(1, 2), F(1, 4)), 0.25), False, 0.25),
        (TruncatedDistribution, ((F(1, 2), F(1, 2)), 0), False, 0),
    ]
    for kind, args, exact, tail in cases:
        calls.clear()
        d = kind(*args)
        assert calls == [1], args  # one scan per construction
        for _ in range(100):
            assert d.is_exact is exact
            assert d.tail_mass == tail and type(d.tail_mass) is type(tail)
        assert calls == [1]
    assert geometric(F(1, 3)).is_exact is True


class TestGeometric:
    def test_half(self):
        g = geometric(F(1, 2))
        assert g.prefix_values(4) == (F(1, 2), F(1, 4), F(1, 8), F(1, 16))
        assert g.tail_after(4) == F(1, 16)

    def test_third(self):
        g = geometric(F(1, 3))
        assert g.value(1) == F(2, 3)
        assert g.value(2) == F(2, 9)

    @settings(deadline=None)
    @given(st.integers(2, 2**80).flatmap(lambda b: st.tuples(st.integers(1, b - 1), st.just(b))),
           st.integers(1, 300))
    def test_prefix_pairs_are_the_terms_in_lowest_terms(self, ab, n):
        """The running integer products ((b - a) a^(i-1), b^i) are the terms
        (1 - r) r^(i-1) already reduced, and prefix_values is their Fraction view;
        value(i) is each term and tail_after(n) the Fraction r^n."""
        r = F(*ab)
        g = geometric(r)
        got, expected = g.prefix_pairs(n), reference.geometric_prefix(r, n)
        assert got == tuple(v.as_integer_ratio() for v in expected)
        assert all(y > 0 and math.gcd(x, y) == 1 for x, y in got)
        assert F(*got[-1]) == (1 - r) * r ** (n - 1) == g.value(n)
        assert g.prefix_values(n) == expected
        assert tuple(g.value(i) for i in range(1, n + 1)) == expected
        tail = g.tail_after(n)
        assert tail == r ** n == 1 - sum(expected) and type(tail) is F

    def test_boundary(self):
        with pytest.raises(InputError, match="geometric ratio must lie in"):
            geometric(F(1))
        with pytest.raises(InputError, match="geometric ratio must lie in"):
            geometric(F(0))


class TestTruncate:
    def test_small(self):
        t = truncate(geometric(F(1, 2)), 3)
        assert t.prefix == (F(1, 2), F(1, 4), F(1, 8))
        assert t.tail_mass == F(1, 8)

    def test_closed_form_tail(self):
        t = truncate(geometric(F(1, 2)), 64)
        assert t.tail_mass == F(1, 2 ** 64)

    def test_horizon_too_small(self):
        with pytest.raises(InputError, match="at least 2 components"):
            truncate(geometric(F(1, 2)), 1)

    def test_mass_exact_on_grid(self):
        for r in (F(1, 2), F(1, 3), F(2, 5), F(9, 10)):
            g = geometric(r)
            for n in (2, 17, 64, 256):
                t = truncate(g, n)
                assert sum(t.prefix) + t.tail_mass == 1


class TestRatioProfile:
    def test_hand_division(self):
        p = finite_from_rationals([F(1, 2), F(1, 4), F(1, 4)])
        q = finite_from_rationals([F(1, 3), F(1, 3), F(1, 3)])
        assert ratio_profile(q, p) == (F(2, 3), F(4, 3), F(4, 3))

    def test_identity(self):
        p = finite_from_rationals([F(1, 2), F(1, 4), F(1, 4)])
        assert ratio_profile(p, p) == (F(1), F(1), F(1))

    def test_zeros_divide(self):
        p = finite_from_rationals([F(1, 2), F(1, 4), F(1, 4)])
        q = finite_from_rationals([F(1), F(0), F(0)])
        assert ratio_profile(q, p) == (F(2), F(0), F(0))

    def test_zero_prior(self):
        p = finite_from_rationals([F(1), F(0), F(0)])
        q = finite_from_rationals([F(1, 3), F(1, 3), F(1, 3)])
        with pytest.raises(InputError, match="nonpositive component"):
            ratio_profile(q, p)

    def test_length_mismatch(self):
        p = finite_from_rationals([F(1, 2), F(1, 2)])
        q = finite_from_rationals([F(1, 3), F(1, 3), F(1, 3)])
        with pytest.raises(InputError, match="lengths differ"):
            ratio_profile(q, p)

    @pytest.mark.parametrize("n", [0, -1])
    def test_horizon_below_one(self, n):
        p = geometric(F(1, 2))
        with pytest.raises(InputError, match="horizon must be at least 1"):
            ratio_profile(p, p, n)

    def test_truncated_needs_horizon(self):
        p = TruncatedDistribution((F(1, 2), F(1, 4)), F(1, 4))
        q = TruncatedDistribution((F(1, 4), F(1, 2)), F(1, 4))
        with pytest.raises(InputError, match="need a horizon"):
            ratio_profile(q, p)
        assert ratio_profile(q, p, 2) == (F(1, 2), F(2))

    def test_multiply_back_recovers_posterior(self):
        rng = random.Random(5)
        for _ in range(50):
            n = rng.randint(2, 7)
            p = normalize([F(rng.randint(1, 9)) for _ in range(n)])
            q = normalize([F(rng.randint(1, 9)) for _ in range(n)])
            rp = ratio_profile(q, p)
            assert tuple(r * pv for r, pv in zip(rp, p.probs)) == q.probs


def brute_fibres(same, n) -> tuple:
    """O(n^2) scan: the first colliding pair and the equal-ratio blocks."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if same(i, j)]
    blocks = []
    for i in range(1, n + 1):
        if not any(i in b for b in blocks):
            blocks.append([i] + [j for j in range(i + 1, n + 1) if same(i, j)])
    return (min(pairs) if pairs else None), blocks


posteriors = st.lists(st.integers(0, 6), min_size=1, max_size=12)


def pair(v) -> tuple:
    """A finite number as the integer pair (numerator, denominator) that
    RatioIndex positions take; a float is the dyadic rational it stores."""
    return v.as_integer_ratio()


def pairs(values) -> list:
    return [pair(v) for v in values]


def holds(index, q, p=(1, 1)) -> bool:
    """Whether the index already holds the ratio of the pairs q / p."""
    return index.probe(q, p)[1] is not None


class TestRatioIndex:
    @given(posteriors, st.data())
    def test_exact_matches_cross_multiplication(self, qs, data):
        ps = data.draw(st.lists(st.integers(1, 6), min_size=len(qs), max_size=len(qs)))
        qv = [F(q, 7) for q in qs]  # zero posterior entries allowed
        pv = [F(p, 5) for p in ps]
        index = RatioIndex(pairs(qv), pairs(pv))
        first, blocks = brute_fibres(
            lambda i, j: qv[i - 1] * pv[j - 1] == qv[j - 1] * pv[i - 1], len(qv)
        )
        assert index.first_collision == first
        assert index.fibres() == blocks

    @given(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1e-300, 2.5, 2.0**-1074, 1e308]),
                    max_size=12))
    def test_float_keys_match_pairwise_equality(self, ratios):
        index = RatioIndex(pairs(ratios), [(1, 1)] * len(ratios))
        first, blocks = brute_fibres(lambda i, j: ratios[i - 1] == ratios[j - 1], len(ratios))
        assert index.first_collision == first
        assert index.fibres() == blocks

    @given(st.integers(1, 20))
    def test_all_equal_ratios_form_one_fibre(self, n):
        pv = [F(k, n * (n + 1) // 2) for k in range(1, n + 1)]
        index = RatioIndex(pairs(pv), pairs(pv))
        assert index.fibres() == [list(range(1, n + 1))]
        assert index.first_collision == ((1, 2) if n > 1 else None)

    def test_incremental_membership(self):
        index = RatioIndex([(1, 2), (2, 6)], [(1, 1), (1, 1)])
        assert holds(index, (2, 4)) and not holds(index, (1, 4))
        index.commit(*index.probe((1, 3), (1, 1)))
        index.commit(*index.probe((2, 4), (1, 1)))
        assert index.first_collision == (1, 4)
        assert index.fibres() == [[1, 4], [2, 3]]

    def test_equal_values_of_mixed_types_share_a_fibre(self):
        qs = pairs([F(1, 2), 0.5, 1, F(1), F(2, 3)]) + [(4, 6), (6, 4)]
        index = RatioIndex(qs, [(1, 1)] * 6 + [(3, 2)])
        assert index.fibres() == [[1, 2], [3, 4, 7], [5, 6]]
        assert not holds(index, pair(2 / 3)) and holds(index, (4, 6)) and holds(index, (2, 2))


#: exact operands that stress the integer key: a ratio one part in 2^81 off
#: 1/3 (both round to the same float), magnitudes beyond the float range, and
#: 2^60 - 1 written two ways whose scaled quotients round to 2.0 and to 1.0
HARD_EXACT = [
    F(1, 3), F(3 * 2**80 + 1, 9 * 2**80), F(1, 2**3000), F(2**3000), F(1, 3 * 2**3000),
    F(2**60 - 1), F(3 * (2**60 - 1)), F(3), F(0), F(1), F(2),
]
small_operands = st.builds(F, st.integers(0, 6), st.integers(1, 7))
exact_operands = st.one_of(small_operands, st.sampled_from(HARD_EXACT))
positive_operands = exact_operands.filter(lambda v: v > 0)
#: float operands: exact ones with floats whose quotients are subnormal, huge or inexact
float_operand_pairs = st.tuples(
    st.one_of(small_operands, st.sampled_from([0.0, 0.5, 1 / 3, 2.0**-1074, 1e308])),
    st.one_of(small_operands.filter(lambda v: v > 0), st.sampled_from([0.5, 3.0, 1e-320])),
)


class TestRatioIndexMatchesDivisionOracle:
    """The cross-product index against the division-keyed one it replaced."""

    @staticmethod
    def assert_same(qv, pv, probes, quotient=operator.truediv):
        index = RatioIndex(pairs(qv), pairs(pv))
        oracle = reference.RatioIndex(map(quotient, qv, pv))
        assert index.fibres() == oracle.fibres()
        assert index.first_collision == oracle.first_collision
        for q, p in probes:
            assert holds(index, pair(q), pair(p)) == (quotient(q, p) in oracle)

    @staticmethod
    def stored_quotient(q, p):
        """q / p of the rationals the operands store."""
        return Fraction(q) / Fraction(p)

    @given(st.lists(st.tuples(exact_operands, positive_operands), min_size=1, max_size=16),
           st.lists(st.tuples(exact_operands, positive_operands), max_size=6))
    def test_exact_operands(self, pairs, probes):
        qv, pv = zip(*pairs)
        self.assert_same(qv, pv, probes)

    @given(st.lists(float_operand_pairs, min_size=1, max_size=12))
    def test_float_operands(self, pairs):
        qv, pv = zip(*pairs)
        self.assert_same(qv, pv, pairs, self.stored_quotient)

    def test_ratios_sharing_a_float_key_stay_apart(self):
        third, near = F(1, 3), F(3 * 2**80 + 1, 9 * 2**80)
        assert float(third) == float(near) and third != near
        index = RatioIndex(pairs([third, near, 2 * third]), pairs([1, 1, 2]))
        assert index.fibres() == [[1, 3], [2]]
        assert holds(index, pair(near)) and not holds(index, pair(F(1, 3) + F(1, 2**90)))

    def test_equal_ratios_across_the_rounding_boundary_share_a_fibre(self):
        index = RatioIndex(pairs([F(2**60 - 1), F(3 * (2**60 - 1)), F(2**60)]),
                              pairs([1, 3, 1]))
        assert index.fibres() == [[1, 2], [3]]
        assert index.first_collision == (1, 2)

    def test_magnitudes_beyond_the_float_range(self):
        tiny, huge = F(1, 2**3000), F(2**3000)
        index = RatioIndex(pairs([tiny, huge, F(2), 0]), pairs([1, 1, 2**3001, 1]))
        assert index.fibres() == [[1, 3], [2], [4]]
        assert holds(index, (1, 1), (2**3000, 1)) and not holds(index, (1, 2**2999))


class TestGrownIndexMatchesBuilt:
    """An index built from its first k pairs and grown by ``probe``/``commit``
    from there against one built from all of them in one keyed pass: the same
    fibres, first collision and probe answers, heads included."""

    @staticmethod
    def assert_same(qv, pv, probes, k=0):
        qs, ps = pairs(qv), pairs(pv)
        built, grown = RatioIndex(qs, ps), RatioIndex(qs[:k], ps[:k])
        for q, p in zip(qs[k:], ps[k:]):
            grown.commit(*grown.probe(q, p))
        assert grown.fibres() == built.fibres()
        assert grown.first_collision == built.first_collision
        for q, p in [*zip(qs, ps), *((pair(q), pair(p)) for q, p in probes)]:
            assert grown.probe(q, p) == built.probe(q, p)

    @given(st.lists(st.tuples(exact_operands, positive_operands), min_size=1, max_size=16),
           st.lists(st.tuples(exact_operands, positive_operands), max_size=6), st.data())
    def test_exact_operands(self, pairs, probes, data):
        qv, pv = zip(*pairs)
        self.assert_same(qv, pv, probes, data.draw(st.integers(0, len(pairs))))

    @given(st.lists(float_operand_pairs, min_size=1, max_size=12), st.data())
    def test_float_operands(self, pairs, data):
        qv, pv = zip(*pairs)
        self.assert_same(qv, pv, pairs, data.draw(st.integers(0, len(pairs))))

    @pytest.mark.parametrize("k", [0, 1, 2, 4])
    @pytest.mark.parametrize("first, second", [
        (F(1, 3), F(3 * 2**80 + 1, 9 * 2**80)), (F(3 * 2**80 + 1, 9 * 2**80), F(1, 3))])
    def test_ratios_sharing_a_float_key(self, first, second, k):
        qv, pv = [first, second, 2 * second, 2 * first, F(1, 2)], [1, 1, 2, 2, 1]
        self.assert_same(qv, pv, [(first, 1), (second, 1), (F(1, 3) + F(1, 2**90), 1)], k)
        assert RatioIndex(pairs(qv), pairs(pv)).fibres() == [[1, 4], [2, 3], [5]]


#: ratios at the edges of the float key: the smallest normal 2^-1022 and
#: neighbours that round onto it, subnormal quotients and one that rounds to
#: zero, the largest finite float with a neighbour that rounds onto it, and
#: quotients whose rounding overflows
KEY_BOUNDARY = [
    F(1, 2**1022), F(2**60 - 1, 2**1082), F(2**60 + 1, 2**1082),
    F(2**52 - 1, 2**1074), F(1, 2**1074), F(3, 2**1076), F(1, 2**1100),
    F(2**1024 - 2**971), F(2**1024 - 2**970 - 1), F(2**1024 - 2**970), F(2**1024),
    F(3 * 2**1100 + 1),
]


class TestRatioKeyBoundaries:
    """The quotient key and its (exponent, mantissa) fallback on both sides of
    the normal float range, against the Fraction-keyed oracle."""

    @staticmethod
    def positions(draws) -> tuple:
        """Each ratio r as q = (a c k, b d) over p = (c k, d): q / p = a / b = r."""
        qs = [(r.numerator * c * k, r.denominator * d) for r, c, d, k in draws]
        return qs, [(c * k, d) for _, c, d, k in draws]

    def test_key_branches(self):
        floats = [type(_ratio(pair(r), (1, 1))[0]) is float for r in KEY_BOUNDARY]
        assert floats == [True] * 3 + [False] * 4 + [True] * 2 + [False] * 3

    def test_each_ratio_in_two_representations_shares_one_fibre(self):
        n = len(KEY_BOUNDARY)
        draws = [(r, 1, 1, 1) for r in KEY_BOUNDARY] + [(r, 3, 5, 7) for r in KEY_BOUNDARY]
        index = RatioIndex(*self.positions(draws))
        assert index.fibres() == [[i, i + n] for i in range(1, n + 1)]
        assert index.first_collision == (1, n + 1)

    @given(st.lists(st.tuples(st.sampled_from(KEY_BOUNDARY), st.integers(1, 9),
                              st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=12))
    def test_matches_the_fraction_keyed_oracle(self, draws):
        index = RatioIndex(*self.positions(draws))
        oracle = reference.RatioIndex(r for r, *_ in draws)
        assert index.fibres() == oracle.fibres()
        assert index.first_collision == oracle.first_collision
        for r in KEY_BOUNDARY:
            assert holds(index, (3 * r.numerator, 2 * r.denominator), (3, 2)) == (r in oracle)


class TestExactSum:
    """The exact total of the rationals the values store, a float as its dyadic
    value, always a Fraction: Fraction(0) for no values."""

    @staticmethod
    def assert_exact(values):
        got = exact_sum(values)
        assert type(got) is F and got == sum(map(F, values), F(0))

    @given(st.lists(st.builds(F, st.integers(-50, 50), st.integers(1, 60)), max_size=40))
    def test_fractions(self, values):
        self.assert_exact(values)

    @given(st.lists(st.one_of(
        st.floats(-1e6, 1e6), st.integers(-9, 9), st.builds(F, st.integers(0, 9), st.integers(1, 9))
    ), max_size=12))
    def test_floats_ints_and_mixed(self, values):
        self.assert_exact(values)

    @pytest.mark.parametrize("values", [
        [], [F(3, 4)], [F(0)], [0.1], [7], [1, 2], [F(1, 2), 1], [0.1, F(1, 3), 0.2],
    ])
    def test_small_inputs(self, values):
        self.assert_exact(values)

    def test_accepts_a_generator(self):
        assert exact_sum(F(1, k) for k in (2, 3, 6)) == 1


class TestRationalText:
    @pytest.mark.parametrize(
        "text,value",
        [("1/2", F(1, 2)), ("3", F(3)), ("0.125", F(1, 8)), ("-2/4", F(-1, 2))],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    def test_decimal_digit_limit(self):
        with pytest.raises(InputError, match="18 fractional digits"):
            parse_rational("0." + "1" * 19)

    def test_format_roundtrip(self):
        for x in (F(1, 2), F(7), F(-3, 8)):
            assert parse_rational(format_rational(x)) == x

    @staticmethod
    def outcome(parse, text):
        """The parsed value, or the type and message of what parsing raised;
        parse_rational raises only InputError, from the error Fraction raises."""
        try:
            return parse(text)
        except InputError as exc:
            return type(exc.__cause__), str(exc.__cause__)
        except Exception as exc:  # the exception is the outcome
            assert parse is not parse_rational, f"{exc!r} reached the caller"
            return type(exc), str(exc)

    #: digits, signs, separators and non-ASCII digits that Fraction's parser
    #: treats each in its own way
    CHARS = "0123456789/+-_ .e\u0661\u00b2"

    @given(st.text(CHARS, max_size=8), st.text(CHARS, max_size=8))
    def test_slashed_text_parses_as_fraction_does(self, left, right):
        """Text with a slash: the plain ASCII a/b fast path and Fraction's own
        parser accept and refuse the same strings, with the same messages."""
        text = f"{left}/{right}"
        assert self.outcome(parse_rational, text) == self.outcome(Fraction, text.strip())

    @pytest.mark.parametrize("text", [
        "1/0", "1/-2", "1/ 2", "+1/2", "1_0/3", "\u0661/\u0662", "\u00b2/3", " 06/04 ",
        "1" * 5000 + "/3",
    ])
    def test_edge_texts_parse_as_fraction_does(self, text):
        assert self.outcome(parse_rational, text) == self.outcome(Fraction, text.strip())

    @pytest.mark.parametrize("obj", [
        {"kind": "finite", "probs": ["abc", "1"]},
        {"kind": "finite", "probs": ["1/0", "1"]},
        {"kind": "finite", "probs": ["0.5.0", "1/2"]},
        {"kind": "geometric", "ratio": "x"},
        {"kind": "geometric", "ratio": "1/0"},
    ], ids=["letters", "zero-denominator", "two-points", "ratio-letter", "ratio-zero-denominator"])
    def test_malformed_text_is_an_input_error(self, obj):
        """Library callers get InputError, not the ValueError or
        ZeroDivisionError of int() or Fraction."""
        with pytest.raises(InputError, match="^not a rational: "):
            dist_from_json(obj)


class TestJson:
    def test_finite_roundtrip(self):
        d = finite_from_rationals([F(1, 2), F(1, 4), F(1, 4)])
        assert dist_from_json(json.loads(json.dumps(dist_to_json(d)))) == d

    def test_truncated_roundtrip(self):
        t = truncate(geometric(F(1, 3)), 8)
        assert dist_from_json(dist_to_json(t)) == t

    def test_geometric_roundtrip(self):
        g = geometric(F(2, 7))
        assert dist_from_json(dist_to_json(g)) == g

    def test_float_mode_roundtrip(self):
        t = TruncatedDistribution((0.5, 0.25, 0.125), 0.125)
        assert dist_from_json(dist_to_json(t)) == t

    def test_integer_shorthand(self):
        d = dist_from_json({"kind": "finite", "probs": ["1", "0", "0"]})
        assert d.probs == (F(1), F(0), F(0))

    def test_json_integers_decode_exactly(self):
        d = dist_from_json({"kind": "finite", "probs": [1, 0]})
        assert d.probs == (F(1), F(0)) and all(type(v) is Fraction for v in d.probs)
        assert d.is_exact

    @pytest.mark.parametrize("entry", [True, None])
    def test_json_non_numbers_rejected(self, entry):
        """``True`` is an int to Python, but not a probability."""
        with pytest.raises(InputError, match=f"^not a probability value: {entry!r}$"):
            dist_from_json({"kind": "finite", "probs": [entry, 0]})

    @pytest.mark.parametrize("obj, message", [
        ({"kind": "finite"}, r"^finite keys are \['kind', 'probs'\], got \['kind'\]$"),
        ({"kind": "truncated", "prefix": ["1/2", "1/4"], "tail_mass": "1/4", "ratio": "1/2"},
         r"^truncated keys are \['kind', 'prefix', 'tail_mass'\], got \[.*'ratio'\]$"),
        ({"kind": "geometric", "ratio": "1/2", "tail_mass": "1"}, "^geometric keys are"),
        ({"kind": "geometric", "ratio": 0.5}, "^a rational is written as a string, got 0.5$"),
        ([{"kind": "geometric", "ratio": "1/2"}], "^a distribution is a JSON object, got"),
        ("finite", "^a distribution is a JSON object, got 'finite'$"),
        ({"kind": ["finite"], "probs": ["1"]}, r"^unknown distribution kind \['finite'\]$"),
        ({"probs": ["1/2", "1/2"]}, "^unknown distribution kind None$"),
    ], ids=["missing", "unknown", "extra", "float-ratio", "list", "string", "list-kind", "no-kind"])
    def test_malformed_objects_raise_input_error(self, obj, message):
        """A missing or unknown field, a non-object and a ratio that is not a
        string are input errors, as an unknown kind is."""
        with pytest.raises(InputError, match=message):
            dist_from_json(obj)


class TestFloatMode:
    def test_tolerance_enforced(self):
        with pytest.raises(InputError, match="float entries sum to"):
            TruncatedDistribution((0.5, 0.25), 0.2501)

    def test_within_tolerance(self):
        t = TruncatedDistribution((0.5, 0.25), 0.25)
        assert not t.is_exact


def test_prefix_of_geometric_any_horizon():
    g = geometric(F(1, 2))
    assert g.prefix_values(3) == (F(1, 2), F(1, 4), F(1, 8))


NAN = float("nan")


class TestNaNRejected:
    """NaN fails every order comparison, so it must be caught on its own."""

    def test_finite(self):
        with pytest.raises(InputError, match="NaN probability entry"):
            FiniteDistribution((NAN, 0.5, 0.5))

    def test_truncated_prefix(self):
        with pytest.raises(InputError, match="NaN probability entry"):
            TruncatedDistribution((0.5, NAN), 0.5)

    def test_truncated_tail_mass(self):
        with pytest.raises(InputError, match="NaN probability entry"):
            TruncatedDistribution((0.5, 0.5), NAN)


class TestDistributionView:
    """Every kind answers prefix_values / tail_after / is_exact."""

    FINITE = finite_from_rationals([F(1, 2), F(1, 4), F(1, 4)])
    TRUNC = TruncatedDistribution((F(1, 2), F(1, 4), F(1, 8)), F(1, 8))
    GEO = geometric(F(1, 2))
    FLOATS = TruncatedDistribution((0.5, 0.25, 0.125), 0.125)

    def test_finite_is_a_prefix_with_zero_tail(self):
        assert self.FINITE.prefix == self.FINITE.probs
        assert self.FINITE.tail_mass == 0 and isinstance(self.FINITE.tail_mass, Fraction)
        float_finite = FiniteDistribution((0.5, 0.5))
        assert float_finite.tail_mass == 0.0 and isinstance(float_finite.tail_mass, float)
        assert not float_finite.is_exact

    @pytest.mark.parametrize("kind", ["FINITE", "TRUNC", "GEO", "FLOATS"])
    def test_prefix_and_tail_agree(self, kind):
        """The tail after n is the rest of the mass, a float for float entries."""
        d = getattr(self, kind)
        assert d.is_exact is (kind != "FLOATS")
        for n in (1, 2, 3):
            tail = d.tail_after(n)
            assert sum(d.prefix_values(n)) + tail == 1
            assert type(tail) is (float if kind == "FLOATS" else Fraction)
            assert d.prefix_values(n) == tuple(d.value(i) for i in range(1, n + 1))

    def test_stored_prefix_then_geometric_tail(self):
        """The view's general case, which no JSON kind has yet: past N stored
        entries, q_i = T(1-s) s^(i-N-1), read through every accessor."""

        class PrefixThenGeometric(Distribution):
            __slots__ = ("prefix", "tail_mass", "ratio")

        T, s = F(1, 4), F(2, 3)
        d = PrefixThenGeometric((F(1, 2), F(1, 4)), T, s)
        setfield(d, "is_exact", True)  # set once, when built, as by every real kind
        terms = (F(1, 2), F(1, 4)) + tuple(T * (1 - s) * s ** k for k in range(6))
        assert d.prefix_values(8) == terms == tuple(d.value(i) for i in range(1, 9))
        assert tuple(F(x, y) for x, y in d.prefix_pairs(8)) == terms
        assert [d.tail_after(n) for n in range(1, 9)] == [1 - sum(terms[:n]) for n in range(1, 9)]
        for n in (0, -1):
            with pytest.raises(InputError, match="horizon must be at least 1"):
                d.tail_after(n)
        with pytest.raises(InputError, match="no stored prefix"):
            require_stored(d)

    @pytest.mark.parametrize("read", [
        pytest.param(lambda d, n: d.prefix_pairs(n), id="prefix_pairs"),
        pytest.param(lambda d, n: d.prefix_values(n), id="prefix_values"),
        pytest.param(lambda d, n: d.tail_after(n), id="tail_after"),
        pytest.param(truncate, id="truncate"),
    ])
    @pytest.mark.parametrize("kind, n", [("TRUNC", -1), ("TRUNC", 0), ("GEO", -2), ("GEO", 0)])
    def test_horizon_below_one_is_an_input_error(self, read, kind, n):
        """A horizon counts from 1; a negative one would slice the prefix from its
        end: all but the last entry for prefix_pairs(-1), and the last entry plus
        the tail, a wrong mass, for tail_after(-1)."""
        with pytest.raises(InputError, match=f"^horizon must be at least 1, got {n}$"):
            read(getattr(self, kind), n)

    @pytest.mark.parametrize("kind, i", [
        ("FINITE", 0), ("FINITE", -1), ("FINITE", 4), ("TRUNC", 4), ("GEO", 0),
    ])
    def test_value_outside_the_components_is_an_input_error(self, kind, i):
        """Not the last entry for i = 0 (prefix[-1]), nor IndexError past the prefix."""
        with pytest.raises(InputError):
            getattr(self, kind).value(i)

    @pytest.mark.parametrize("read", [
        pytest.param(lambda d, n: d.prefix_pairs(n), id="prefix_pairs"),
        pytest.param(lambda d, n: d.value(n), id="value"),
        pytest.param(lambda d, n: d.tail_after(n), id="tail_after"),
        pytest.param(truncate, id="truncate"),
        pytest.param(lambda d, n: require_priors(n, d), id="require_priors"),
    ])
    def test_horizon_past_the_cap_is_refused_where_a_tail_ratio_extends(self, read):
        """Coordinates past a stored prefix grow in bits with their index, and so
        does the power in a closed-form read: a tail ratio is read up to
        MAX_HORIZON.  A stored prefix is read at any length it has."""
        read(self.GEO, distributions.MAX_HORIZON)
        with pytest.raises(InputError, match=f"^horizon {distributions.MAX_HORIZON + 1} "
                                             f"exceeds MAX_HORIZON = {distributions.MAX_HORIZON}$"):
            read(self.GEO, distributions.MAX_HORIZON + 1)
        n = distributions.MAX_HORIZON + 1
        long = FiniteDistribution((F(1, n),) * n)
        read(long, n)
        with pytest.raises(InputError, match="exceeds MAX_HORIZON"):
            distributions.require_horizon(n, long, generated=True)

    def test_stored_horizon_too_large(self):
        for d in (self.FINITE, self.TRUNC):
            with pytest.raises(InputError, match="exceeds available prefix length"):
                d.prefix_values(4)
            with pytest.raises(InputError, match="exceeds available prefix length"):
                d.tail_after(4)

    @pytest.mark.parametrize("prior, shown", [
        (FiniteDistribution((0.5, 0.0, 0.5)), "0.0"),
        (TruncatedDistribution((0.5, 0.0, 0.25), 0.25), "0.0"),
        (finite_from_rationals([F(1, 2), F(0), F(1, 2)]), "0"),
    ])
    def test_nonpositive_component_is_named_as_stored(self, prior, shown):
        message = rf"^prior has nonpositive component {re.escape(shown)} at index 2$"
        with pytest.raises(InputError, match=message):
            require_priors(3, prior)

    def test_require_priors_returns_each_prior_in_order(self):
        priors = (self.TRUNC, self.FINITE, self.GEO, self.TRUNC)
        assert require_priors(3, *priors) == [d.prefix_pairs(3) for d in priors]
        assert require_priors(2, self.GEO) == [((1, 2), (1, 4))]

    def test_guards(self):
        require_stored(self.FINITE, self.TRUNC)
        assert require_finite(self.FINITE, self.FINITE) == 3
        with pytest.raises(InputError, match="lengths differ"):
            require_finite(self.FINITE, finite_from_rationals([F(1, 2), F(1, 2)]))
        with pytest.raises(InputError, match="no stored prefix"):
            require_stored(self.FINITE, self.GEO)
        for other in (self.TRUNC, self.GEO):
            with pytest.raises(InputError, match="need a horizon"):
                require_finite(self.FINITE, other)

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import bayesblind
from bayesblind import (
    collision_count,
    delta_family,
    densify,
    exteriorize,
    generate_blindspot_member,
    geometric,
    membership_prefix,
    multi_collision_near,
    pick_valid_delta,
    truncate,
)
from bayesblind.construct import _move_prelude, generate_raw_sequence
from bayesblind.distributions import FiniteDistribution, TruncatedDistribution
from bayesblind.errors import BayesBlindError, HorizonInsufficient, InputError
from reference import exclusion_set, raw_sequence, valid_delta

F = Fraction

GEO_HALF = geometric(F(1, 2))
GEO_THIRD = geometric(F(1, 3))
TWO_PRIORS = [GEO_HALF, GEO_THIRD]
FIVE_PRIORS = [geometric(F(a, b)) for a, b in ((1, 2), (1, 3), (2, 5), (3, 5), (5, 7))]
HALVES = TruncatedDistribution(tuple(F(1, 2 ** i) for i in range(1, 9)), F(1, 256))


class TestGenerator:
    def test_single_prior_output_verified_independently(self):
        q = generate_blindspot_member([GEO_HALF], 16, seed=7)
        assert membership_prefix(GEO_HALF, q, 16).distinct

    def test_two_priors(self):
        q = generate_blindspot_member(TWO_PRIORS, 16, seed=3)
        for p in TWO_PRIORS:
            assert membership_prefix(p, q, 16).distinct

    def test_m_bound_and_mass(self):
        for seed in range(10):
            ms = generate_raw_sequence(TWO_PRIORS, 32, seed)
            assert ms[0] == F(1, 2)
            assert all(0 < ms[i] < F(1, 2 ** (i + 1)) for i in range(1, 32))
            q = generate_blindspot_member(TWO_PRIORS, 32, seed)
            assert sum(q.prefix) + q.tail_mass == 1

    def test_exclusion_set_size(self):
        prefixes = [p.prefix_values(8) for p in TWO_PRIORS]
        ms = [F(1, 2), F(1, 8), F(1, 32)]
        forbidden = exclusion_set(ms, prefixes, 4)
        assert len(forbidden) <= 3 * 2

    def test_deterministic(self):
        a = generate_blindspot_member(TWO_PRIORS, 24, seed=99)
        b = generate_blindspot_member(TWO_PRIORS, 24, seed=99)
        assert a == b

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_matches_full_rebuild_reference(self, n, k):
        priors = FIVE_PRIORS[:k]
        for seed in range(30):
            assert generate_raw_sequence(priors, n, seed) == raw_sequence(priors, n, seed)


class TestDeltaFamily:
    def test_arithmetic(self):
        q = TruncatedDistribution((F(1, 2), F(1, 4), F(1, 8)), F(1, 8))
        shifted = delta_family(q, F(1, 8))
        assert shifted.prefix == (F(5, 8), F(1, 8), F(1, 8))
        assert shifted.tail_mass == F(1, 8)

    def test_mass_preserved(self):
        q = generate_blindspot_member(TWO_PRIORS, 16, seed=1)
        shifted = delta_family(q, q.value(2) / 3)
        assert sum(shifted.prefix) + shifted.tail_mass == 1

    def test_small_delta_small_shift(self):
        q = generate_blindspot_member(TWO_PRIORS, 16, seed=1)
        delta = F(1, 10 ** 9)
        shifted = delta_family(q, delta)
        assert shifted.value(1) - q.value(1) == delta
        assert shifted.prefix[2:] == q.prefix[2:]

    def test_delta_too_large(self):
        q = TruncatedDistribution((F(1, 2), F(1, 4), F(1, 4)), F(0))
        with pytest.raises(InputError, match="delta must lie in"):
            delta_family(q, F(1, 4))


class TestPickValidDelta:
    def test_found_and_valid(self):
        q = generate_blindspot_member(TWO_PRIORS, 16, seed=4)
        eps = min(1 - q.value(1), q.value(2)) / 2
        delta = pick_valid_delta(q, TWO_PRIORS, eps, seed=0)
        assert 0 < delta < eps
        shifted = delta_family(q, delta)
        for p in TWO_PRIORS:
            assert membership_prefix(p, shifted, 16).distinct

    def test_distinct_seeds_distinct_deltas(self):
        q = generate_blindspot_member(TWO_PRIORS, 16, seed=4)
        eps = min(1 - q.value(1), q.value(2)) / 2
        d1 = pick_valid_delta(q, TWO_PRIORS, eps, seed=1)
        d2 = pick_valid_delta(q, TWO_PRIORS, eps, seed=2)
        assert d1 != d2
        assert delta_family(q, d1) != delta_family(q, d2)

    def test_eps_bounds(self):
        q = generate_blindspot_member(TWO_PRIORS, 16, seed=4)
        with pytest.raises(InputError, match="eps must lie in"):
            pick_valid_delta(q, TWO_PRIORS, F(0), seed=0)

    def test_degenerate_second_coordinate(self):
        q = TruncatedDistribution((F(1, 2), F(0), F(1, 2)), F(0))
        with pytest.raises(InputError, match="q_2 = 0"):
            pick_valid_delta(q, [GEO_HALF], F(1, 10), seed=0)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_matches_full_rescan_reference(self, k):
        priors = FIVE_PRIORS[:k]
        for seed in range(30):
            q = generate_blindspot_member(priors, 16 + seed % 3 * 24, seed)
            for eps in (min(1 - q.value(1), q.value(2)), F(1, 10 ** 6)):
                assert pick_valid_delta(q, priors, eps, seed) == valid_delta(q, priors, eps, seed)

    def test_excluded_first_draw_steps_to_the_next_dyadic(self):
        # the seed-0 draw delta_0 makes r_1 = r_2 = 1 + 2 * delta_0 under geometric(1/2)
        eps, scale = F(1, 8), 1 << 40
        k0 = random.Random(0).randrange(1, scale)
        d0 = eps * F(k0, scale)
        q = TruncatedDistribution((F(1, 2), F(1, 4) + 3 * d0 / 2, F(1, 4) - 3 * d0 / 2), F(0))
        assert (q.value(1) + d0) / GEO_HALF.value(1) == (q.value(2) - d0) / GEO_HALF.value(2)
        assert pick_valid_delta(q, [GEO_HALF], eps, seed=0) == eps * F(k0 + 1, scale)

    def test_fixed_repeat_fails_at_once(self):
        # q_3 / p_3 == q_4 / p_4 under geometric(1/2): no shift of q_1, q_2 helps
        q = TruncatedDistribution((F(1, 2), F(1, 4), F(1, 10), F(1, 20)), F(1, 10))
        assert valid_delta(q, [GEO_HALF], F(1, 8), seed=0, max_tries=50) is None
        with pytest.raises(HorizonInsufficient):
            pick_valid_delta(q, [GEO_HALF], F(1, 8), seed=0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda q: delta_family(q, F(1, 10)), id="delta_family"),
    pytest.param(lambda q: pick_valid_delta(q, [GEO_HALF], F(1, 10), seed=0),
                 id="pick_valid_delta"),
])
def test_delta_shift_needs_a_stored_prefix(call):
    with pytest.raises(InputError, match="no stored prefix"):
        call(GEO_THIRD)


class TestDensify:
    def test_prior_itself_becomes_distinct(self):
        target = truncate(GEO_HALF, 32)  # not prefix-distinct against itself
        result = densify(GEO_HALF, target, F(1, 100))
        assert result.l1_upper < F(4, 100)
        assert membership_prefix(GEO_HALF, result.distribution, 32).distinct

    def test_already_distinct_large_eps(self):
        target = truncate(GEO_THIRD, 16)
        result = densify(GEO_HALF, target, F(2, 5))
        assert result.l1_upper < F(8, 5)

    def test_nudges_below_envelope(self):
        target = truncate(GEO_HALF, 24)
        eps = F(1, 1000)
        result = densify(GEO_HALF, target, eps)
        for i, (r, q) in enumerate(zip(result.distribution.prefix, target.prefix), start=1):
            # pre-normalization envelope survives the mass-1/(1 +- eps) rescale
            assert abs(r - q) < 4 * eps

    def test_eps_range(self):
        with pytest.raises(InputError, match="eps must lie in"):
            densify(GEO_HALF, truncate(GEO_HALF, 8), F(1, 2))

    def test_horizon_insufficient_for_fat_tail(self):
        target = TruncatedDistribution((F(1, 4), F(1, 4)), F(1, 2))
        with pytest.raises(HorizonInsufficient):
            densify(GEO_HALF, target, F(1, 100))


class TestExteriorize:
    def test_collision_certified(self):
        q = generate_blindspot_member([GEO_HALF], 64, seed=5)
        eps = F(1, 1000)
        result = exteriorize(GEO_HALF, q, eps)
        assert result.l1_distance < 2 * eps
        (i, n), = result.pairs
        assert i == 1
        d = result.distribution
        assert d.value(n) * GEO_HALF.prefix_values(1)[0] == d.value(1) * GEO_HALF.value(n)
        assert collision_count(GEO_HALF, d, 64) >= 1
        assert sum(d.prefix) + d.tail_mass == 1

    def test_both_branches_reachable(self):
        # geometric(1/2) priors drive the move negative (q_1/p_1 is maximal
        # over the generator's ratio range); geometric(1/3) drives it positive
        seen = set()
        for seed in range(10):
            for prior in (GEO_HALF, GEO_THIRD):
                q = generate_blindspot_member([prior], 64, seed=seed)
                seen.add(exteriorize(prior, q, F(1, 1000)).branch)
        assert seen == {"positive", "negative"}

    def test_q2_zero_fallback(self):
        q = generate_blindspot_member([GEO_HALF], 64, seed=8)
        prefix = (q.value(1) + q.value(2), F(0)) + q.prefix[2:]
        qz = TruncatedDistribution(prefix, F(0))
        assert membership_prefix(GEO_HALF, qz, 64).distinct
        eps = min(F(1, 1000), qz.value(3) / 2)
        result = exteriorize(GEO_HALF, qz, eps)
        assert result.fallback_used
        assert result.l1_distance < 2 * eps
        assert collision_count(GEO_HALF, result.distribution, 64) >= 1

    def test_horizon_insufficient(self):
        q = generate_blindspot_member([GEO_HALF], 8, seed=5)
        with pytest.raises(HorizonInsufficient):
            exteriorize(GEO_HALF, q, F(1, 10 ** 6))


class TestMultiCollision:
    def test_base_case_matches_exteriorize_shape(self):
        q = generate_blindspot_member([GEO_HALF], 64, seed=6)
        eps = F(1, 1000)
        result = multi_collision_near(GEO_HALF, q, 1, eps)
        assert len(result.pairs) == 1
        assert result.l1_distance < 2 * eps
        assert collision_count(GEO_HALF, result.distribution, 64) >= 1

    def test_three_pairs(self):
        q = generate_blindspot_member([GEO_HALF], 64, seed=6)
        eps = F(1, 10 ** 4)
        result = multi_collision_near(GEO_HALF, q, 3, eps)
        assert collision_count(GEO_HALF, result.distribution, 64) >= 3
        assert result.l1_distance < 6 * eps
        assert sum(result.distribution.prefix) + result.distribution.tail_mass == 1

    def test_too_many_pairs(self):
        q = generate_blindspot_member([GEO_HALF], 24, seed=6)
        with pytest.raises(HorizonInsufficient):
            multi_collision_near(GEO_HALF, q, 40, F(1, 10 ** 4))

    @pytest.mark.parametrize("pairs, eps", [(1, F(1, 3)), (2, F(1, 8))])
    def test_pair_budget_beyond_q2_is_an_input_error(self, pairs, eps):
        """No horizon can bring pairs * eps below q_2; exteriorize refuses the
        same budget as an input error."""
        with pytest.raises(InputError, match=r"pairs \* eps must lie in \(0, q_2\) = \(0, 1/4\)"):
            multi_collision_near(GEO_THIRD, HALVES, pairs, eps)
        with pytest.raises(InputError, match=r"eps must lie in \(0, q_2\)"):
            exteriorize(GEO_THIRD, HALVES, pairs * eps)


@pytest.mark.parametrize("move, name, spend", [
    pytest.param(lambda p, q, eps: exteriorize(p, q, eps), "exteriorize", "eps", id="exteriorize"),
    pytest.param(lambda p, q, eps: multi_collision_near(p, q, 1, eps), "multi_collision_near",
                 r"pairs \* eps", id="multicollide"),
])
@pytest.mark.parametrize("p, q, eps, error, message", [
    pytest.param(GEO_HALF, GEO_THIRD, F(1, 10), InputError,
                 "a geometric distribution has no stored prefix; truncate it first",
                 id="geometric-posterior"),
    pytest.param(GEO_HALF, FiniteDistribution((0.5, 0.25, 0.25)), F(1, 10), InputError,
                 "{name} requires an exact-rational distribution", id="float-posterior"),
    pytest.param(GEO_HALF, TruncatedDistribution((F(1, 2), F(0), F(0), F(1, 4)), F(1, 4)),
                 F(1, 10), InputError, "q_2 = 0 and q_3 is 0 or not stored: no budget coordinate",
                 id="q2-q3-zero"),
    pytest.param(GEO_THIRD, HALVES, F(1, 3), InputError,
                 r"{spend} must lie in \(0, q_2\) = \(0, 1/4\), got 1/3", id="budget-too-large"),
    pytest.param(FiniteDistribution((F(1, 2), F(0)) + (F(1, 12),) * 6), HALVES, F(1, 1000),
                 InputError, "prior has nonpositive component 0 at index 2",
                 id="nonpositive-prior"),
    pytest.param(GEO_HALF, HALVES, F(1, 10 ** 6), HorizonInsufficient,
                 "no admissible index below the horizon; enlarge the prefix or eps",
                 id="no-admissible-index"),
])
def test_move_prelude_errors(move, name, spend, p, q, eps, error, message):
    """Both moves share one prelude: each guard raises the same class and
    message from either move."""
    with pytest.raises(error, match=f"^{message.format(name=name, spend=spend)}$"):
        move(p, q, eps)


@st.composite
def small_stored(draw):
    """A finite or truncated distribution of length 2-5 on small integer
    weights, zero entries allowed."""
    weights = draw(st.lists(st.integers(0, 4), min_size=2, max_size=5).filter(any))
    tail = draw(st.integers(0, 2))
    total = sum(weights) + tail
    prefix = tuple(F(w, total) for w in weights)
    return TruncatedDistribution(prefix, F(tail, total)) if tail else FiniteDistribution(prefix)


SMALL_PRIORS = st.one_of(
    small_stored(), st.sampled_from([GEO_HALF, GEO_THIRD, geometric(F(3, 4))]))


@settings(deadline=None, max_examples=300)
@given(SMALL_PRIORS, small_stored(), st.fractions(0, 1, max_denominator=64), st.integers(0, 3))
def test_small_exact_inputs_return_or_raise_a_package_error(p, q, eps, k):
    """Each construction returns or raises BayesBlindError; nothing else escapes."""
    for call in (
        lambda: exteriorize(p, q, eps),
        lambda: multi_collision_near(p, q, k, eps),
        lambda: densify(p, q, eps),
        lambda: pick_valid_delta(q, [p], eps, k),
        lambda: delta_family(q, eps),
    ):
        try:
            call()
        except BayesBlindError:
            pass


@pytest.mark.parametrize("move", [
    lambda p, q: exteriorize(p, q, F(1, 1000)),
    lambda p, q: multi_collision_near(p, q, 3, F(1, 10 ** 4)),
])
def test_float_prior_moves_as_the_rationals_it_stores(move):
    """A float prior's entries are the exact dyadic rationals they store, so
    the moves collide exactly and equal the moves under those rationals."""
    floats = tuple(float(v) for v in GEO_THIRD.prefix_values(24))
    tail = 1 - sum(map(Fraction, floats))
    float_prior = TruncatedDistribution(floats, float(tail))
    exact_prior = TruncatedDistribution(tuple(map(Fraction, floats)), tail)
    q = generate_blindspot_member([GEO_THIRD], 24, seed=6)
    result = move(float_prior, q)
    assert result == move(exact_prior, q)
    assert all(isinstance(v, Fraction) for v in result.distribution.prefix)
    assert collision_count(float_prior, result.distribution, 24) >= len(result.pairs)


def test_collision_moves_make_no_fraction_division(monkeypatch):
    """The collision moves' threshold scan walks down on integer cross products
    of the prior pairs, and a move builds its one ratio p_t / p_1 from them, so
    neither divides a Fraction (counted as in
    ``test_exact_scans_make_no_fraction_division``).  The scan stops where the
    Fraction quotient ``p_i / p_1 < eps`` stops it."""
    q = generate_blindspot_member([GEO_HALF], 64, seed=3)
    runs = []
    for p in (GEO_HALF, GEO_THIRD, geometric(F(5, 7))):
        for eps in (F(1, 1000), F(1, 10 ** 4), F(3, 10 ** 5)):
            n0 = 65
            while n0 > 2 and q.value(n0 - 1) < eps and p.value(n0 - 1) / p.value(1) < eps:
                n0 -= 1
            runs.append((p, eps, eps / 3, n0))
    calls = []
    for name in ("__truediv__", "__rtruediv__"):
        operation = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name,
                            lambda a, b, op=operation, name=name: calls.append(name) or op(a, b))
    F(1, 2) / 2, 2 / F(1, 2)
    assert calls == ["__truediv__", "__rtruediv__"]  # the wrappers count
    calls.clear()
    for p, eps, eps_multi, n0 in runs:
        assert _move_prelude(p, q, eps, eps, "eps", "exteriorize")[2] == n0 < 63
        result = exteriorize(p, q, eps)
        assert result.pairs == ((1, n0),) and collision_count(p, result.distribution, 64) >= 1
        assert len(multi_collision_near(p, q, 3, eps_multi).pairs) == 3
    assert calls == []


def test_certified_bound_survives_optimize():
    """A bound that fails raises even under ``python -O``, which strips asserts:
    a collision move whose cost is faked, and a densify target whose fat tail
    alone exceeds 4*eps."""
    script = (
        "from fractions import Fraction as F\n"
        "from bayesblind import construct, geometric, truncate\n"
        "from bayesblind.distributions import TruncatedDistribution\n"
        "from bayesblind.errors import HorizonInsufficient\n"
        "construct._collision_move = lambda *args: ('positive', F(1))\n"
        "p, q = geometric(F(1, 2)), truncate(geometric(F(1, 3)), 20)\n"
        "fat_tail = TruncatedDistribution((F(1, 4), F(1, 4)), F(1, 2))\n"
        "for move in (\n"
        "    lambda: construct.exteriorize(p, q, F(1, 1000)),\n"
        "    lambda: construct.densify(p, fat_tail, F(1, 100)),\n"
        "):\n"
        "    try:\n"
        "        move()\n"
        "    except HorizonInsufficient:\n"
        "        continue\n"
        "    raise SystemExit(1)\n"
    )
    src = str(Path(bayesblind.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, timeout=60)
    assert proc.returncode == 0

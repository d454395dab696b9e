"""Slow reference implementations that the library's fast paths must match.

Each one rebuilds what it needs from scratch at every step, exactly as the
library once did; tests compare the library against them byte for byte.
"""

import random
from fractions import Fraction
from typing import Sequence

import numpy as np

from bayesblind import FiniteDistribution, delta_family
from bayesblind.distributions import (
    _check_entries, exact_sum, require_finite, require_priors,
)
from bayesblind.errors import InputError
from bayesblind.jeffrey import check_prior
from bayesblind.metrics import DistanceInterval
from bayesblind.sampler import (
    NEAR_COLLISION_RTOL,
    McReport,
    _chunk_rng,
    _chunks,
)

_DYADIC_BITS = 32


def _ratio_key(r):
    """(numerator, denominator) of a finite Fraction, int or float, so exactly
    equal numbers of any type share a key.  Infinities and NaN, which have no
    such pair, key as themselves."""
    try:
        return r.as_integer_ratio()
    except (OverflowError, ValueError):
        return r


class RatioIndex:
    """The ratio index keyed by the reduced quotient: one Fraction division
    per exact position.  Same fibres, ``first_collision`` and membership as
    ``bayesblind.distributions.RatioIndex``, whose constructor and
    ``probe``/``commit`` take q and p as integer (numerator, denominator)
    pairs instead of the quotient.  This one also takes floats, infinities
    and NaN, as a sampler row holds them: equal floats share a fibre, and a
    NaN shares none."""

    def __init__(self, ratios=()):
        self._fibres = {}
        self._size = 0
        self.first_collision = None
        for r in ratios:
            self.add(r)

    @classmethod
    def of(cls, qv, pv):
        return cls(q / p for q, p in zip(qv, pv))

    def add(self, ratio):
        self._size += 1
        fibre = self._fibres.setdefault(_ratio_key(ratio), [])
        fibre.append(self._size)
        if len(fibre) == 2:
            pair = tuple(fibre)
            self.first_collision = min(pair, self.first_collision or pair)

    def __contains__(self, ratio):
        return _ratio_key(ratio) in self._fibres

    def fibres(self):
        return list(self._fibres.values())


def positive_prefix(p, n) -> tuple:
    """Components 1..n of a prior as values, behind the library's positivity guard."""
    require_priors(n, p)
    return p.prefix_values(n)


def geometric_prefix(r: Fraction, n: int) -> tuple:
    """(1 - r) r^(i-1) for i = 1..n, one reducing Fraction product per term."""
    out, term = [], 1 - r
    for _ in range(n):
        out.append(term)
        term *= r
    return tuple(out)


def ratio_profile(q, p, n=None) -> tuple:
    """Componentwise q_i / p_i, whose injectivity decides blind-spot
    membership; the prior must be strictly positive.  Without a horizon n
    both must be finite vectors of one length."""
    if n is None:
        n = require_finite(q, p)
    pv = positive_prefix(p, n)
    return tuple(a / b for a, b in zip(q.prefix_values(n), pv))


def rigidity_by_masses(p, q, e) -> bool:
    """q(x|E_i) = p(x|E_i) on every block with q(E_i) > 0, as the definition
    states it: q_x * p(E_i) = p_x * q(E_i), from block sums."""
    check_prior(p, q)
    for block in e.blocks:
        q_mass = sum(q.value(i) for i in block)
        if q_mass == 0:
            continue
        p_mass = sum(p.value(i) for i in block)
        for i in block:
            if q.value(i) * p_mass != p.value(i) * q_mass:
                return False
    return True


def normalize(values):
    """The normalisation by Fraction division: the total by ``exact_sum``, then
    one reducing division per entry."""
    vals = tuple(Fraction(v) for v in values)
    _check_entries(vals)
    total = exact_sum(vals)
    if total == 0:
        raise InputError("cannot normalize the zero vector")
    return FiniteDistribution(tuple(v / total for v in vals))


def jc_apply(p, e, w):
    """Jeffrey conditioning with Fraction arithmetic per entry: the block mass
    summed, then q_x = w_b * p_x / mass, two reducing operations per entry."""
    check_prior(p)
    out = [Fraction(0)] * len(p)
    for block, wb in zip(e.blocks, w.weights):
        mass = exact_sum(p.value(i) for i in block)
        for i in block:
            out[i - 1] = wb * p.value(i) / mass
    return FiniteDistribution(tuple(out))


def l1_distance(u, v):
    """The l1 distance from Fraction differences, one subtraction and abs per
    entry, added by builtin ``sum``, then the tails as ``lp_distance`` bounds them."""
    lower = sum(abs(a - b) for a, b in zip(u.prefix, v.prefix))
    ut, vt = u.tail_mass, v.tail_mass
    if ut == 0 and vt == 0:
        return lower
    return DistanceInterval(lower, lower + ut + vt)


def has_repeat(ratios) -> bool:
    """The set-based collision check: some ratio occurs twice."""
    return len(set(ratios)) < len(ratios)


def exclusion_set(ms: Sequence[Fraction], prior_prefixes: Sequence[tuple], i: int) -> set:
    """Forbidden values for coordinate m_i: {m_j * p_i / p_j : j < i, each prior}.

    1-based i; ``ms`` holds m_1..m_{i-1}.  At most (i-1) * K elements.
    """
    forbidden = set()
    for pv in prior_prefixes:
        pi = pv[i - 1]
        for j, mj in enumerate(ms, start=1):
            forbidden.add(mj * pi / pv[j - 1])
    return forbidden


def raw_sequence(priors, n: int, seed: int) -> tuple:
    """The generator with the exclusion set rebuilt at every index: O(N^2 K)."""
    prefixes = [positive_prefix(p, n) for p in priors]
    rng = random.Random(seed)
    ms = [Fraction(1, 2)]
    for i in range(2, n + 1):
        forbidden = exclusion_set(ms, prefixes, i)
        denom = 1 << (i + _DYADIC_BITS)
        while True:
            candidate = Fraction(rng.randrange(1, 1 << _DYADIC_BITS), denom)
            if candidate not in forbidden:
                ms.append(candidate)
                break
    return tuple(ms)


def valid_delta(q, priors, eps: Fraction, seed: int, max_tries: int = 10000):
    """Delta search rescanning all N ratios for every prior on every try;
    returns None when the budget runs out."""
    n = len(q)
    prefixes = [positive_prefix(p, n) for p in priors]
    rng = random.Random(seed)
    for _ in range(max_tries):
        delta = eps * Fraction(rng.randrange(1, 1 << 40), 1 << 40)
        shifted = delta_family(q, delta).prefix
        if all(len({a / b for a, b in zip(shifted, pv)}) == n for pv in prefixes):
            return delta
    return None


def stick_chunks(seed: int, trials: int, n: int, base):
    """Stick-breaking chunks with fresh arrays for every step: np.cumprod
    along each row, the shifted survivals built by concatenate.  Yields
    (first trial, (m, n) coordinates, residual masses)."""
    for chunk, m, first in _chunks(seed, trials):
        rng = _chunk_rng(seed, chunk)

        def draw(size):
            return rng.random(size) if base.kind == "uniform" else rng.beta(base.a, base.b, size)

        u = draw((m, n))
        mask = u >= 1.0
        while mask.any():
            u[mask] = draw(int(mask.sum()))
            mask = u >= 1.0
        kept = np.cumprod(1.0 - u, axis=1)
        prev = np.concatenate([np.ones((m, 1)), kept[:, :-1]], axis=1)
        yield first, u * prev, kept[:, -1]


def stick_matrix(seed: int, trials: int, n: int, base):
    """The chunks concatenated: (trials, n) coordinates and residuals."""
    _, xs, residuals = zip(*stick_chunks(seed, trials, n, base))
    return np.concatenate(xs, axis=0), np.concatenate(residuals, axis=0)


def full_compare(s):
    """Per-row flags of sorted ratio rows (m, n), every row compared in full:
    (an exactly equal pair, a near pair that is not equal).  A finite ratio
    beside inf is not near, though inf - a <= 1e-12·inf holds."""
    eq = s[:, 1:] == s[:, :-1]
    close = (s[:, 1:] - s[:, :-1]) <= NEAR_COLLISION_RTOL * np.abs(s[:, 1:])
    close &= np.isfinite(s[:, 1:])
    return eq.any(axis=1), (close & ~eq).any(axis=1)


def monte_carlo(prior, trials: int, n: int, base, seed: int):
    """Serial Monte Carlo with the full equal/near compare on every row:
    (McReport, {trial: first colliding pair}, [residual mass of each trial])."""
    p_float = np.array([float(v) for v in positive_prefix(prior, n)])
    exact = near = 0
    residual_sum = 0.0
    witness, residuals = {}, []
    for first, x, residual in stick_chunks(seed, trials, n, base):
        ratios = x / p_float
        exact_trials, near_trials = full_compare(np.sort(ratios, axis=1))
        exact += int(exact_trials.sum())
        near += int(near_trials.sum())
        residual_sum += float(residual.sum())
        for t in range(len(x)):
            if exact_trials[t]:
                witness[first + t] = RatioIndex(ratios[t].tolist()).first_collision
            residuals.append(float(residual[t]))
    report = McReport(trials, n, trials - exact, exact, near, residual_sum / trials, seed)
    return report, witness, residuals

"""Slow reference implementations that the library's fast paths must match.

Each one rebuilds what it needs from scratch at every step, exactly as the
library once did; tests compare the library against them byte for byte.
"""

import random
from fractions import Fraction
from typing import Sequence

from bayesblind import delta_family
from bayesblind.distributions import require_finite, require_positive_prefix

_DYADIC_BITS = 32


def ratio_profile(q, p, n=None) -> tuple:
    """Componentwise q_i / p_i, whose injectivity decides blind-spot
    membership; the prior must be strictly positive.  Without a horizon n
    both must be finite vectors of one length."""
    if n is None:
        n = require_finite(q, p)
    pv = require_positive_prefix(p, n)
    return tuple(a / b for a, b in zip(q.prefix_values(n), pv))


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
    prefixes = [require_positive_prefix(p, n) for p in priors]
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
    prefixes = [require_positive_prefix(p, n) for p in priors]
    rng = random.Random(seed)
    for _ in range(max_tries):
        delta = eps * Fraction(rng.randrange(1, 1 << 40), 1 << 40)
        shifted = delta_family(q, delta).prefix
        if all(len({a / b for a, b in zip(shifted, pv)}) == n for pv in prefixes):
            return delta
    return None

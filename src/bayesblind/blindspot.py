"""Blind-spot membership tests with witnesses and prefix verdicts.

A posterior q is in the blind spot of a strictly positive prior p exactly
when the ratios q_i / p_i are pairwise distinct.  A ``RatioIndex`` groups the
positions by ratio.  Both sides enter it as integer (numerator, denominator)
pairs, a geometric prior's from running integer products, and exact ratios
compare as cross products q_i p_j = q_j p_i, so a scan builds no Fraction; the
prior is strictly positive, so zero entries need no case.  A float entry is
compared as the exact rational it stores, like any other.

A verdict with a horizon N is limited to the first N ratios: it certifies
distinctness among those only, never full membership.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .distributions import (
    Distribution,
    FiniteDistribution,
    RatioIndex,
    require_finite,
    require_horizon,
    require_priors,
    require_stored,
)
from .jeffrey import Partition
from .records import Record


class Verdict(Record):
    """Whether the ratios are pairwise distinct, over all indices or, with a horizon, over
    the first ``horizon`` only.  ``witness`` is the first colliding pair (i, j), 1-based,
    with i < j; ``coarsest`` is set only for full verdicts with a collision."""

    __slots__ = ("distinct", "horizon", "witness", "coarsest")

    @property
    def status(self) -> str:
        if self.horizon is None:
            return "in_blind_spot" if self.distinct else "accessible"
        return f"prefix_distinct({self.horizon})" if self.distinct else "collision_found"

    def to_json(self) -> dict:
        out = {"status": self.status, "horizon_limited": self.horizon is not None}
        if self.horizon is not None:
            out["horizon"] = self.horizon
        if self.witness is not None:
            out["witness"] = list(self.witness)
        if self.coarsest is not None:
            out["coarsest"] = self.coarsest.to_json()
        return out


def _scans(priors: Sequence[Distribution], q: Distribution, n: int | None) -> list:
    """Ratio indices of the first n coordinates (all of them, for finite inputs
    of one length, if n is None) under each prior; q's pairs are read once."""
    if n is not None:
        require_horizon(n, *priors, q)
    m = require_finite(*priors, q) if n is None else n
    qs = q.prefix_pairs(m)
    return [RatioIndex(qs, pv) for pv in require_priors(m, *priors)]


def membership_finite(p: FiniteDistribution, q: FiniteDistribution) -> Verdict:
    """Full membership test on a finite index set.  An accessible verdict
    carries the coarsest witness partition, whose blocks are the fibres of
    the same ratio index."""
    return family_membership([p], q).verdicts[0]


def membership_prefix(p: Distribution, q: Distribution, n: int) -> Verdict:
    """Exact collision scan over the first n ratios."""
    return family_membership([p], q, n).verdicts[0]


class FamilyVerdict(Record):
    """Per-prior verdicts plus their conjunction over a prior family."""

    __slots__ = ("verdicts", "member")


def family_membership(
    priors: Sequence[Distribution], q: Distribution, n: int | None = None
) -> FamilyVerdict:
    """q is in BS(P) iff it is in BS(p) for every prior p in the family.

    With a horizon, per-prior verdicts cover the first n ratios; without one,
    all inputs must be finite and verdicts are full.
    """
    verdicts = []
    for index in _scans(priors, q, n):
        pair = index.first_collision
        coarsest = Partition(tuple(map(tuple, index.fibres()))) if n is None and pair else None
        verdicts.append(Verdict(pair is None, n, pair, coarsest))
    return FamilyVerdict(tuple(verdicts), all(v.distinct for v in verdicts))


def collision_count(p: Distribution, q: Distribution, n: int | None = None) -> int:
    """Number of unordered index pairs with exactly equal ratios."""
    return sum(len(f) * (len(f) - 1) // 2 for f in _scans([p], q, n)[0].fibres())


def geometric_witness(q: Distribution) -> tuple | None:
    """(r, (i, i+1)) from the first strict descent 0 < q_{i+1} < q_i of q's
    stored prefix, with r = q_{i+1} / q_i.  Under geometric(r) the pair
    collides, q_i / p_i = q_{i+1} / p_{i+1}, so q is outside BS(geometric(r)).
    None when the stored prefix has no descent; a truncated input's descent
    then lies in its unseen tail."""
    require_stored(q)
    pairs = q.prefix_pairs(len(q))
    for i, ((a, b), (c, d)) in enumerate(zip(pairs, pairs[1:]), 1):
        if 0 < c * b < a * d:  # 0 < c/d < a/b, with b, d > 0
            return Fraction(c * b, d * a), (i, i + 1)
    return None

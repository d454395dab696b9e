"""Blind-spot membership tests with witnesses and prefix verdicts.

A posterior q is in the blind spot of a strictly positive prior p exactly
when the ratios q_i / p_i are pairwise distinct.  A ``RatioIndex`` groups the
positions by ratio, comparing exact ratios as cross products q_i p_j = q_j p_i
with no division; the prior is strictly positive, so zero entries need no case.
A float entry is compared as the exact rational it stores, like any other.

A verdict with a horizon N is limited to the first N ratios: it certifies
distinctness among those only, never full membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .distributions import (
    Distribution,
    FiniteDistribution,
    RatioIndex,
    require_finite,
    require_positive_prefix,
)
from .errors import InputError
from .jeffrey import Partition


@dataclass(frozen=True)
class Verdict:
    """Whether the ratios are pairwise distinct, over all indices or, with a
    horizon, over the first ``horizon`` only."""

    distinct: bool
    horizon: Optional[int] = None
    witness: Optional[tuple] = None  # first colliding pair (i, j), 1-based, i < j
    coarsest: Optional[Partition] = None  # full verdicts with a collision only

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


def _scan(p: Distribution, q: Distribution, n: int | None) -> RatioIndex:
    """The ratio index of the first n coordinates; all of them, on finite
    inputs of one length, when n is None."""
    if n is None:
        n = require_finite(p, q)
    pv = require_positive_prefix(p, n)
    return RatioIndex.of(q.prefix_values(n), pv)


def membership_finite(p: FiniteDistribution, q: FiniteDistribution) -> Verdict:
    """Full membership test on a finite index set.  An accessible verdict
    carries the coarsest witness partition, whose blocks are the fibres of
    the same ratio index."""
    index = _scan(p, q, None)
    if index.first_collision is None:
        return Verdict(True)
    return Verdict(False, None, index.first_collision, Partition.of(index.fibres()))


def membership_prefix(p: Distribution, q: Distribution, n: int) -> Verdict:
    """Exact collision scan over the first n ratios."""
    pair = _scan(p, q, n).first_collision
    return Verdict(pair is None, n, pair)


@dataclass(frozen=True)
class FamilyVerdict:
    """Per-prior verdicts plus their conjunction over a prior family."""

    verdicts: tuple
    member: bool


def family_membership(
    priors: Sequence[Distribution], q: Distribution, n: int | None = None
) -> FamilyVerdict:
    """q is in BS(P) iff it is in BS(p) for every prior p in the family.

    With a horizon, per-prior verdicts cover the first n ratios; without one,
    all inputs must be finite and verdicts are full.
    """
    if not priors:
        raise InputError("prior family must be nonempty")
    verdicts = tuple(membership_finite(p, q) if n is None else membership_prefix(p, q, n)
                     for p in priors)
    return FamilyVerdict(verdicts, all(v.distinct for v in verdicts))


def collision_count(p: Distribution, q: Distribution, n: int | None = None) -> int:
    """Number of unordered index pairs with exactly equal ratios."""
    return sum(len(f) * (len(f) - 1) // 2 for f in _scan(p, q, n).fibres())

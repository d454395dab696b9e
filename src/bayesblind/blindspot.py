"""Blind-spot membership tests with witnesses and prefix verdicts.

A posterior q is in the blind spot of a strictly positive prior p exactly
when the ratios q_i / p_i are pairwise distinct.  Collision detection groups
the ratios in a ``RatioIndex``; the prior is strictly positive, so zero
posterior entries need no special case, and rational mode stays exact.

Prefix verdicts are horizon-limited: PrefixDistinct(N) certifies
distinctness among the first N ratios only, never full membership.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .distributions import (
    Distribution,
    FiniteDistribution,
    RatioIndex,
    prefix_of,
    require_positive_prefix,
)
from .errors import LengthMismatch, ZeroPrior
from .jeffrey import Partition, coarsest_partition

IN_BLIND_SPOT = "in_blind_spot"
ACCESSIBLE = "accessible"


@dataclass(frozen=True)
class BlindSpotVerdict:
    status: str
    witness: Optional[tuple] = None  # (i, j), 1-based, i < j
    coarsest: Optional[Partition] = None

    @property
    def in_blind_spot(self) -> bool:
        return self.status == IN_BLIND_SPOT


@dataclass(frozen=True)
class PrefixVerdict:
    """Horizon-limited verdict over the first N ratios."""

    distinct: bool
    horizon: int
    collision: Optional[tuple] = None  # (i, j), 1-based, i < j

    @property
    def status(self) -> str:
        return f"prefix_distinct({self.horizon})" if self.distinct else "collision_found"


def membership_finite(p: FiniteDistribution, q: FiniteDistribution) -> BlindSpotVerdict:
    """Full membership test on a finite index set."""
    if len(p) != len(q):
        raise LengthMismatch(f"lengths differ: {len(p)} vs {len(q)}")
    pv = require_positive_prefix(p, len(p))
    pair = RatioIndex.of(q.probs, pv).first_collision
    if pair is None:
        return BlindSpotVerdict(IN_BLIND_SPOT)
    return BlindSpotVerdict(ACCESSIBLE, pair, coarsest_partition(p, q))


def membership_prefix(p: Distribution, q: Distribution, n: int) -> PrefixVerdict:
    """Exact collision scan over the first n ratios."""
    pv = require_positive_prefix(p, n)
    qv = prefix_of(q, n)
    pair = RatioIndex.of(qv, pv).first_collision
    if pair is None:
        return PrefixVerdict(True, n)
    return PrefixVerdict(False, n, pair)


@dataclass(frozen=True)
class FamilyVerdict:
    """Per-prior verdicts plus their conjunction over a prior family."""

    verdicts: tuple
    member: bool


def family_membership(
    priors: Sequence[Distribution], q: Distribution, n: int | None = None
) -> FamilyVerdict:
    """q is in BS(P) iff it is in BS(p) for every prior p in the family.

    With a horizon, per-prior results are PrefixVerdicts; without one, all
    inputs must be finite and results are full BlindSpotVerdicts.
    """
    if not priors:
        raise ZeroPrior("prior family must be nonempty")
    if n is None:
        verdicts = tuple(membership_finite(p, q) for p in priors)
        member = all(v.in_blind_spot for v in verdicts)
    else:
        verdicts = tuple(membership_prefix(p, q, n) for p in priors)
        member = all(v.distinct for v in verdicts)
    return FamilyVerdict(verdicts, member)


def collision_count(p: Distribution, q: Distribution, n: int | None = None) -> int:
    """Number of unordered index pairs with exactly equal ratios."""
    if n is None:
        if not isinstance(q, FiniteDistribution) or not isinstance(p, FiniteDistribution):
            raise LengthMismatch("horizon required for non-finite distributions")
        if len(p) != len(q):
            raise LengthMismatch(f"lengths differ: {len(p)} vs {len(q)}")
        n = len(p)
    pv = require_positive_prefix(p, n)
    qv = prefix_of(q, n)
    fibres = RatioIndex.of(qv, pv).fibres()
    return sum(len(f) * (len(f) - 1) // 2 for f in fibres)

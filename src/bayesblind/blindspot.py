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
    require_finite,
    require_positive_prefix,
)
from .errors import ZeroPrior
from .jeffrey import Partition, check_prior

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
    """Full membership test on a finite index set.  An accessible verdict
    carries the coarsest witness partition, whose blocks are the fibres of
    the same ratio index; like ``coarsest_partition`` it needs an exact prior."""
    pv = require_positive_prefix(p, require_finite(p, q))
    index = RatioIndex.of(q.probs, pv)
    if index.first_collision is None:
        return BlindSpotVerdict(IN_BLIND_SPOT)
    check_prior(p)
    return BlindSpotVerdict(ACCESSIBLE, index.first_collision, Partition.of(index.fibres()))


def membership_prefix(p: Distribution, q: Distribution, n: int) -> PrefixVerdict:
    """Exact collision scan over the first n ratios."""
    pv = require_positive_prefix(p, n)
    pair = RatioIndex.of(q.prefix_values(n), pv).first_collision
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
        n = require_finite(p, q)
    pv = require_positive_prefix(p, n)
    fibres = RatioIndex.of(q.prefix_values(n), pv).fibres()
    return sum(len(f) * (len(f) - 1) // 2 for f in fibres)

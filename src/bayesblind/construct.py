"""Constructive generators and perturbation procedures with certified bounds.

Everything here is exact-rational and deterministic given (inputs, seed).
Outputs are never trusted from construction alone: callers re-verify them
through the blindspot and metrics modules, and the result objects carry the
data needed for that re-check (collision pairs, exact l1 move costs).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .distributions import (
    Distribution,
    RatioIndex,
    TruncatedDistribution,
    exact_sum,
    require_positive_prefix,
    require_stored,
)
from .errors import HorizonInsufficient, InputError

#: extra dyadic resolution below the 2^-i envelope for generated coordinates
_DYADIC_BITS = 32


def generate_raw_sequence(
    priors: Sequence[Distribution], n: int, seed: int
) -> tuple:
    """The m_i sequence: m_1 = 1/2, then m_i in (0, 2^-i) avoiding all
    ratio collisions with earlier coordinates, for every prior.

    Candidates are seeded random dyadics k / 2^(i + 32).  Candidate c
    collides under prior p iff c = m_j * p_i / p_j for some j < i, iff
    c * p_j = m_j * p_i; each prior keeps the pairs (m_j, p_j) in a
    ``RatioIndex`` grown by one per accepted coordinate, so the sequence costs
    O(N * K) integer arithmetic for K priors, with no division.  The forbidden set is finite at every step, so
    the retry loop always terminates.
    """
    if not priors:
        raise InputError("prior family must be nonempty")
    if n < 2:
        raise InputError("horizon must be at least 2")
    prefixes = [require_positive_prefix(p, n) for p in priors]
    rng = random.Random(seed)
    ms = [Fraction(1, 2)]
    seen = [RatioIndex.of(ms, pv) for pv in prefixes]
    for i in range(2, n + 1):
        denom = 1 << (i + _DYADIC_BITS)
        while True:
            candidate = Fraction(rng.randrange(1, 1 << _DYADIC_BITS), denom)
            if not any(index.contains(candidate, pv[i - 1])
                       for pv, index in zip(prefixes, seen)):
                break
        ms.append(candidate)
        for pv, index in zip(prefixes, seen):
            index.add(candidate, pv[i - 1])
    return tuple(ms)


def generate_blindspot_member(
    priors: Sequence[Distribution], n: int, seed: int
) -> TruncatedDistribution:
    """Prefix-normalized m sequence: a blind-spot member at horizon n for
    every prior in the family (normalization preserves ratio distinctness)."""
    ms = generate_raw_sequence(priors, n, seed)
    total = exact_sum(ms)
    return TruncatedDistribution(tuple(m / total for m in ms), Fraction(0))


def _require_exact(q: Distribution, what: str) -> None:
    """The construction guard: q has a stored, exact-rational prefix."""
    require_stored(q)
    if not q.is_exact:
        raise InputError(f"{what} requires an exact-rational distribution")


def delta_family(q: TruncatedDistribution, delta: Fraction) -> TruncatedDistribution:
    """The shift (q_1 + delta, q_2 - delta, q_3, ...); mass preserved."""
    _require_exact(q, "delta_family")
    if not (0 < delta < q.value(2)):
        raise InputError(f"delta must lie in (0, q_2) = (0, {q.value(2)}), got {delta}")
    prefix = (q.prefix[0] + delta, q.prefix[1] - delta) + q.prefix[2:]
    return TruncatedDistribution(prefix, q.tail_mass)


def pick_valid_delta(
    q: TruncatedDistribution,
    priors: Sequence[Distribution],
    eps: Fraction,
    seed: int,
) -> Fraction:
    """A delta in (0, eps) whose shifted distribution stays prefix-distinct
    for every prior.

    The deltas are eps * k / 2^40 for 0 < k < 2^40.  The seed draws the first
    k, and while its delta fails k steps to k % (2^40 - 1) + 1.  Each prior
    excludes at most 2N - 3 deltas (r_1 rises and r_2 falls with delta, so
    each meets r_2 or one of the N - 2 fixed ratios once), and the scan ends
    within K(2N - 3) + 1 steps.  Only coordinates 1 and 2 move: each prior's
    pairs (q_i, p_i), i >= 3, are indexed once and a step cross-multiplies the
    two moved ones against them.  A repeat among 3..N raises HorizonInsufficient.
    """
    _require_exact(q, "pick_valid_delta")
    if q.value(2) == 0:
        raise InputError("q_2 = 0: the delta shift is unavailable")
    cap = min(1 - q.value(1), q.value(2))
    if not (0 < eps <= cap):
        raise InputError(f"eps must lie in (0, {cap}], got {eps}")
    n = len(q)
    pvs = [require_positive_prefix(p, n) for p in priors]
    fixed = [(pv[0], pv[1], RatioIndex.of(q.prefix[2:], pv[2:])) for pv in pvs]
    if any(rest.first_collision for _, _, rest in fixed):
        raise HorizonInsufficient("indices 3..N already collide; no delta can help")
    q1, q2 = q.prefix[0], q.prefix[1]
    scale = 1 << 40
    k = random.Random(seed).randrange(1, scale)
    while True:
        delta = eps * Fraction(k, scale)
        a1, a2 = q1 + delta, q2 - delta
        if all(
            a1 * p2 != a2 * p1 and not rest.contains(a1, p1) and not rest.contains(a2, p2)
            for p1, p2, rest in fixed
        ):
            return delta
        k = k % (scale - 1) + 1


@dataclass(frozen=True)
class DensifyResult:
    distribution: TruncatedDistribution
    l1_upper: Fraction  # certified upper bound on the full-sequence distance


def densify(p: Distribution, q_target: Distribution, eps: Fraction) -> DensifyResult:
    """A prefix-distinct distribution within l1 distance 4*eps of q_target.

    Coordinate rule: keep q_n when its ratio is new; otherwise nudge up by
    the largest power-of-two fraction of eps below eps / 2^(n+1) whose ratio
    is unused (halving further on the rare repeat).  The nudged vector is
    then normalized by its total mass.  The rule is deterministic.
    """
    if not (0 < eps < Fraction(1, 2)):
        raise InputError(f"eps must lie in (0, 1/2), got {eps}")
    _require_exact(q_target, "densify")
    n = len(q_target)
    pv = require_positive_prefix(p, n)
    qv = q_target.prefix
    rs = [qv[0]]
    seen = RatioIndex.of(rs, pv)
    for i in range(1, n):
        value = qv[i]
        if seen.contains(value, pv[i]):
            nudge = eps / (1 << (i + 3))  # < eps / 2^(n+1) with n = i+1 1-based
            while seen.contains(value + nudge, pv[i]):
                nudge /= 2
            value = value + nudge
        if abs(value - qv[i]) >= eps / (1 << (i + 1)):
            raise HorizonInsufficient(f"nudge at index {i + 1} exceeds eps / 2^{i + 1}")
        rs.append(value)
        seen.add(value, pv[i])
    total = exact_sum(rs)
    if total == 0:
        raise HorizonInsufficient("target prefix carries no mass to normalize")
    out = TruncatedDistribution(tuple(r / total for r in rs), Fraction(0))
    prefix_dist = exact_sum(abs(a - b) for a, b in zip(out.prefix, qv))
    upper = prefix_dist + q_target.tail_after(n)
    if upper >= 4 * eps:
        raise HorizonInsufficient(
            f"cannot certify the 4*eps bound: upper {upper} vs {4 * eps}"
        )
    return DensifyResult(out, upper)


@dataclass(frozen=True)
class CollisionMoveResult:
    distribution: TruncatedDistribution
    pairs: tuple  # colliding pairs (1, n) created by construction
    branch: str  # "positive" | "negative" for single moves, "mixed" otherwise
    l1_distance: Fraction  # exact: only prefix coordinates moved, tail shared
    fallback_used: bool = False  # q_2 = 0 handled via q_3


def _budget_index(q: TruncatedDistribution) -> int:
    """Coordinate that absorbs negative-branch mass: 2, or 3 when q_2 = 0."""
    if q.value(2) > 0:
        return 2
    if q.value(3) > 0:
        return 3
    raise InputError("q_2 = q_3 = 0: no budget coordinate")


def _threshold_index(qv, pv, eps: Fraction, n: int) -> int:
    """Smallest n0 <= n-1 with q_i < eps and p_i / p_1 < eps for all i >= n0."""
    ok_from = n + 1
    for i in range(n, 1, -1):
        if qv[i - 1] < eps and pv[i - 1] / pv[0] < eps:
            ok_from = i
        else:
            break
    if ok_from > n - 1:
        raise HorizonInsufficient(
            "no admissible index below the horizon; enlarge the prefix or eps"
        )
    return ok_from


def _collision_move(work, qv, pv, target_idx, budget_idx):
    """Retarget coordinate target_idx onto the prior's ray through q_1.

    Returns (branch, cost): excess mass moves to the next coordinate
    (positive branch) or is taken from budget_idx (negative branch).  Cost is
    the exact l1 change, < 2*eps by the threshold condition on target_idx.
    """
    t = target_idx - 1
    aligned = qv[0] * pv[t] / pv[0]
    if work[t] > aligned:
        delta = work[t] - aligned
        work[t] = aligned
        work[t + 1] += delta
        return "positive", 2 * delta
    rho = aligned - work[t]
    if work[budget_idx - 1] < rho:
        raise HorizonInsufficient("budget coordinate exhausted by negative moves")
    work[t] = aligned
    work[budget_idx - 1] -= rho
    return "negative", 2 * rho


def _collide(q, pv, targets, budget, bound, bound_name) -> CollisionMoveResult:
    """Collision moves at the sorted ``targets``, each dumping into the next
    coordinate, with their exact total l1 cost certified below ``bound``."""
    work = list(q.prefix)
    branches = set()
    total = Fraction(0)
    for t in targets:
        branch, cost = _collision_move(work, q.prefix, pv, t, budget)
        branches.add(branch)
        total += cost
    if total >= bound:
        raise HorizonInsufficient(f"cannot certify the {bound_name} bound: cost {total}")
    return CollisionMoveResult(
        TruncatedDistribution(tuple(work), q.tail_mass),
        tuple((1, t) for t in targets),
        branches.pop() if len(branches) == 1 else "mixed",
        total,
        fallback_used=(budget == 3),
    )


def exteriorize(
    p: Distribution, q: Distribution, eps: Fraction
) -> CollisionMoveResult:
    """Minimal perturbation out of the blind spot: coordinate n is retargeted
    so that the pair (1, n) collides exactly, at l1 cost below 2*eps."""
    _require_exact(q, "exteriorize")
    n = len(q)
    budget = _budget_index(q)
    if not (0 < eps < q.value(budget)):
        raise InputError(
            f"eps must lie in (0, q_{budget}) = (0, {q.value(budget)}), got {eps}"
        )
    pv = require_positive_prefix(p, n)
    idx = _threshold_index(q.prefix, pv, eps, n)
    return _collide(q, pv, [idx], budget, 2 * eps, "2*eps")


def multi_collision_near(
    p: Distribution, q: Distribution, pairs: int, eps: Fraction
) -> CollisionMoveResult:
    """At least ``pairs`` exact ratio collisions within l1 distance 2*pairs*eps.

    Applies the exteriorize move at ``pairs`` disjoint target indices taken
    greedily from the largest admissible ones (every other index, so each
    positive-branch dump coordinate stays untouched by other moves).
    """
    if pairs < 1:
        raise InputError(f"pair count must be positive, got {pairs}")
    _require_exact(q, "multi_collision_near")
    n = len(q)
    budget = _budget_index(q)
    if not (0 < pairs * eps < q.value(budget)):
        raise InputError(
            f"pairs * eps = {pairs * eps} must lie in (0, q_{budget}) = (0, {q.value(budget)})"
        )
    pv = require_positive_prefix(p, n)
    base = _threshold_index(q.prefix, pv, eps, n)
    targets = list(range(n - 1, base - 1, -2))[:pairs]
    if len(targets) < pairs:
        raise HorizonInsufficient(
            f"only {len(targets)} disjoint moves available at this horizon"
        )
    return _collide(q, pv, sorted(targets), budget, 2 * pairs * eps, "2*pairs*eps")

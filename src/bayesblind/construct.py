"""Generators for finite prior families, and perturbations with certified bounds.

Everything here is exact-rational and deterministic given (inputs, seed).
Outputs are never trusted from construction alone: callers re-verify them
through the blindspot and metrics modules, and the result objects carry the
data needed for that re-check (collision pairs, exact l1 move costs).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from .distributions import (
    Distribution,
    RatioIndex,
    TruncatedDistribution,
    exact_sum,
    l1_gap,
    require_horizon,
    require_positive_prefix,
    require_stored,
    shares,
)
from .errors import HorizonInsufficient, InputError
from .records import Record

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
    O(N * K) integer arithmetic for K priors, with no division, each prior
    probing a candidate once.  The forbidden set is finite at every step, so
    the retry loop always terminates.
    """
    if not priors:
        raise InputError("prior family must be nonempty")
    if n < 2:
        raise InputError("horizon must be at least 2")
    require_horizon(n, *priors)
    prefixes = [require_positive_prefix(p, n) for p in priors]
    rng = random.Random(seed)
    ms = [Fraction(1, 2)]
    seen = [RatioIndex([(1, 2)], pv) for pv in prefixes]
    for i in range(2, n + 1):
        denom = 1 << (i + _DYADIC_BITS)
        while True:
            candidate = (rng.randrange(1, 1 << _DYADIC_BITS), denom)
            probes = [index.probe(candidate, pv[i - 1]) for pv, index in zip(prefixes, seen)]
            if all(fibre is None for _, fibre in probes):
                break
        ms.append(Fraction(*candidate))
        for index, probe in zip(seen, probes):
            index.commit(*probe)
    return tuple(ms)


def generate_blindspot_member(
    priors: Sequence[Distribution], n: int, seed: int
) -> TruncatedDistribution:
    """Prefix-normalized m sequence: a blind-spot member at horizon n for every
    prior of a finite family (normalization preserves ratio distinctness)."""
    ms = generate_raw_sequence(priors, n, seed)
    return TruncatedDistribution(shares([m.as_integer_ratio() for m in ms]), Fraction(0))


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
    qs = q.prefix_pairs(n)
    fixed = [(pv[0], pv[1], RatioIndex(qs[2:], pv[2:])) for pv in pvs]
    if any(rest.first_collision for _, _, rest in fixed):
        raise HorizonInsufficient("indices 3..N already collide; no delta can help")
    q1, q2 = q.prefix[0], q.prefix[1]
    scale = 1 << 40
    k = random.Random(seed).randrange(1, scale)
    while True:
        delta = eps * Fraction(k, scale)
        a1, a2 = (q1 + delta).as_integer_ratio(), (q2 - delta).as_integer_ratio()
        for p1, p2, rest in fixed:
            ((_, x1, y1), hit1), ((_, x2, y2), hit2) = rest.probe(a1, p1), rest.probe(a2, p2)
            if hit1 or hit2 or x1 * y2 == y1 * x2:
                break
        else:
            return delta
        k = k % (scale - 1) + 1


class DensifyResult(Record):
    __slots__ = ("distribution", "l1_upper")  # l1_upper bounds the full-sequence distance


def densify(p: Distribution, q_target: Distribution, eps: Fraction) -> DensifyResult:
    """A prefix-distinct distribution within l1 distance 4*eps of q_target.

    Coordinate rule: keep q_n when its ratio is new; otherwise nudge up by
    the largest power-of-two fraction of eps below eps / 2^(n+1) whose ratio
    is unused (halving further on the rare repeat); the rule is deterministic.
    The nudged vector is normalized, and its l1 gap summed, over one lcm.

    Two bounds hold by construction and are not checked: a nudge at index
    i + 1 is eps / 2^s with s >= i + 3, below eps / 2^(i+1); and the total is
    positive, as nudges only add mass and a zero q_2 after a zero q_1 shares
    ratio 0 with it and is nudged.  Only the 4*eps bound, which a fat tail
    can break, is checked.
    """
    if not (0 < eps < Fraction(1, 2)):
        raise InputError(f"eps must lie in (0, 1/2), got {eps}")
    _require_exact(q_target, "densify")
    n = len(q_target)
    pv = require_positive_prefix(p, n)
    qv, qs = q_target.prefix, q_target.prefix_pairs(n)
    rs = [qs[0]]
    seen = RatioIndex(qs[:1], pv)
    for i in range(1, n):
        pair, shift = qs[i], i + 3  # nudges from eps / 2^(i+3) < eps / 2^(n+1), n = i+1
        probe = seen.probe(pair, pv[i])
        while probe[1] is not None:
            pair = (qv[i] + eps / (1 << shift)).as_integer_ratio()
            shift += 1
            probe = seen.probe(pair, pv[i])
        rs.append(pair)
        seen.commit(*probe)
    out = TruncatedDistribution(shares(rs), Fraction(0))
    upper = l1_gap(out.prefix_pairs(n), qs) + q_target.tail_mass
    if upper >= 4 * eps:
        raise HorizonInsufficient(
            f"cannot certify the 4*eps bound: upper {upper} vs {4 * eps}"
        )
    return DensifyResult(out, upper)


class CollisionMoveResult(Record):
    """The moved distribution and the colliding pairs (1, n) the moves created.  ``branch``
    is "positive"/"negative" for one move and "mixed" otherwise; ``l1_distance`` is exact,
    as only prefix coordinates move; ``fallback_used`` means q_3 paid because q_2 = 0."""

    __slots__ = ("distribution", "pairs", "branch", "l1_distance", "fallback_used")


def _move_prelude(p, q, eps, spend, spend_name, what) -> tuple:
    """Guards shared by the collision moves, raised in this order: q exact;
    a budget coordinate (q_2, else q_3 if stored) above ``spend``; p > 0; an
    admissible index.  Returns (pv, budget, n0): p's prefix as integer pairs,
    the 1-based budget index, and the smallest n0 <= n-1 with q_i < eps and
    p_i / p_1 < eps for all i >= n0, compared as integer cross products."""
    _require_exact(q, what)
    qv, n = q.prefix, len(q)
    budget = next((b for b in (2, 3) if b <= n and qv[b - 1] > 0), None)
    if budget is None:
        raise InputError("q_2 = 0 and q_3 is 0 or not stored: no budget coordinate")
    if not (0 < spend < qv[budget - 1]):
        raise InputError(
            f"{spend_name} must lie in (0, q_{budget}) = (0, {qv[budget - 1]}), got {spend}"
        )
    pv = require_positive_prefix(p, n)
    (c, d), (e, f) = pv[0], eps.as_integer_ratio()
    n0 = n + 1  # p_i / p_1 < eps as a d f < e c b, for p_i = a / b
    while n0 > 2 and qv[n0 - 2] < eps and pv[n0 - 2][0] * d * f < e * c * pv[n0 - 2][1]:
        n0 -= 1
    if n0 > n - 1:
        raise HorizonInsufficient(
            "no admissible index below the horizon; enlarge the prefix or eps"
        )
    return pv, budget, n0


def _collision_move(work, qv, pv, target_idx, budget_idx):
    """Retarget coordinate target_idx onto the prior's ray through q_1.

    Returns (branch, cost): excess mass moves to the next coordinate
    (positive branch) or is taken from budget_idx (negative branch).  Cost is
    the exact l1 change, < 2*eps by the threshold condition on target_idx.
    """
    t = target_idx - 1
    aligned = qv[0] * Fraction(pv[t][0] * pv[0][1], pv[t][1] * pv[0][0])  # q_1 p_t / p_1
    delta = work[t] - aligned
    if delta <= 0 and work[budget_idx - 1] < -delta:
        raise HorizonInsufficient("budget coordinate exhausted by negative moves")
    work[t] = aligned
    work[t + 1 if delta > 0 else budget_idx - 1] += delta
    return ("positive", 2 * delta) if delta > 0 else ("negative", -2 * delta)


def _collide(q, pv, targets, budget, bound, bound_name) -> CollisionMoveResult:
    """Collision moves at the sorted ``targets``, each dumping into the next
    coordinate, with their exact total l1 cost certified below ``bound``."""
    work = list(q.prefix)
    branches, costs = set(), []
    for t in targets:
        branch, cost = _collision_move(work, q.prefix, pv, t, budget)
        branches.add(branch)
        costs.append(cost)
    total = exact_sum(costs)
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
    pv, budget, n0 = _move_prelude(p, q, eps, eps, "eps", "exteriorize")
    return _collide(q, pv, [n0], budget, 2 * eps, "2*eps")


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
    pv, budget, n0 = _move_prelude(p, q, eps, pairs * eps, "pairs * eps", "multi_collision_near")
    targets = list(range(len(q) - 1, n0 - 1, -2))[:pairs]
    if len(targets) < pairs:
        raise HorizonInsufficient(
            f"only {len(targets)} disjoint moves available at this horizon"
        )
    return _collide(q, pv, sorted(targets), budget, 2 * pairs * eps, "2*pairs*eps")

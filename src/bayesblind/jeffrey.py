"""Jeffrey conditioning on finite index sets.

Partitions carry 1-based indices and are kept in canonical form: indices
ascending within a block, blocks ordered by smallest element.  Rigidity and
brute force compare ratios q_x / p_x by integer cross products built once per
call; ``jc_apply`` weights each block's prior ``shares``.  Brute force enumerates all
set partitions in restricted-growth-string lexicographic order, which fixes witnesses.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from .distributions import (
    FiniteDistribution, RatioIndex, exact_sum, json_list, require_exact, require_finite,
    require_priors, shares,
)
from .errors import InputError
from .records import Record, setfield

#: Bell-number enumeration bound for accessible_brute_force
BRUTE_FORCE_MAX_N = 8


class Partition(Record):
    """Set partition of {1..n} in canonical block order.  ``of`` (which ``from_json``
    calls) is the validating entry for outside data; the constructor trusts its
    callers, ``of``, the brute-force witness and the fibres of a ``RatioIndex``,
    to pass canonical blocks."""

    __slots__ = ("blocks",)

    @classmethod
    def of(cls, blocks: Iterable[Iterable[int]]) -> "Partition":
        """Canonicalize arbitrary block order/content and validate."""
        blocks = [tuple(b) for b in blocks]
        for i in (i for b in blocks for i in b):  # before sorting mixed types
            if isinstance(i, bool) or not isinstance(i, int) or i < 1:
                raise InputError(f"partition indices are positive integers, got {i!r}")
        canon = sorted(tuple(sorted(b)) for b in blocks)
        seen = set()
        for block in canon:
            if not block:
                raise InputError("empty partition block")
            for i in block:
                if i in seen:
                    raise InputError(f"index {i} appears in two blocks")
                seen.add(i)
        if seen != set(range(1, len(seen) + 1)):
            raise InputError("blocks must cover {1..n} without gaps")
        return cls(tuple(canon))

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    def to_json(self) -> dict:
        return {"blocks": [list(b) for b in self.blocks]}

    @classmethod
    def from_json(cls, obj) -> "Partition":
        """A JSON object whose one key, ``blocks``, holds a list of index lists."""
        if not isinstance(obj, dict) or obj.keys() != {"blocks"}:
            raise InputError(f"a partition is a JSON object with the one key 'blocks', got {obj!r}")
        return cls.of(json_list(b) for b in json_list(obj["blocks"]))


class BlockWeights(Record):
    """New block probabilities q(E_i): nonnegative rationals summing to 1."""

    __slots__ = ("weights",)

    def __init__(self, weights: Iterable):
        setfield(self, "weights", tuple(Fraction(w) for w in weights))
        for w in self.weights:
            if w < 0:
                raise InputError(f"negative block weight {w}")
        if (total := exact_sum(self.weights)) != 1:
            raise InputError(f"block weights sum to {total}, not 1")


def partitions(n: int) -> Iterator[tuple]:
    """Canonical block tuples, no ``Partition`` each, of all set partitions of {1..n}:
    their restricted growth strings (the block label of each index) ascend
    lexicographically.  Index i joins each open block in turn, then opens its own."""

    def grow(blocks: tuple, i: int):
        if i > n:
            yield blocks
            return
        for k, b in enumerate(blocks):
            yield from grow(blocks[:k] + (b + (i,),) + blocks[k + 1:], i + 1)
        yield from grow(blocks + ((i,),), i + 1)

    return grow((), 1)


def check_prior(p: FiniteDistribution, *posteriors: FiniteDistribution) -> tuple:
    """Exact-rational finite vectors on one index set; a strictly positive
    prior, whose integer pairs are returned."""
    require_finite(p, *posteriors)
    return require_priors(require_exact("Jeffrey conditioning", p, *posteriors), p)[0]


def _check_shapes(p: FiniteDistribution, e: Partition) -> None:
    if e.n != len(p):
        raise InputError(f"partition covers {e.n} indices, distribution has {len(p)}")


def jc_apply(p: FiniteDistribution, e: Partition, w: BlockWeights) -> FiniteDistribution:
    """Jeffrey conditioning: q_x = w_b * p_x / p(E_b) for x in block E_b."""
    ps = check_prior(p)
    _check_shapes(p, e)
    if len(w.weights) != len(e.blocks):
        raise InputError(
            f"{len(w.weights)} weights for {len(e.blocks)} blocks"
        )
    out = [Fraction(0)] * len(p)
    for block, wb in zip(e.blocks, w.weights):  # w_b * p_x / p(E_b) for x in E_b
        for i, x in zip(block, shares([ps[i - 1] for i in block], *wb.as_integer_ratio())):
            out[i - 1] = x
    return FiniteDistribution(tuple(out))


def _cross_products(ps: tuple, q: FiniteDistribution) -> list:
    """(x_i, y_i) = (a d, b c) for q_i = a/b, p_i = c/d: q_i/p_i = x_i/y_i exactly."""
    return [(a * d, b * c) for (a, b), (c, d) in zip(q.prefix_pairs(len(q)), ps)]


def _ratio_constant(xy: list, blocks: tuple) -> bool:
    """Within every block, all q_x / p_x agree, compared by cross products."""
    for block in blocks:
        x, y = xy[block[0] - 1]
        for i in block[1:]:
            xi, yi = xy[i - 1]
            if x * yi != y * xi:
                return False
    return True


def rigidity_holds(p: FiniteDistribution, q: FiniteDistribution, e: Partition) -> bool:
    """q(x|E_i) = p(x|E_i) on every block with q(E_i) > 0; as p > 0, exactly
    when q_x / p_x is constant on every block (then equal to q(E_i) / p(E_i))."""
    ps = check_prior(p, q)
    _check_shapes(p, e)
    return _ratio_constant(_cross_products(ps, q), e.blocks)


def coarsest_partition(p: FiniteDistribution, q: FiniteDistribution) -> Partition:
    """Fibers of the ratio map x -> q_x / p_x, in canonical order."""
    ps = check_prior(p, q)
    return Partition(tuple(map(tuple, RatioIndex(q.prefix_pairs(len(q)), ps).fibres())))


class Accessibility(Record):
    """Brute-force verdict: accessible via some nontrivial partition, or not."""

    __slots__ = ("accessible", "witness")


def accessible_brute_force(p: FiniteDistribution, q: FiniteDistribution) -> Accessibility:
    """Enumerate every set partition; first nontrivial JC witness wins.

    Independent oracle for the ratio-distinctness characterization; result
    order is fixed by the RGS enumeration regardless of any internal fan-out.
    """
    ps = check_prior(p, q)
    if len(p) > BRUTE_FORCE_MAX_N:
        raise InputError(f"brute force limited to n <= {BRUTE_FORCE_MAX_N}")
    xy = _cross_products(ps, q)
    for blocks in partitions(len(p)):  # nontrivial: fewer blocks than indices
        if len(blocks) < len(p) and _ratio_constant(xy, blocks):
            return Accessibility(True, Partition(blocks))
    return Accessibility(False, None)

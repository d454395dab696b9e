"""Jeffrey conditioning on finite index sets.

Partitions carry 1-based indices and are kept in canonical form: indices
ascending within a block, blocks ordered by smallest element.  Brute-force
accessibility enumerates all set partitions in restricted-growth-string
lexicographic order, which fixes witness selection deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .distributions import FiniteDistribution, RatioIndex, require_finite
from .errors import (
    LengthMismatch,
    NegativeEntry,
    NotNormalized,
    OutOfRange,
    TooLarge,
    WeightCountMismatch,
    ZeroPrior,
)

#: Bell-number enumeration bound for accessible_brute_force
BRUTE_FORCE_MAX_N = 8


@dataclass(frozen=True)
class Partition:
    """Set partition of {1..n} in canonical block order."""

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(tuple(b) for b in self.blocks))
        seen = set()
        for block in self.blocks:
            if not block:
                raise OutOfRange("empty partition block")
            if list(block) != sorted(block):
                raise OutOfRange(f"block indices must be ascending: {block}")
            for i in block:
                if not isinstance(i, int) or i < 1:
                    raise OutOfRange(f"partition indices are positive integers, got {i!r}")
                if i in seen:
                    raise OutOfRange(f"index {i} appears in two blocks")
                seen.add(i)
        n = len(seen)
        if seen != set(range(1, n + 1)):
            raise OutOfRange("blocks must cover {1..n} without gaps")
        mins = [b[0] for b in self.blocks]
        if mins != sorted(mins):
            raise OutOfRange("blocks must be ordered by smallest element")

    @classmethod
    def of(cls, blocks: Iterable[Iterable[int]]) -> "Partition":
        """Canonicalize arbitrary block order/content and validate."""
        canon = sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0] if b else 0)
        return cls(tuple(canon))

    @property
    def n(self) -> int:
        return sum(len(b) for b in self.blocks)

    def to_json(self) -> dict:
        return {"blocks": [list(b) for b in self.blocks]}

    @classmethod
    def from_json(cls, obj: dict) -> "Partition":
        return cls.of(obj["blocks"])

    def refines(self, other: "Partition") -> bool:
        """True iff every block of self is contained in some block of other."""
        where = {}
        for k, block in enumerate(other.blocks):
            for i in block:
                where[i] = k
        for block in self.blocks:
            if len({where[i] for i in block}) != 1:
                return False
        return True


@dataclass(frozen=True)
class BlockWeights:
    """New block probabilities q(E_i): nonnegative rationals summing to 1."""

    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "weights", tuple(Fraction(w) for w in self.weights))
        for w in self.weights:
            if w < 0:
                raise NegativeEntry(f"negative block weight {w}")
        if sum(self.weights) != 1:
            raise NotNormalized(f"block weights sum to {sum(self.weights)}, not 1")


def _restricted_growth_strings(n: int) -> Iterator[tuple]:
    """All RGS of length n in lexicographic order."""
    a = [0] * n

    def rec(i: int, mx: int):
        if i == n:
            yield tuple(a)
            return
        for v in range(mx + 2):
            a[i] = v
            yield from rec(i + 1, max(mx, v))

    yield from rec(1, 0)


def partitions(n: int) -> Iterator[Partition]:
    """All set partitions of {1..n}, RGS-lexicographic (canonical) order."""
    for rgs in _restricted_growth_strings(n):
        nblocks = max(rgs) + 1
        blocks = [[] for _ in range(nblocks)]
        for i, label in enumerate(rgs, start=1):
            blocks[label].append(i)
        yield Partition(tuple(tuple(b) for b in blocks))


def is_nontrivial(e: Partition) -> bool:
    """True iff some block has at least two elements."""
    return any(len(b) >= 2 for b in e.blocks)


def check_prior(p: FiniteDistribution, *posteriors: FiniteDistribution) -> None:
    """Finite vectors on one index set, and an exact, strictly positive prior."""
    require_finite(p, *posteriors)
    if not p.is_exact:
        raise ZeroPrior("priors must be exact-rational distributions")
    if any(v <= 0 for v in p.probs):
        raise ZeroPrior("prior must be strictly positive")
    for q in posteriors:
        if len(q) != len(p):
            raise LengthMismatch(f"lengths differ: {len(p)} vs {len(q)}")


def _check_shapes(p: FiniteDistribution, e: Partition) -> None:
    if e.n != len(p):
        raise LengthMismatch(f"partition covers {e.n} indices, distribution has {len(p)}")


def jc_apply(p: FiniteDistribution, e: Partition, w: BlockWeights) -> FiniteDistribution:
    """Jeffrey conditioning: q_x = w_b * p_x / p(E_b) for x in block E_b."""
    check_prior(p)
    _check_shapes(p, e)
    if len(w.weights) != len(e.blocks):
        raise WeightCountMismatch(
            f"{len(w.weights)} weights for {len(e.blocks)} blocks"
        )
    out = [Fraction(0)] * len(p)
    for block, wb in zip(e.blocks, w.weights):
        mass = sum(p.value(i) for i in block)
        for i in block:
            out[i - 1] = wb * p.value(i) / mass
    return FiniteDistribution(tuple(out))


def rigidity_holds(p: FiniteDistribution, q: FiniteDistribution, e: Partition) -> bool:
    """q(x|E_i) = p(x|E_i) on every block with q(E_i) > 0."""
    check_prior(p, q)
    _check_shapes(p, e)
    for block in e.blocks:
        q_mass = sum(q.value(i) for i in block)
        if q_mass == 0:
            continue
        p_mass = sum(p.value(i) for i in block)
        for i in block:
            if q.value(i) * p_mass != p.value(i) * q_mass:
                return False
    return True


def ratio_constant_on_blocks(
    p: FiniteDistribution, q: FiniteDistribution, e: Partition
) -> bool:
    """Within every block, all q_x / p_x agree (cross-multiplied, so exact)."""
    check_prior(p, q)
    _check_shapes(p, e)
    for block in e.blocks:
        first = block[0]
        for i in block[1:]:
            if q.value(first) * p.value(i) != q.value(i) * p.value(first):
                return False
    return True


def coarsest_partition(p: FiniteDistribution, q: FiniteDistribution) -> Partition:
    """Fibers of the ratio map x -> q_x / p_x, in canonical order."""
    check_prior(p, q)
    return Partition.of(RatioIndex.of(q.probs, p.probs).fibres())


@dataclass(frozen=True)
class Accessibility:
    """Brute-force verdict: accessible via some nontrivial partition, or not."""

    accessible: bool
    witness: Optional[Partition] = None


def accessible_brute_force(p: FiniteDistribution, q: FiniteDistribution) -> Accessibility:
    """Enumerate every set partition; first nontrivial JC witness wins.

    Independent oracle for the ratio-distinctness characterization; result
    order is fixed by the RGS enumeration regardless of any internal fan-out.
    """
    check_prior(p, q)
    if len(p) > BRUTE_FORCE_MAX_N:
        raise TooLarge(f"brute force limited to n <= {BRUTE_FORCE_MAX_N}")
    for e in partitions(len(p)):
        if not is_nontrivial(e):
            continue
        if ratio_constant_on_blocks(p, q, e):
            return Accessibility(True, e)
    return Accessibility(False, None)

"""Exact and truncated probability distributions on countable index sets.

Rational mode (``fractions.Fraction`` entries) is canonical; float entries
only appear in sampler output.  Indices are 1-based in all public reporting
(witness pairs, partition blocks, JSON), 0-based internally.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import (
    AllZero,
    HorizonTooLarge,
    LengthMismatch,
    NegativeEntry,
    NotNormalized,
    OutOfRange,
    ZeroPrior,
)

#: absolute slack allowed when a float-mode distribution is validated
FLOAT_TOL = 2.0 ** -40

Number = Union[Fraction, float]


def parse_rational(text: str) -> Fraction:
    """Parse "a/b", integer, or decimal (at most 18 fractional digits) exactly."""
    s = text.strip()
    if "/" in s:
        return Fraction(s)
    if "." in s:
        digits = len(s.split(".", 1)[1])
        if digits > 18:
            raise OutOfRange(f"decimal input limited to 18 fractional digits: {text!r}")
        return Fraction(s)
    return Fraction(int(s))


def format_rational(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def _encode(x: Number):
    return format_rational(x) if isinstance(x, Fraction) else float(x)


def _is_exact(values: Sequence[Number]) -> bool:
    return all(isinstance(v, Fraction) for v in values)


def _check_entries(values: Sequence[Number]) -> None:
    for v in values:
        if not v >= 0:  # NaN fails every comparison, so it lands here too
            if v < 0:
                raise NegativeEntry(f"negative probability entry {v}")
            raise OutOfRange("NaN probability entry")


class StoredDistribution:
    """The view shared by the finite and truncated kinds: a stored prefix
    plus the tail mass beyond it (zero for a finite vector)."""

    def _validate(self) -> None:
        if len(self.prefix) < 2:
            raise OutOfRange("a distribution needs at least 2 components")
        values = self.prefix + (self.tail_mass,)
        _check_entries(values)
        total = sum(values)
        if _is_exact(values):
            if total != 1:
                raise NotNormalized(f"entries sum to {total}, not 1")
        elif abs(total - 1.0) > FLOAT_TOL:
            raise NotNormalized(f"float entries sum to {total}")

    def __len__(self) -> int:
        return len(self.prefix)

    @property
    def is_exact(self) -> bool:
        return _is_exact(self.prefix) and isinstance(self.tail_mass, Fraction)

    def value(self, i: int) -> Number:
        """1-based component access."""
        return self.prefix[i - 1]

    def _check_horizon(self, n: int) -> None:
        if n > len(self):
            raise HorizonTooLarge(f"horizon {n} exceeds available prefix length {len(self)}")

    def prefix_values(self, n: int) -> tuple:
        """Components 1..n."""
        self._check_horizon(n)
        return self.prefix[:n]

    def tail_after(self, n: int) -> Number:
        """Mass beyond index n: stored components after n plus the tail mass."""
        self._check_horizon(n)
        return sum(self.prefix[n:]) + self.tail_mass


@dataclass(frozen=True)
class FiniteDistribution(StoredDistribution):
    """Probability vector on a finite index set; exact in rational mode."""

    probs: tuple

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(self.probs))
        self._validate()

    @property
    def prefix(self) -> tuple:
        return self.probs

    @property
    def tail_mass(self) -> Number:
        return Fraction(0) if _is_exact(self.probs) else 0.0


@dataclass(frozen=True)
class TruncatedDistribution(StoredDistribution):
    """Finite prefix of a distribution on a denumerable set plus tail mass."""

    prefix: tuple
    tail_mass: Number

    def __post_init__(self):
        object.__setattr__(self, "prefix", tuple(self.prefix))
        self._validate()


@dataclass(frozen=True)
class Geometric:
    """Strictly positive parametric family p_i = (1-r) * r^(i-1), i >= 1."""

    ratio: Fraction

    def __post_init__(self):
        if not isinstance(self.ratio, Fraction):
            object.__setattr__(self, "ratio", Fraction(self.ratio))
        if not (0 < self.ratio < 1):
            raise OutOfRange(f"geometric ratio must lie in (0, 1), got {self.ratio}")

    @property
    def is_exact(self) -> bool:
        return True

    def value(self, i: int) -> Fraction:
        return (1 - self.ratio) * self.ratio ** (i - 1)

    def prefix_values(self, n: int) -> tuple:
        r = self.ratio
        out = []
        term = 1 - r
        for _ in range(n):
            out.append(term)
            term *= r
        return tuple(out)

    def tail_after(self, n: int) -> Fraction:
        return self.ratio ** n


def geometric(r: Fraction) -> Geometric:
    return Geometric(r)


Distribution = Union[FiniteDistribution, TruncatedDistribution, Geometric]


@dataclass(frozen=True)
class RatioProfile:
    """The vector q_i / p_i whose injectivity decides blind-spot membership."""

    ratios: tuple

    def __len__(self) -> int:
        return len(self.ratios)

    def has_repeat(self) -> bool:
        return len(set(self.ratios)) < len(self.ratios)


def _ratio_key(r):
    """(numerator, denominator) of a finite Fraction, int or float, so exactly
    equal numbers of any type share a key; far cheaper to hash than a
    Fraction.  Infinities and NaN, which have no such pair, key as themselves."""
    try:
        return r.as_integer_ratio()
    except (OverflowError, ValueError):
        return r


class RatioIndex:
    """Positions 1, 2, ... grouped by ratio, grown one ratio at a time.

    Ratios are exact ``Fraction`` values q_i / p_i, or floats on the sampler
    path.  Each fibre (the positions of one ratio) is a block of the coarsest
    witness partition; ``first_collision`` is the lexicographically smallest
    pair (i, j) inside one fibre, 1-based, kept current on every add.
    """

    def __init__(self, ratios: Iterable = ()):
        self._fibres: dict = {}
        self._size = 0
        self.first_collision: tuple | None = None
        for r in ratios:
            self.add(r)

    @classmethod
    def of(cls, qv: Sequence[Number], pv: Sequence[Number]) -> "RatioIndex":
        """Index of the ratios qv[i] / pv[i]; pv must be strictly positive."""
        return cls(q / p for q, p in zip(qv, pv))

    def add(self, ratio) -> None:
        self._size += 1
        fibre = self._fibres.setdefault(_ratio_key(ratio), [])
        fibre.append(self._size)
        if len(fibre) == 2:  # a fibre's first two positions are its smallest pair
            pair = tuple(fibre)
            self.first_collision = min(pair, self.first_collision or pair)

    def __contains__(self, ratio) -> bool:
        return _ratio_key(ratio) in self._fibres

    def fibres(self) -> list:
        """Position lists of equal ratio, ordered by smallest position."""
        return list(self._fibres.values())


def finite_from_rationals(values: Iterable[Fraction]) -> FiniteDistribution:
    vals = tuple(Fraction(v) for v in values)
    return FiniteDistribution(vals)


def normalize(values: Iterable[Fraction]) -> FiniteDistribution:
    vals = tuple(Fraction(v) for v in values)
    _check_entries(vals)
    total = sum(vals)
    if total == 0:
        raise AllZero("cannot normalize the zero vector")
    return FiniteDistribution(tuple(v / total for v in vals))


def truncate(d: Geometric, n: int) -> TruncatedDistribution:
    """Exact N-term prefix of a parametric distribution, tail via closed form."""
    if n < 2:
        raise OutOfRange("truncation horizon must be at least 2")
    return TruncatedDistribution(d.prefix_values(n), d.tail_after(n))


def require_stored(*ds: Distribution) -> None:
    """Guard for operations that read a stored prefix: rejects geometric."""
    if any(isinstance(d, Geometric) for d in ds):
        raise LengthMismatch("a geometric distribution has no stored prefix; truncate it first")


def require_finite(*ds: Distribution) -> None:
    """Guard for operations on finite vectors: rejects truncated and geometric,
    which need a horizon."""
    if not all(isinstance(d, FiniteDistribution) for d in ds):
        raise LengthMismatch("truncated and geometric distributions need a horizon")


def require_positive_prefix(d: Distribution, n: int) -> tuple:
    vals = d.prefix_values(n)
    for i, v in enumerate(vals, start=1):
        if v <= 0:
            raise ZeroPrior(f"prior has nonpositive component {v} at index {i}")
    return vals


def ratio_profile(q: Distribution, p: Distribution, n: int | None = None) -> RatioProfile:
    """Componentwise q_i / p_i; prior must be strictly positive."""
    if n is None:
        require_stored(q, p)
        n = len(q)
        if len(p) != n:
            raise LengthMismatch(f"lengths differ: {len(q)} vs {len(p)}")
    pv = require_positive_prefix(p, n)
    qv = q.prefix_values(n)
    return RatioProfile(tuple(a / b for a, b in zip(qv, pv)))


def dist_to_json(d: Distribution) -> dict:
    if isinstance(d, FiniteDistribution):
        return {"kind": "finite", "probs": [_encode(v) for v in d.probs]}
    if isinstance(d, TruncatedDistribution):
        return {
            "kind": "truncated",
            "prefix": [_encode(v) for v in d.prefix],
            "tail_mass": _encode(d.tail_mass),
        }
    return {"kind": "geometric", "ratio": format_rational(d.ratio)}


def _decode(v) -> Number:
    if isinstance(v, str):
        return parse_rational(v)
    if isinstance(v, bool):
        raise OutOfRange(f"not a probability value: {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        return v
    raise OutOfRange(f"not a probability value: {v!r}")


def dist_from_json(obj: dict) -> Distribution:
    kind = obj.get("kind")
    if kind == "finite":
        return FiniteDistribution(tuple(_decode(v) for v in obj["probs"]))
    if kind == "truncated":
        return TruncatedDistribution(
            tuple(_decode(v) for v in obj["prefix"]), _decode(obj["tail_mass"])
        )
    if kind == "geometric":
        return Geometric(parse_rational(obj["ratio"]))
    raise OutOfRange(f"unknown distribution kind {kind!r}")


def dumps(d: Distribution) -> str:
    return json.dumps(dist_to_json(d), sort_keys=True)


def loads(text: str) -> Distribution:
    return dist_from_json(json.loads(text))

"""Exact and truncated probability distributions on countable index sets.

Rational mode (``fractions.Fraction`` entries) is canonical.  Float entries
are validated to ``FLOAT_TOL``; ratios compare them as the exact dyadic
rationals they store.  Indices are 1-based in all public reporting (witness
pairs, partition blocks, JSON), 0-based internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import InputError

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
            raise InputError(f"decimal input limited to 18 fractional digits: {text!r}")
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


def exact_sum(values: Iterable[Number]) -> Number:
    """``sum(values)`` in value and type.  When every value is a Fraction the
    numerators are added over the lcm of the denominators and reduced once,
    not once per addition; otherwise builtin ``sum`` runs in the same order."""
    values = tuple(values)
    if not values or not _is_exact(values):
        return sum(values)
    d = math.lcm(*(v.denominator for v in values))
    return Fraction(sum(v.numerator * (d // v.denominator) for v in values), d)


def _check_entries(values: Sequence[Number]) -> None:
    for v in values:
        if not v >= 0:  # NaN fails every comparison, so it lands here too
            if v < 0:
                raise InputError(f"negative probability entry {v}")
            raise InputError("NaN probability entry")


class StoredDistribution:
    """The view shared by the finite and truncated kinds: a stored prefix
    plus the tail mass beyond it (zero for a finite vector)."""

    def _validate(self) -> None:
        if len(self.prefix) < 2:
            raise InputError("a distribution needs at least 2 components")
        values = self.prefix + (self.tail_mass,)
        _check_entries(values)
        total = exact_sum(values)
        if _is_exact(values):
            if total != 1:
                raise InputError(f"entries sum to {total}, not 1")
        elif abs(total - 1.0) > FLOAT_TOL:
            raise InputError(f"float entries sum to {total}")

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
            raise InputError(f"horizon {n} exceeds available prefix length {len(self)}")

    def prefix_values(self, n: int) -> tuple:
        """Components 1..n."""
        self._check_horizon(n)
        return self.prefix[:n]

    def tail_after(self, n: int) -> Number:
        """Mass beyond index n: stored components after n plus the tail mass."""
        self._check_horizon(n)
        return exact_sum(self.prefix[n:] + (self.tail_mass,))


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
            raise InputError(f"geometric ratio must lie in (0, 1), got {self.ratio}")

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


def _ratio(q, p) -> tuple:
    """(key, x, y): the unreduced integer cross products x = a*d, y = b*c of
    q = a/b and p = c/d, exact for Fraction, int and float operands alike.
    The key is the correctly rounded (exponent, mantissa) of x / y, shared by
    every representation of a ratio; zero keys as 0.  A non-finite q, a
    sampler ratio over an underflowed prior, keys as itself."""
    try:
        (a, b), (c, d) = q.as_integer_ratio(), p.as_integer_ratio()
    except (OverflowError, ValueError):
        return q, 1, 0
    x, y = a * d, b * c
    if not x:
        return 0, x, y
    e = x.bit_length() - y.bit_length()  # the scaled quotient lies in (1/2, 2)
    m, k = math.frexp(x / (y << e) if e >= 0 else (x << -e) / y)
    return (e + k, m), x, y


class RatioIndex:
    """Positions 1, 2, ... grouped by exact ratio q_i / p_i, grown one at a
    time.  Keys from ``_ratio`` only find candidates: (x, y) joins a fibre
    only if x * y' == y * x'.  Each fibre is a block of the coarsest witness
    partition; ``first_collision`` is the smallest pair (i, j) inside one
    fibre, 1-based, kept current on every add.
    """

    def __init__(self, ratios: Iterable = ()):
        self._buckets: dict = {}  # key -> [(x, y, fibre)]
        self._fibres: list = []
        self._size = 0
        self.first_collision: tuple | None = None
        for r in ratios:
            self.add(r)

    @classmethod
    def of(cls, qv: Sequence[Number], pv: Sequence[Number]) -> "RatioIndex":
        """Index of the ratios qv[i] / pv[i]; pv must be strictly positive."""
        index = cls()
        for q, p in zip(qv, pv):
            index.add(q, p)
        return index

    def _fibre(self, key, x, y):
        for fx, fy, fibre in self._buckets.get(key, ()):
            if x * fy == y * fx:
                return fibre
        return None

    def add(self, q, p=1) -> None:
        key, x, y = _ratio(q, p)
        fibre = self._fibre(key, x, y)
        if fibre is None:
            fibre = []
            self._buckets.setdefault(key, []).append((x, y, fibre))
            self._fibres.append(fibre)
        self._size += 1
        fibre.append(self._size)
        if len(fibre) == 2:  # a fibre's first two positions are its smallest pair
            pair = tuple(fibre)
            self.first_collision = min(pair, self.first_collision or pair)

    def contains(self, q, p=1) -> bool:
        return self._fibre(*_ratio(q, p)) is not None

    __contains__ = contains

    def fibres(self) -> list:
        """Position lists of equal ratio, ordered by smallest position."""
        return list(self._fibres)


def normalize(values: Iterable[Fraction]) -> FiniteDistribution:
    vals = tuple(Fraction(v) for v in values)
    _check_entries(vals)
    total = exact_sum(vals)
    if total == 0:
        raise InputError("cannot normalize the zero vector")
    return FiniteDistribution(tuple(v / total for v in vals))


def truncate(d: Geometric, n: int) -> TruncatedDistribution:
    """Exact N-term prefix of a parametric distribution, tail via closed form."""
    if n < 2:
        raise InputError("truncation horizon must be at least 2")
    return TruncatedDistribution(d.prefix_values(n), d.tail_after(n))


def require_stored(*ds: Distribution) -> None:
    """Guard for operations that read a stored prefix: rejects geometric."""
    if any(isinstance(d, Geometric) for d in ds):
        raise InputError("a geometric distribution has no stored prefix; truncate it first")


def require_finite(*ds: Distribution) -> int:
    """Guard for operations on finite vectors of one length: rejects truncated
    and geometric, which need a horizon, and unequal lengths.  Returns the
    common length."""
    if not all(isinstance(d, FiniteDistribution) for d in ds):
        raise InputError("truncated and geometric distributions need a horizon")
    if len({len(d) for d in ds}) > 1:
        raise InputError("lengths differ: " + " vs ".join(str(len(d)) for d in ds))
    return len(ds[0])


def require_positive_prefix(d: Distribution, n: int) -> tuple:
    """Components 1..n of a prior, all strictly positive; n must be at least 1."""
    if n < 1:
        raise InputError(f"horizon must be at least 1, got {n}")
    vals = d.prefix_values(n)
    for i, v in enumerate(vals, start=1):
        if v <= 0:
            raise InputError(f"prior has nonpositive component {v} at index {i}")
    return vals


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
    if isinstance(v, float):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return Fraction(v)
    raise InputError(f"not a probability value: {v!r}")


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
    raise InputError(f"unknown distribution kind {kind!r}")


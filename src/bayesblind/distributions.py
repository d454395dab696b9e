"""Exact and truncated probability distributions on countable index sets.

Rational mode (``fractions.Fraction`` entries) is canonical; a stored
distribution's mode is decided once, at validation.  Float entries are
validated to ``FLOAT_TOL``; ratios compare them as the exact dyadic rationals
they store.  Exact prefixes are worked on as integer pairs: ratios by cross
products, sums, shares and l1 gaps over one lcm (``over_lcm``).  Indices are
1-based in public reporting (witness pairs, partition blocks, JSON), 0-based
internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import InputError

#: absolute slack allowed when a float-mode distribution is validated
FLOAT_TOL = 2.0 ** -40

Number = Union[Fraction, float]


def parse_rational(text: str) -> Fraction:
    """Parse "a/b", integer, or decimal (at most 18 fractional digits) exactly."""
    s = text.strip()
    a, slash, b = s.partition("/")
    if slash:  # plain digits "a/b" skip Fraction's string parser
        return Fraction(int(a), int(b)) if a.isdecimal() and b.isdecimal() else Fraction(s)
    if "." in s:
        digits = len(s.split(".", 1)[1])
        if digits > 18:
            raise InputError(f"decimal input limited to 18 fractional digits: {text!r}")
        return Fraction(s)
    return Fraction(int(s))


def format_rational(x: Fraction) -> str:
    return str(x)  # "a/b", or "a" when the denominator is 1


def _encode(x: Number):
    return format_rational(x) if isinstance(x, Fraction) else float(x)


def _is_exact(values: Sequence[Number]) -> bool:
    return all(isinstance(v, Fraction) for v in values)


def over_lcm(pairs: Sequence[tuple]) -> tuple:
    """(numerators, d): the integer pairs (a, b) over d, the lcm of the b."""
    d = math.lcm(*(b for _, b in pairs))
    return [a * (d // b) for a, b in pairs], d


def shares(pairs: Sequence[tuple], u: int = 1, v: int = 1) -> tuple:
    """Each pair's share of their nonzero total, times u/v: ``Fraction(u·k_i, v·Σk)``."""
    ks, _ = over_lcm(pairs)
    total = v * sum(ks)
    return tuple(Fraction(u * k, total) for k in ks)


def l1_gap(us: tuple, vs: tuple) -> Fraction:
    """Σ|u_i − v_i| of two equally long tuples of integer pairs, reduced once."""
    nums, d = over_lcm(us + vs)
    return Fraction(sum(abs(a - b) for a, b in zip(nums, nums[len(us):])), d)


def exact_sum(values: Iterable[Number]) -> Number:
    """``sum(values)`` in value and type.  When every value is a Fraction the
    numerators are added over the lcm (``over_lcm``) and reduced once, not
    once per addition; otherwise builtin ``sum`` runs in the same order."""
    values = tuple(values)
    if not values or not _is_exact(values):
        return sum(values)
    nums, d = over_lcm([v.as_integer_ratio() for v in values])
    return Fraction(sum(nums), d)


def _check_entries(values: Sequence[Number]) -> None:
    for v in values:
        if (v.numerator < 0) if isinstance(v, Fraction) else not v >= 0:  # NaN fails >=
            if v < 0:
                raise InputError(f"negative probability entry {v}")
            raise InputError("NaN probability entry")


class StoredDistribution:
    """The view shared by the finite and truncated kinds: a stored prefix
    plus the tail mass beyond it (zero for a finite vector)."""

    is_exact: bool  # every entry and the tail mass a Fraction; set by _validate

    def _validate(self) -> None:
        if len(self.prefix) < 2:
            raise InputError("a distribution needs at least 2 components")
        values = self.prefix + (self.tail_mass,)
        _check_entries(values)
        object.__setattr__(self, "is_exact", _is_exact(values))
        total = exact_sum(values)
        if self.is_exact:
            if total != 1:
                raise InputError(f"entries sum to {total}, not 1")
        elif abs(total - 1.0) > FLOAT_TOL:
            raise InputError(f"float entries sum to {total}")

    def __len__(self) -> int:
        return len(self.prefix)

    def value(self, i: int) -> Number:
        """1-based component access."""
        return self.prefix[i - 1]

    def prefix_values(self, n: int) -> tuple:
        """Components 1..n."""
        require_horizon(n, self)
        return self.prefix[:n]

    def prefix_pairs(self, n: int) -> tuple:
        """Components 1..n as integer pairs (numerator, denominator)."""
        return tuple(v.as_integer_ratio() for v in self.prefix_values(n))

    def tail_after(self, n: int) -> Number:
        """Mass beyond index n: stored components after n plus the tail mass."""
        require_horizon(n, self)
        return exact_sum(self.prefix[n:] + (self.tail_mass,))


@dataclass(frozen=True)
class FiniteDistribution(StoredDistribution):
    """Probability vector on a finite index set; exact in rational mode."""

    probs: tuple
    prefix: tuple = field(init=False, repr=False, compare=False)
    tail_mass: Number = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "probs", tuple(self.probs))
        object.__setattr__(self, "prefix", self.probs)
        object.__setattr__(self, "tail_mass", Fraction(0) if _is_exact(self.probs) else 0.0)
        self._validate()


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
    is_exact = True  # a class constant, not a field

    def __post_init__(self):
        if not isinstance(self.ratio, Fraction):
            object.__setattr__(self, "ratio", Fraction(self.ratio))
        if not (0 < self.ratio < 1):
            raise InputError(f"geometric ratio must lie in (0, 1), got {self.ratio}")

    def value(self, i: int) -> Fraction:
        return (1 - self.ratio) * self.ratio ** (i - 1)

    def prefix_values(self, n: int) -> tuple:
        return tuple(Fraction(x, y) for x, y in self.prefix_pairs(n))

    def prefix_pairs(self, n: int) -> tuple:
        """((b - a) a^(i-1), b^i), i = 1..n, for r = a/b: coprime, as gcd(b - a, b) = 1."""
        a, b = self.ratio.as_integer_ratio()
        out, x, y = [], b - a, b
        for _ in range(n):
            out.append((x, y))
            x, y = x * a, y * b
        return tuple(out)

    def tail_after(self, n: int) -> Fraction:
        return self.ratio ** n


def geometric(r: Fraction) -> Geometric:
    return Geometric(r)


Distribution = Union[FiniteDistribution, TruncatedDistribution, Geometric]


def _ratio(q: tuple, p: tuple) -> tuple:
    """(key, x, y): the unreduced integer cross products x = a*d, y = b*c of
    the integer pairs q = (a, b) and p = (c, d).  The key, shared by every
    representation of a ratio, is the correctly rounded x / y if that is a normal
    float or zero, else its (exponent, mantissa).  A non-finite q = (v, 0) keys as v."""
    (a, b), (c, d) = q, p
    if not b:
        return a, 1, 0
    x, y = a * d, b * c
    try:
        if (key := x / y) >= 2.0 ** -1022 or not x:  # a normal float, or zero
            return key, x, y
    except OverflowError:
        pass
    e = x.bit_length() - y.bit_length()  # the scaled quotient lies in (1/2, 2)
    m, k = math.frexp(x / (y << e) if e >= 0 else (x << -e) / y)
    return (e + k, m), x, y


class RatioIndex:
    """Positions 1, 2, ... grouped by exact ratio q_i / p_i, grown one at a
    time from integer pairs q_i = (a, b), p_i = (c, d); the constructor takes
    numbers, such as a sampler row.  Keys from ``_ratio`` only find candidates:
    (x, y) joins a fibre only if x * y' == y * x'.  Each fibre is a block of
    the coarsest witness partition."""

    def __init__(self, ratios: Iterable = ()):
        self._buckets: dict = {}  # key -> [(x, y, fibre)]
        self._fibres: list = []
        self._size = 0
        for r in ratios:  # a non-finite float, over an underflowed prior, is (r, 0)
            self.commit(*self.probe((r, 0) if r != r or r == math.inf else r.as_integer_ratio()))

    @classmethod
    def of(cls, qs: Iterable[tuple], ps: Iterable[tuple]) -> "RatioIndex":
        """Index of the ratios of the pairs qs[i] over ps[i]; ps strictly positive."""
        index = cls()
        for q, p in zip(qs, ps):
            index.commit(*index.probe(q, p))
        return index

    def probe(self, q: tuple, p: tuple = (1, 1)) -> tuple:
        """(position, fibre): the (key, x, y) of q / p and the fibre holding its ratio, or None."""
        key, x, y = position = _ratio(q, p)
        for fx, fy, fibre in self._buckets.get(key, ()):
            if x * fy == y * fx:
                return position, fibre
        return position, None

    def commit(self, position: tuple, fibre: list | None) -> None:
        """Add the next position from its ``probe``, computed once."""
        if fibre is None:
            key, x, y = position
            self._buckets.setdefault(key, []).append((x, y, fibre := []))
            self._fibres.append(fibre)
        self._size += 1
        fibre.append(self._size)

    @property
    def first_collision(self) -> tuple | None:
        """The smallest pair (i, j) inside one fibre, 1-based: a fibre's first two."""
        return min(((f[0], f[1]) for f in self._fibres if len(f) > 1), default=None)

    def fibres(self) -> list:
        """Position lists of equal ratio, ordered by smallest position."""
        return list(self._fibres)


def normalize(values: Iterable[Fraction]) -> FiniteDistribution:
    vals = tuple(Fraction(v) for v in values)
    _check_entries(vals)
    if not any(vals):
        raise InputError("cannot normalize the zero vector")
    return FiniteDistribution(shares([v.as_integer_ratio() for v in vals]))


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


def require_horizon(n: int, *ds: Distribution) -> None:
    """Guard run before any prefix is built: n is within every stored prefix."""
    for d in ds:
        if isinstance(d, StoredDistribution) and n > len(d):
            raise InputError(f"horizon {n} exceeds available prefix length {len(d)}")


def require_positive_prefix(d: Distribution, n: int) -> tuple:
    """Components 1..n of a prior as integer pairs, all strictly positive; n >= 1."""
    if n < 1:
        raise InputError(f"horizon must be at least 1, got {n}")
    pairs = d.prefix_pairs(n)
    for i, (x, _) in enumerate(pairs, start=1):
        if x <= 0:
            raise InputError(f"prior has nonpositive component {d.value(i)} at index {i}")
    return pairs


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


def json_list(value) -> list:
    """``value`` if it is a JSON list; a string would be read one character at a time."""
    if not isinstance(value, list):
        raise InputError(f"expected a JSON list, got {value!r}")
    return value


def dist_from_json(obj: dict) -> Distribution:
    kind = obj.get("kind")
    if kind == "finite":
        return FiniteDistribution(tuple(_decode(v) for v in json_list(obj["probs"])))
    if kind == "truncated":
        return TruncatedDistribution(
            tuple(_decode(v) for v in json_list(obj["prefix"])), _decode(obj["tail_mass"])
        )
    if kind == "geometric":
        return Geometric(parse_rational(obj["ratio"]))
    raise InputError(f"unknown distribution kind {kind!r}")


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
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import InputError
from .records import Record, setfield

#: absolute slack allowed when a float-mode distribution is validated
FLOAT_TOL = 2.0 ** -40
#: the largest horizon at which coordinates are generated, by a tail ratio past its stored
#: prefix, the generator or the sampler: exact coordinates grow in bits with their index,
#: and a sampler workspace with n (README, "Resource caps").  Stored inputs are uncapped.
MAX_HORIZON = 2048

Number = Union[Fraction, float]
_ZERO = Fraction(0)


def parse_rational(text: str) -> Fraction:
    """Parse "a/b", integer, or decimal (at most 18 fractional digits, no exponent) exactly."""
    if not isinstance(text, str):
        raise InputError(f"a rational is written as a string, got {text!r}")
    s = text.strip()
    a, slash, b = s.partition("/")
    if "." in s and not slash and (len(s.split(".", 1)[1]) > 18 or "e" in s.lower()):
        raise InputError(f"decimal input, no exponent, limited to 18 fractional digits: {text!r}")
    try:  # plain digits "a/b" skip Fraction's string parser
        if slash:
            return Fraction(int(a), int(b)) if a.isdecimal() and b.isdecimal() else Fraction(s)
        return Fraction(s) if "." in s else Fraction(int(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational: {text!r}") from exc


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


def exact_sum(values: Iterable[Number]) -> Fraction:
    """The exact total of the rationals the values store, a float as its dyadic
    value: the numerators added over one lcm (``over_lcm``) and reduced once."""
    nums, d = over_lcm([v.as_integer_ratio() for v in values])
    return Fraction(sum(nums), d)


def _check_entries(values: Sequence[Number]) -> None:
    for v in values:
        if (v.numerator < 0) if isinstance(v, Fraction) else not v >= 0:  # NaN fails >=
            if v < 0:
                raise InputError(f"negative probability entry {v}")
            raise InputError("NaN probability entry")


class Distribution(Record):
    """The one view of every kind: a stored prefix q_1..q_N, possibly empty, and
    the tail mass T beyond it.  The tail ratio s is None unless the tail is
    geometric: then q_i = T(1-s) s^(i-N-1) for i > N.  A kind's ``__slots__``
    are its fields, in constructor and JSON order, and ``kind`` is its JSON name."""

    __slots__ = ("is_exact",)  # every entry and the tail mass a Fraction; set once, when built
    ratio = None  # the tail ratio s; a field of the kinds whose tail is geometric

    def _validate(self, values: tuple) -> None:  # the entries and any tail, scanned once
        if len(self.prefix) < 2:
            raise InputError("a distribution needs at least 2 components")
        _check_entries(values)
        setfield(self, "is_exact", _is_exact(values))
        total = (exact_sum if self.is_exact else sum)(values)
        if self.is_exact:
            if total != 1:
                raise InputError(f"entries sum to {total}, not 1")
        elif abs(total - 1.0) > FLOAT_TOL:
            raise InputError(f"float entries sum to {total}")

    def __len__(self) -> int:
        return len(self.prefix)  # the stored components only

    def value(self, i: int) -> Number:
        """1-based component access, within the stored prefix unless a tail ratio extends it."""
        require_horizon(i, self)
        if i <= len(self):
            return self.prefix[i - 1]
        return self.tail_mass * (1 - self.ratio) * self.ratio ** (i - len(self) - 1)

    def prefix_values(self, n: int) -> tuple:
        """Components 1..n; past the stored prefix, the Fraction view of ``prefix_pairs``."""
        require_horizon(n, self)
        tail = () if self.ratio is None else self.prefix_pairs(n)[len(self):]
        return self.prefix[:n] + tuple(Fraction(x, y) for x, y in tail)

    def prefix_pairs(self, n: int) -> tuple:
        """Components 1..n as integer pairs (numerator, denominator).  Past the stored
        prefix they are running integer products: (c(b - a) a^k, d b^(k+1)) for
        T = c/d and s = a/b, coprime when T = 1, as gcd(b - a, b) = 1."""
        require_horizon(n, self)
        pairs = [v.as_integer_ratio() for v in self.prefix[:n]]
        if self.ratio is not None:
            (a, b), (c, d) = self.ratio.as_integer_ratio(), self.tail_mass.as_integer_ratio()
            x, y = c * (b - a), d * b
            for _ in range(n - len(pairs)):
                pairs.append((x, y))
                x, y = x * a, y * b
        return tuple(pairs)

    def tail_after(self, n: int) -> Number:
        """Mass beyond index n: later stored entries plus T, or T s^(n-N) for n >= N, ratio s."""
        require_horizon(n, self)
        if self.ratio is not None and n >= len(self):
            return self.tail_mass * self.ratio ** (n - len(self))
        return (exact_sum if self.is_exact else sum)(self.prefix[n:] + (self.tail_mass,))


class FiniteDistribution(Distribution):
    """Probability vector on a finite index set; exact in rational mode."""

    __slots__ = ("probs",)  # equality and hash read probs alone
    kind = "finite"
    prefix = property(lambda self: self.probs)  # the stored view: all of it, no tail
    tail_mass = property(lambda self: _ZERO if self.is_exact else 0.0)

    def __init__(self, probs: Iterable[Number]):
        setfield(self, "probs", tuple(probs))
        self._validate(self.probs)


class TruncatedDistribution(Distribution):
    """Finite prefix of a distribution on a denumerable set plus tail mass."""

    __slots__ = ("prefix", "tail_mass")
    kind = "truncated"

    def __init__(self, prefix: Iterable[Number], tail_mass: Number):
        setfield(self, "prefix", tuple(prefix))
        setfield(self, "tail_mass", tail_mass)
        self._validate(self.prefix + (tail_mass,))


class Geometric(Distribution):
    """Strictly positive family p_i = (1-r) r^(i-1), i >= 1: an empty prefix, tail mass 1."""

    __slots__ = ("ratio",)
    kind, prefix, tail_mass = "geometric", (), 1

    def __init__(self, ratio: Fraction):
        setfield(self, "ratio", ratio if isinstance(ratio, Fraction) else Fraction(ratio))
        if not (0 < self.ratio < 1):
            raise InputError(f"geometric ratio must lie in (0, 1), got {self.ratio}")
        setfield(self, "is_exact", True)


geometric = Geometric  # the public constructor, geometric(r)


def _ratio(q: tuple, p: tuple) -> tuple:
    """(key, x, y): the unreduced integer cross products x = a*d, y = b*c of
    the integer pairs q = (a, b) and p = (c, d).  The key, shared by every
    representation of a ratio, is the correctly rounded x / y if that is a normal
    float or zero, else its (exponent, mantissa)."""
    (a, b), (c, d) = q, p
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
    """Positions 1, 2, ... grouped by exact ratio q_i / p_i of integer pairs
    q_i = (a, b), p_i = (c, d) with b, c, d positive: built from the pairs qs[i]
    over ps[i] in one keyed pass, then grown one at a time.  A fibre is named
    by its first position, its head.  Keys from ``_ratio`` only find
    candidates: (x, y) joins a fibre only if x * y' == y * x' against its head,
    so only a position whose key repeats is confirmed.  Each fibre is a block
    of the coarsest witness partition."""

    def __init__(self, qs: Iterable[tuple], ps: Iterable[tuple]):
        self._rows = list(map(_ratio, qs, ps))  # (key, x, y) of each position
        keys = [row[0] for row in self._rows]
        self._heads = dict(zip(reversed(keys), range(len(keys), 0, -1)))  # key -> first head
        self._clashes: dict = {}  # key -> later heads of unequal ratios under it
        self._members: dict = {}  # head -> its fibre, for fibres of two or more
        if len(self._heads) < len(keys):
            for i, (key, x, y) in enumerate(self._rows, 1):
                if self._heads[key] != i:
                    self._join(self._find(key, x, y), key, i)

    def _find(self, key, x: int, y: int) -> int | None:
        """The head of the fibre under ``key`` whose ratio is x / y, or None: the
        key's first head, else a later one of an unequal ratio sharing the key."""
        rows, head = self._rows, self._heads.get(key)
        if head is None or x * rows[head - 1][2] == y * rows[head - 1][1]:
            return head
        for head in self._clashes.get(key, ()):
            if x * rows[head - 1][2] == y * rows[head - 1][1]:
                return head
        return None

    def _join(self, head: int | None, key, i: int) -> None:
        """Position i joins the fibre ``head`` names, or heads one under ``key``."""
        if head is not None:
            self._members.setdefault(head, [head]).append(i)
        elif self._heads.setdefault(key, i) != i:
            self._clashes.setdefault(key, []).append(i)

    def probe(self, q: tuple, p: tuple) -> tuple:
        """(position, fibre): the (key, x, y) of q / p and the head, 1-based and so
        truthy, of the fibre holding its ratio, or None."""
        position = _ratio(q, p)
        return position, self._find(*position)

    def commit(self, position: tuple, fibre: int | None) -> None:
        """Add the next position from its ``probe``, computed once."""
        self._rows.append(position)
        self._join(fibre, position[0], len(self._rows))

    @property
    def first_collision(self) -> tuple | None:
        """The smallest pair (i, j) inside one fibre, 1-based: a fibre's first two."""
        return min(((f[0], f[1]) for f in self._members.values()), default=None)

    def fibres(self) -> list:
        """Position lists of equal ratio, ordered by head: canonical blocks."""
        joined = {i for f in self._members.values() for i in f[1:]}
        return [self._members.get(i, [i]) for i in range(1, len(self._rows) + 1) if i not in joined]


def normalize(values: Iterable[Fraction]) -> FiniteDistribution:
    vals = tuple(Fraction(v) for v in values)
    _check_entries(vals)
    if not any(vals):
        raise InputError("cannot normalize the zero vector")
    return FiniteDistribution(shares([v.as_integer_ratio() for v in vals]))


def truncate(d: Distribution, n: int) -> TruncatedDistribution:
    """Exact N-term prefix of a parametric distribution, tail via closed form."""
    return TruncatedDistribution(d.prefix_values(n), d.tail_after(n))


def require_stored(*ds: Distribution) -> int:
    """Guard for operations that read stored prefixes of one length: rejects a
    geometric tail and unequal lengths.  Returns the common length."""
    if any(d.ratio is not None for d in ds):
        raise InputError("a geometric distribution has no stored prefix; truncate it first")
    if len(lengths := {len(d) for d in ds}) > 1:
        raise InputError("lengths differ: " + " vs ".join(str(len(d)) for d in ds))
    return lengths.pop()


def require_exact(what: str, *ds: Distribution) -> int:
    """``require_stored``, and every entry a Fraction.  Returns the common length."""
    n = require_stored(*ds)
    if not all(d.is_exact for d in ds):
        raise InputError(f"{what} requires an exact-rational distribution")
    return n


def require_finite(*ds: Distribution) -> int:
    """``require_stored`` for finite vectors only: rejects truncated and geometric,
    which need a horizon.  Returns the common length."""
    if any(d.kind != "finite" for d in ds):
        raise InputError("truncated and geometric distributions need a horizon")
    return require_stored(*ds)


def require_horizon(n: int, *ds: Distribution, generated: bool = False) -> None:
    """Guard run before any prefix is built: n counts from 1, like an index, is
    within every prefix no tail ratio extends, and is at most MAX_HORIZON where
    coordinates are ``generated`` or a tail ratio extends a prefix."""
    if n < 1:
        raise InputError(f"horizon must be at least 1, got {n}")
    for d in ds:
        if d.ratio is None and n > len(d):
            raise InputError(f"horizon {n} exceeds available prefix length {len(d)}")
        generated = generated or n > len(d)
    if generated and n > MAX_HORIZON:
        raise InputError(f"horizon {n} exceeds MAX_HORIZON = {MAX_HORIZON}")


def require_priors(n: int, *priors: Distribution, generated: bool = False) -> list:
    """The prior guard of every scan: a nonempty family, then ``require_horizon``
    before any prefix is built.  Returns each prior's components 1..n as integer
    pairs, all strictly positive."""
    if not priors:
        raise InputError("prior family must be nonempty")
    require_horizon(n, *priors, generated=generated)
    prefixes = []
    for d in priors:
        prefixes.append(pairs := d.prefix_pairs(n))
        for i, (x, _) in enumerate(pairs, start=1):
            if x <= 0:
                raise InputError(f"prior has nonpositive component {d.value(i)} at index {i}")
    return prefixes


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


_VALUES = (lambda vs: [_encode(v) for v in vs], lambda vs: tuple(map(_decode, json_list(vs))))
#: the (encoder, decoder) of the JSON value of each field a kind lists in ``__slots__``
_FIELDS = {"probs": _VALUES, "prefix": _VALUES, "tail_mass": (_encode, _decode),
           "ratio": (format_rational, parse_rational)}
_KINDS = {cls.kind: cls for cls in (FiniteDistribution, TruncatedDistribution, Geometric)}


def dist_to_json(d: Distribution) -> dict:
    """``kind``, then each field of the kind in ``__slots__`` order."""
    return {"kind": d.kind, **{name: _FIELDS[name][0](getattr(d, name)) for name in d._fields}}


def dist_from_json(obj) -> Distribution:
    """The kind's class built from its fields, each decoded; none missing, none unknown."""
    if not isinstance(obj, dict):
        raise InputError(f"a distribution is a JSON object, got {obj!r}")
    kind = obj.get("kind")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise InputError(f"unknown distribution kind {kind!r}")
    if obj.keys() != {"kind", *cls._fields}:
        raise InputError(f"{kind} keys are {['kind', *cls._fields]}, got {list(obj)}")
    return cls(*(_FIELDS[name][1](obj[name]) for name in cls._fields))

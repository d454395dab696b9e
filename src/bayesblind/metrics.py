"""lp norms/distances on sequence space and the bounded metric t/(1+t).

Distances involving truncated distributions are reported as an interval
[lower, upper]: the lower end uses prefix coordinates only, the upper end
adds a bound on the unseen tail difference.  An upper end below a target
certifies a distance claim despite truncation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .distributions import Distribution, require_stored
from .errors import LengthMismatch, OutOfRange

#: comparison slack documented for float-mode lp distances (p not in {1, inf})
LP_FLOAT_SLACK = 1e-12


@dataclass(frozen=True)
class Norm:
    """lp norm selector; ``p is None`` means the sup norm."""

    p: Fraction | None = Fraction(1)

    def __post_init__(self):
        if self.p is not None:
            if not isinstance(self.p, Fraction):
                object.__setattr__(self, "p", Fraction(self.p))
            if self.p < 1:
                raise OutOfRange(f"lp norms require p >= 1, got {self.p}")

    @property
    def is_exact(self) -> bool:
        return self.p is None or self.p == 1

    def __str__(self) -> str:
        if self.p is None:
            return "linf"
        if self.p == 1:
            return "l1"
        if self.p == 2:
            return "l2"
        return f"lp:{self.p}"


L1 = Norm(Fraction(1))
L2 = Norm(Fraction(2))
LINF = Norm(None)


def parse_norm(text: str) -> Norm:
    s = text.strip().lower()
    if s == "l1":
        return L1
    if s == "l2":
        return L2
    if s == "linf":
        return LINF
    if s.startswith("lp:"):
        from .distributions import parse_rational

        return Norm(parse_rational(s[3:]))
    raise OutOfRange(f"unknown norm {text!r}; expected l1|l2|linf|lp:<p>")


@dataclass(frozen=True)
class DistanceInterval:
    """Certified enclosure of a distance between truncated representations."""

    lower: object
    upper: object

    @property
    def is_point(self) -> bool:
        return self.lower == self.upper


def _seq_distance(us, vs, norm: Norm):
    diffs = [abs(a - b) for a, b in zip(us, vs)]
    if norm.p is None:
        return max(diffs)
    if norm.p == 1:
        return sum(diffs)
    p = float(norm.p)
    return sum(float(d) ** p for d in diffs) ** (1.0 / p)


def lp_distance(u: Distribution, v: Distribution, norm: Norm = L1):
    """Distance between u and v; scalar when both are tail-free, else an interval."""
    require_stored(u, v)
    if len(u) != len(v):
        raise LengthMismatch(f"lengths differ: {len(u)} vs {len(v)}")
    lower = _seq_distance(u.prefix, v.prefix, norm)
    ut, vt = u.tail_mass, v.tail_mass
    if ut == 0 and vt == 0:
        return lower
    if norm.p is None:
        # each unseen coordinate gap is at most the larger tail mass
        upper = max(lower, max(ut, vt))
    else:
        # tail block lp mass is bounded by its l1 mass, and lp is subadditive
        # across the prefix/tail split
        upper = lower + ut + vt
    return DistanceInterval(lower, upper)


def _bound(t):
    return t / (1 + t)


def bounded_metric(u: Distribution, v: Distribution, norm: Norm = L1):
    """The complete bounded metric d = t / (1 + t) over the chosen base norm."""
    t = lp_distance(u, v, norm)
    if isinstance(t, DistanceInterval):
        return DistanceInterval(_bound(t.lower), _bound(t.upper))
    return _bound(t)


def l1_upper_bound(u: Distribution, v: Distribution):
    """Certified upper bound on the full-sequence l1 distance."""
    t = lp_distance(u, v, L1)
    return t.upper if isinstance(t, DistanceInterval) else t

"""lp norms/distances on sequence space and the bounded metric t/(1+t).

Distances involving truncated distributions are reported as an interval
[lower, upper]: the lower end uses prefix coordinates only, the upper end
adds a bound on the unseen tail difference.  Exact l1 and linf ends certify a
distance claim despite truncation; l2 and lp ends are float estimates.  An
exact l1 distance is the integer gap sum over one lcm, ``distributions.l1_gap``.
"""

from __future__ import annotations

from fractions import Fraction

from .distributions import Distribution, exact_sum, l1_gap, parse_rational, require_stored
from .errors import InputError
from .records import Record, setfield

class Norm(Record):
    """lp norm selector; ``p is None`` means the sup norm."""

    __slots__ = ("p",)

    def __init__(self, p: Fraction | None):
        setfield(self, "p", p if p is None or isinstance(p, Fraction) else Fraction(p))
        if self.p is not None and self.p < 1:
            raise InputError(f"lp norms require p >= 1, got {self.p}")
        try:
            float(self.p or 1)  # l2 and lp ends are computed in floats; linf has no p
        except OverflowError:
            raise InputError("lp norms require p to fit a float") from None

    @property
    def is_exact(self) -> bool:
        return self.p is None or self.p == 1

    def __str__(self) -> str:
        return next((name for name, norm in NAMED.items() if norm == self), f"lp:{self.p}")


L1 = Norm(Fraction(1))
L2 = Norm(Fraction(2))
LINF = Norm(None)
#: the norms with a name of their own, as ``parse_norm`` reads and ``str`` writes them
NAMED = {"l1": L1, "l2": L2, "linf": LINF}


def parse_norm(text: str) -> Norm:
    s = text.strip().lower()
    if s in NAMED:
        return NAMED[s]
    if s.startswith("lp:"):
        return Norm(parse_rational(s[3:]))
    raise InputError(f"unknown norm {text!r}; expected l1|l2|linf|lp:<p>")


class DistanceInterval(Record):
    """[lower, upper] of a distance: exact for exact l1 and linf; l2 and lp ends are floats."""

    __slots__ = ("lower", "upper")


def _seq_distance(u: Distribution, v: Distribution, norm: Norm):
    if norm.p == 1 and u.is_exact and v.is_exact:
        return l1_gap(u.prefix_pairs(len(u)), v.prefix_pairs(len(v)))
    diffs = [abs(a - b) for a, b in zip(u.prefix, v.prefix)]
    if norm.p is None:
        return max(diffs)
    if norm.p == 1:
        return exact_sum(diffs)
    # each gap over the largest (1 when all are 0), so that gap ** p cannot underflow to 0
    p, scale = float(norm.p), float(max(diffs)) or 1.0
    return scale * sum((float(d) / scale) ** p for d in diffs) ** (1.0 / p)


def lp_distance(u: Distribution, v: Distribution, norm: Norm = L1):
    """Distance between u and v; scalar when both are tail-free, else an interval."""
    require_stored(u, v)
    if len(u) != len(v):
        raise InputError(f"lengths differ: {len(u)} vs {len(v)}")
    lower = _seq_distance(u, v, norm)
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

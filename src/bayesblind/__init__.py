"""Jeffrey conditioning and blind-spot analysis on countable probability spaces."""

from .distributions import (
    FiniteDistribution,
    Geometric,
    TruncatedDistribution,
    geometric,
    normalize,
    truncate,
)
from .jeffrey import (
    Accessibility,
    BlockWeights,
    Partition,
    accessible_brute_force,
    coarsest_partition,
    is_nontrivial,
    jc_apply,
    rigidity_holds,
)
from .blindspot import (
    FamilyVerdict,
    Verdict,
    collision_count,
    family_membership,
    membership_finite,
    membership_prefix,
)
from .construct import (
    delta_family,
    densify,
    exteriorize,
    generate_blindspot_member,
    multi_collision_near,
    pick_valid_delta,
)
from .metrics import L1, L2, LINF, Norm, bounded_metric, lp_distance

__version__ = "0.1.0"

#: resolved on first use, so that the exact paths never import numpy
_SAMPLER_NAMES = frozenset({"McReport", "StickBase", "monte_carlo_blindspot_fraction",
                            "stick_breaking_sample"})


def __getattr__(name):
    if name in _SAMPLER_NAMES:
        from . import sampler
        return getattr(sampler, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

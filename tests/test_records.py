"""The frozen records: equality within a class, hash, repr, frozenness and
pickling, the same for every record in the package."""

import pickle
from fractions import Fraction

import pytest

from bayesblind.blindspot import FamilyVerdict, Verdict
from bayesblind.construct import CollisionMoveResult, DensifyResult
from bayesblind.distributions import FiniteDistribution, Geometric, TruncatedDistribution
from bayesblind.jeffrey import Accessibility, BlockWeights, Partition
from bayesblind.metrics import DistanceInterval, Norm
from bayesblind.records import Record
from bayesblind.sampler import McReport, StickBase, TrialRecord

F = Fraction
HALVES = TruncatedDistribution((F(1, 2), F(1, 4)), F(1, 4))

#: (builder, field values in order); each builder makes an equal, distinct record
RECORDS = [
    (lambda: FiniteDistribution([F(1, 2), F(1, 3), F(1, 6)]), ((F(1, 2), F(1, 3), F(1, 6)),)),
    (lambda: TruncatedDistribution([F(1, 2), F(1, 4)], F(1, 4)), ((F(1, 2), F(1, 4)), F(1, 4))),
    (lambda: Geometric(F(1, 3)), (F(1, 3),)),
    (lambda: Partition(((1, 3), (2,))), (((1, 3), (2,)),)),
    (lambda: BlockWeights([F(1, 3), 1 - F(1, 3)]), ((F(1, 3), F(2, 3)),)),
    (lambda: Accessibility(True, Partition(((1, 2),))), (True, Partition(((1, 2),)))),
    (lambda: Norm(3), (F(3),)),
    (lambda: DistanceInterval(F(1, 4), F(1, 2)), (F(1, 4), F(1, 2))),
    (lambda: Verdict(False, 4, (1, 2), None), (False, 4, (1, 2), None)),
    (lambda: FamilyVerdict((Verdict(True, None, None, None),), True),
     ((Verdict(True, None, None, None),), True)),
    (lambda: DensifyResult(HALVES, F(1, 8)), (HALVES, F(1, 8))),
    (lambda: CollisionMoveResult(HALVES, ((1, 2),), "positive", F(1, 8), False),
     (HALVES, ((1, 2),), "positive", F(1, 8), False)),
    (lambda: StickBase("beta", 0.5, 2.0), ("beta", 0.5, 2.0)),
    (lambda: TrialRecord(7, False, (2, 5), 0.25), (7, False, (2, 5), 0.25)),
    (lambda: McReport(trials=10, horizon=5, in_blindspot=9, exact_float_collisions=1,
                      near_collisions=0, mean_residual_mass=0.5, seed=3),
     (10, 5, 9, 1, 0, 0.5, 3)),
]


@pytest.mark.parametrize("build, values", RECORDS,
                         ids=[type(build()).__name__ for build, _ in RECORDS])
def test_record_behaviour(build, values):
    a, b = build(), build()
    names = type(a).__slots__
    assert isinstance(a, Record) and a is not b
    assert tuple(getattr(a, name) for name in names) == values
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != values and len({a, b}) == 1  # not a tuple, one set element
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(a) == f"{type(a).__name__}({fields})"
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert a == b and not hasattr(a, "__dict__")
    copy = pickle.loads(pickle.dumps(a))
    assert copy == a and type(copy) is type(a) and hash(copy) == hash(a)


def test_records_differ_across_classes_and_values():
    finite = FiniteDistribution((F(1, 2), F(1, 2)))
    assert finite != TruncatedDistribution((F(1, 2), F(1, 2)), F(0))
    assert Verdict(True, None, None, None) != Verdict(True, 3, None, None)
    assert StickBase() == StickBase("uniform", 1.0, 1.0)
    assert Norm(1) == Norm(F(1))
    with pytest.raises(TypeError):
        DistanceInterval(F(1, 4))
    with pytest.raises(TypeError):
        DistanceInterval(F(1, 4), upper=F(1, 2), width=F(1, 4))


def test_finite_equality_reads_probs_alone():
    """A float and an exact vector of equal entries are equal, though their
    ``tail_mass`` (0.0 against Fraction 0) and exactness differ; ``prefix``
    and ``tail_mass`` stay out of the repr."""
    exact, floats = FiniteDistribution((F(1, 2), F(1, 2))), FiniteDistribution((0.5, 0.5))
    assert exact.is_exact and not floats.is_exact
    assert type(exact.tail_mass) is not type(floats.tail_mass)
    assert exact == floats and hash(exact) == hash(floats)
    assert exact.prefix is exact.probs
    assert repr(floats) == "FiniteDistribution(probs=(0.5, 0.5))"


def test_mc_report_json_is_the_field_dict():
    """``to_json`` gives each field by name, in declaration order."""
    report = McReport(10, 5, 9, 1, 0, 0.5, 3)
    assert list(report.to_json().items()) == [
        ("trials", 10), ("horizon", 5), ("in_blindspot", 9), ("exact_float_collisions", 1),
        ("near_collisions", 0), ("mean_residual_mass", 0.5), ("seed", 3)]

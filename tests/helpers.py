"""Shared generators for randomized exact-rational test cases."""

from fractions import Fraction

from bayesblind import BlockWeights, FiniteDistribution, Partition, normalize
from bayesblind.jeffrey import partitions


def finite_from_rationals(values) -> FiniteDistribution:
    return FiniteDistribution(tuple(Fraction(v) for v in values))


def refines(fine: Partition, coarse: Partition) -> bool:
    """True iff every block of fine lies inside one block of coarse."""
    where = {i: k for k, block in enumerate(coarse.blocks) for i in block}
    return all(len({where[i] for i in block}) == 1 for block in fine.blocks)


def random_positive_dist(rng, n, max_int=20) -> FiniteDistribution:
    values = [Fraction(rng.randint(1, max_int)) for _ in range(n)]
    return normalize(values)


def random_dist(rng, n, max_int=8) -> FiniteDistribution:
    """Random posterior; zeros allowed, small integer grid invites collisions."""
    while True:
        values = [Fraction(rng.randint(0, max_int)) for _ in range(n)]
        if any(values):
            return normalize(values)


def random_partition(rng, n) -> Partition:
    every = list(partitions(n))
    return Partition(every[rng.randrange(len(every))])


def random_weights(rng, k, max_int=6) -> BlockWeights:
    """Random block weights; zero weights allowed, sums to exactly 1."""
    while True:
        values = [Fraction(rng.randint(0, max_int)) for _ in range(k)]
        total = sum(values)
        if total:
            return BlockWeights(tuple(v / total for v in values))

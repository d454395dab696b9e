"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
summary lines.
"""

import random
from fractions import Fraction

import pytest

from bayesblind import (
    BlockWeights,
    L1,
    L2,
    LINF,
    accessible_brute_force,
    bounded_metric,
    collision_count,
    coarsest_partition,
    delta_family,
    densify,
    exteriorize,
    generate_blindspot_member,
    geometric,
    jc_apply,
    lp_distance,
    membership_finite,
    membership_prefix,
    monte_carlo_blindspot_fraction,
    multi_collision_near,
    pick_valid_delta,
    rigidity_holds,
)
from bayesblind.cli import dispatch
from bayesblind.construct import generate_raw_sequence
from bayesblind.distributions import TruncatedDistribution, truncate
from bayesblind.jeffrey import Partition, partitions
from bayesblind.sampler import stick_breaking_matrix
from helpers import random_dist, random_partition, random_positive_dist, random_weights, refines
from reference import has_repeat, ratio_profile, rigidity_by_masses

F = Fraction

GEO_HALF = geometric(F(1, 2))
PRIOR_FAMILY = [
    geometric(F(1, 2)),
    geometric(F(1, 3)),
    geometric(F(2, 5)),
    geometric(F(3, 5)),
    geometric(F(5, 7)),
]


def report(number, label):
    print(f"ACCEPTANCE {number:2d} [{label}]: pass")


def oracle_cases(count=500, seed=1001, n_max=5):
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        n = rng.randint(2, n_max)
        cases.append((random_positive_dist(rng, n), random_dist(rng, n)))
    return cases


def test_criterion_1_oracle_equivalence():
    for p, q in oracle_cases():
        brute = accessible_brute_force(p, q)
        assert brute.accessible == has_repeat(ratio_profile(q, p))
    report(1, "oracle equivalence, 500/500 exact")


def test_criterion_2_equation_equivalence():
    rng = random.Random(2002)
    for _ in range(200):
        n = rng.randint(2, 6)
        p = random_positive_dist(rng, n)
        e = random_partition(rng, n)
        w = random_weights(rng, len(e.blocks))
        q = jc_apply(p, e, w)
        assert rigidity_by_masses(p, q, e)
        assert rigidity_holds(p, q, e)
    for _ in range(200):
        n = rng.randint(2, 6)
        p = random_positive_dist(rng, n)
        e = random_partition(rng, n)
        q = jc_apply(p, e, random_weights(rng, len(e.blocks)))
        assert rigidity_holds(p, q, e)
        masses = BlockWeights(tuple(sum(q.value(i) for i in b) for b in e.blocks))
        assert jc_apply(p, e, masses) == q
    report(2, "JC equation/rigidity/ratio equivalences, 400 triples exact")


def test_criterion_3_coarsest_partition_law():
    for p, q in oracle_cases():
        coarsest = coarsest_partition(p, q)
        for e in map(Partition, partitions(len(p))):
            if rigidity_holds(p, q, e):
                assert refines(e, coarsest)
    report(3, "every JC witness refines the coarsest partition")


def test_criterion_4_generator_validity():
    for run in range(100):
        k = (1, 2, 5)[run % 3]
        priors = PRIOR_FAMILY[:k]
        ms = generate_raw_sequence(priors, 64, seed=run)
        assert all(0 < ms[i] < F(1, 2 ** (i + 1)) for i in range(1, 64))
        q = generate_blindspot_member(priors, 64, seed=run)
        assert sum(q.prefix) + q.tail_mass == 1
        for p in priors:
            assert membership_prefix(p, q, 64).distinct
    report(4, "generator validity, 100 runs at N=64, K in {1,2,5}")


def test_criterion_5_density_bound():
    rng = random.Random(5005)
    eps_grid = [F(1, 10 ** k) for k in range(1, 7)]
    for run in range(100):
        eps = eps_grid[run % 6]
        if run % 3 == 0:
            # ratio <= 2/3 keeps the tail ~1e-12, certifiable even at eps = 1e-6
            target = truncate(geometric(F(rng.randint(1, 6), 9)), 64)
        else:
            prefix = random_positive_dist(rng, 24).probs
            target = TruncatedDistribution(prefix, F(0))
        prior = PRIOR_FAMILY[run % len(PRIOR_FAMILY)]
        result = densify(prior, target, eps)
        assert result.l1_upper < 4 * eps
        n = len(result.distribution)
        assert membership_prefix(prior, result.distribution, n).distinct
    report(5, "density bound < 4*eps, 100 runs across eps 1e-1..1e-6")


def _fallback_input(seed):
    """Blind-spot member with q_2 = 0 (mass folded onto q_1), re-verified."""
    q = generate_blindspot_member([GEO_HALF], 64, seed=seed)
    prefix = (q.value(1) + q.value(2), F(0)) + q.prefix[2:]
    qz = TruncatedDistribution(prefix, F(0))
    if membership_prefix(GEO_HALF, qz, 64).distinct:
        return qz
    return None


def test_criterion_6_empty_interior_bound():
    # against geometric(1/2), q_1/p_1 tops the generator's ratio range, so
    # moves go negative; against geometric(1/3) the large-index ratios
    # dominate q_1/p_1 and moves go positive
    geo_third = geometric(F(1, 3))
    branches = {"positive": 0, "negative": 0, "fallback": 0}
    runs = 0
    seed = 0
    while runs < 100:
        if runs % 3 == 2:
            prior = GEO_HALF
            q = _fallback_input(seed)
            seed += 1
            if q is None:
                continue
            eps = min(F(1, 1000), q.value(3) / 2)
        else:
            prior = GEO_HALF if runs % 3 == 0 else geo_third
            q = generate_blindspot_member([prior], 64, seed=seed)
            seed += 1
            eps = F(1, 1000)
        result = exteriorize(prior, q, eps)
        assert result.l1_distance < 2 * eps
        (one, n), = result.pairs
        assert one == 1
        d = result.distribution
        assert d.value(n) * prior.value(1) == d.value(1) * prior.value(n)
        assert collision_count(prior, d, 64) >= 1
        if result.fallback_used:
            branches["fallback"] += 1
        else:
            branches[result.branch] += 1
        runs += 1
    assert all(count >= 10 for count in branches.values()), branches
    report(6, f"empty-interior bound < 2*eps, 100 runs, branches {branches}")


def test_criterion_7_multi_collision_density():
    for ell in (1, 2, 3, 5):
        done = 0
        seed = 0
        while done < 5:
            q = generate_blindspot_member([GEO_HALF], 64, seed=seed)
            seed += 1
            eps = F(1, 10 ** 4)
            if ell * eps >= q.value(2):
                continue
            result = multi_collision_near(GEO_HALF, q, ell, eps)
            assert collision_count(GEO_HALF, result.distribution, 64) >= ell
            assert result.l1_distance < 2 * ell * eps
            done += 1
    report(7, "S_l density: collision_count >= l within 2*l*eps, l in {1,2,3,5}")


def test_criterion_8_stick_breaking_statistics():
    x, _ = stick_breaking_matrix(2024, 100000, 5)
    for i in range(5):
        assert abs(x[:, i].mean() - 2.0 ** -(i + 1)) < 0.005
    residual_report = monte_carlo_blindspot_fraction(GEO_HALF, 100000, 64, seed=2024)
    assert residual_report.mean_residual_mass < 1e-6
    bs_report = monte_carlo_blindspot_fraction(GEO_HALF, 100000, 50, seed=2024)
    assert bs_report.exact_float_collisions == 0
    assert bs_report.in_blindspot == bs_report.trials
    report(8, "stick-breaking means/residual/blind-spot fraction at 1e5 trials")


def test_criterion_9_delta_family_multiplicity():
    priors = [geometric(F(1, 2)), geometric(F(1, 3))]
    q = generate_blindspot_member(priors, 32, seed=9)
    eps = min(1 - q.value(1), q.value(2)) / 2
    deltas = [pick_valid_delta(q, priors, eps, seed=s) for s in range(50)]
    assert len(set(deltas)) == 50
    members = [delta_family(q, d) for d in deltas]
    assert len(set(members)) == 50
    for member in members:
        for p in priors:
            assert membership_prefix(p, member, 32).distinct
    report(9, "50 distinct deltas give 50 distinct blind-spot members")


def test_criterion_10_metric_suite():
    rng = random.Random(1010)
    for _ in range(500):
        u, v, w = (random_dist(rng, 6) for _ in range(3))
        for norm in (L1, L2, LINF):
            slack = 0 if norm.p in (None, 1) else 1e-12
            assert lp_distance(u, v, norm) == lp_distance(v, u, norm)
            assert lp_distance(u, w, norm) <= (
                lp_distance(u, v, norm) + lp_distance(v, w, norm) + slack
            )
        linf = lp_distance(u, v, LINF)
        l2 = lp_distance(u, v, L2)
        l1 = lp_distance(u, v, L1)
        assert float(linf) <= l2 + 1e-12 <= float(l1) + 2e-12
        d = bounded_metric(u, v, L1)
        assert 0 <= d < 1
    report(10, "metric axioms, norm ordering, bounded metric on 500 samples")


def _capture(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, out


def test_criterion_11_determinism(capsys):
    priors = '[{"kind":"geometric","ratio":"1/2"},{"kind":"geometric","ratio":"1/3"}]'
    geo = '{"kind":"geometric","ratio":"1/2"}'
    target = (
        '{"kind":"truncated","prefix":["1/2","1/4","1/8","1/16","1/32","1/64"],'
        '"tail_mass":"1/64"}'
    )
    seeded_commands = [
        ["bs", "construct", "--priors", priors, "--horizon", "32", "--seed", "11"],
        ["bs", "densify", "--prior", geo, "--target", target,
         "--epsilon", "1/10", "--seed", "2"],
        ["bs", "sample", "--seed", "4", "--horizon", "32"],
        ["bs", "montecarlo", "--prior", geo, "--trials", "9000",
         "--horizon", "16", "--seed", "6"],
    ]
    for argv in seeded_commands:
        code1, out1 = _capture(capsys, argv)
        code2, out2 = _capture(capsys, argv)
        assert (code1, out1) == (code2, out2)
    mc = ["bs", "montecarlo", "--prior", geo, "--trials", "9000",
          "--horizon", "16", "--seed", "6"]
    _, serial = _capture(capsys, mc + ["--workers", "1"])
    _, parallel = _capture(capsys, mc + ["--workers", "4"])
    assert serial == parallel
    report(11, "seeded subcommands byte-identical across runs and worker counts")

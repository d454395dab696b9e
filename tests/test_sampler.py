from fractions import Fraction

import numpy as np
import pytest

from bayesblind import (
    StickBase,
    geometric,
    monte_carlo_blindspot_fraction,
    stick_breaking_sample,
)
from bayesblind import sampler
from bayesblind.sampler import (
    CHUNK_TRIALS,
    UNIFORM,
    parse_base,
    stick_breaking_matrix,
    _chunk_rng,
    _unit_draws,
)
from bayesblind.errors import InputError

F = Fraction
GEO_HALF = geometric(F(1, 2))


class TestStickBase:
    def test_parse_uniform(self):
        assert parse_base("uniform") == UNIFORM

    def test_parse_beta(self):
        b = parse_base("beta:2,3")
        assert (b.kind, b.a, b.b) == ("beta", 2.0, 3.0)

    def test_bad_base(self):
        with pytest.raises(InputError, match="unknown stick base"):
            parse_base("cauchy")
        with pytest.raises(InputError, match="beta parameters"):
            StickBase("beta", -1.0, 1.0)


class TestStickBreakingSample:
    def test_deterministic(self):
        assert stick_breaking_sample(42, 16) == stick_breaking_sample(42, 16)

    def test_mass_near_one(self):
        d = stick_breaking_sample(7, 64)
        assert abs(sum(d.prefix) + d.tail_mass - 1.0) <= 2.0 ** -40

    def test_partial_sums_increasing_below_one(self):
        for seed in range(20):
            d = stick_breaking_sample(seed, 32)
            partial = 0.0
            for x in d.prefix:
                assert x > 0
                partial += x
                # a tiny residual can make the float partial sum round to 1.0
                assert partial < 1.0 or d.tail_mass < 2.0 ** -40

    def test_residual_is_product_of_survivals(self):
        u = _unit_draws(_chunk_rng(3, 0), (1, 32), UNIFORM)[0]
        d = stick_breaking_sample(3, 32)
        assert abs(d.tail_mass - np.prod(1.0 - u)) <= 1e-12 * d.tail_mass


class TestMeans:
    def test_coordinate_means_halve(self):
        x, _ = stick_breaking_matrix(2024, 100000, 5)
        for i in range(5):
            assert abs(x[:, i].mean() - 2.0 ** -(i + 1)) < 0.005

    def test_beta11_matches_uniform(self):
        xu, _ = stick_breaking_matrix(5, 100000, 2)
        xb, _ = stick_breaking_matrix(5, 100000, 2, StickBase("beta", 1.0, 1.0))
        assert abs(xu[:, 0].mean() - xb[:, 0].mean()) < 0.01


class TestMonteCarlo:
    def test_counts_consistent(self):
        report = monte_carlo_blindspot_fraction(GEO_HALF, 500, 20, seed=9)
        assert report.in_blindspot + report.exact_float_collisions == report.trials

    def test_single_trial(self):
        report = monte_carlo_blindspot_fraction(GEO_HALF, 1, 10, seed=0)
        assert report.in_blindspot in (0, 1)

    def test_worker_determinism(self):
        kwargs = dict(trials=9000, n=16, seed=77)
        serial = monte_carlo_blindspot_fraction(GEO_HALF, **kwargs, workers=1)
        parallel = monte_carlo_blindspot_fraction(GEO_HALF, **kwargs, workers=4)
        assert serial == parallel

    def test_trial_records(self):
        report, records = monte_carlo_blindspot_fraction(
            GEO_HALF, 200, 12, seed=3, collect_trials=True
        )
        assert len(records) == 200
        assert [r.trial for r in records] == list(range(200))
        assert sum(not r.in_blindspot for r in records) == report.exact_float_collisions

    def test_residual_mean_tiny_at_64(self):
        report = monte_carlo_blindspot_fraction(GEO_HALF, 2000, 64, seed=11)
        assert 0.0 <= report.mean_residual_mass < 1e-6

    def test_record_pairs_match_pairwise_scan(self):
        # at horizon 800 late stick coordinates underflow to 0.0, so float
        # ratios repeat exactly and records carry witness pairs to check
        n = 800
        _, records = monte_carlo_blindspot_fraction(GEO_HALF, 20, n, seed=4, collect_trials=True)
        x, _ = stick_breaking_matrix(4, 20, n)
        ratios = x / np.array([float(v) for v in GEO_HALF.prefix_values(n)])
        for rec, row in zip(records, ratios):
            expected = None
            for i in range(n):
                later = np.nonzero(row[i + 1:] == row[i])[0]
                if later.size:
                    expected = (i + 1, i + 2 + int(later[0]))
                    break
            assert rec.first_collision == expected


@pytest.mark.parametrize("workers, chunks, cpus, pool_size", [
    (64, 3, 4, 3),    # capped by the chunk count
    (64, 5, 2, 2),    # capped by the cores
    (2, 5, 4, 2),     # as asked
    (8, 1, 4, None),  # one chunk runs serially
    (8, 3, 1, None),  # one core runs serially
    (1, 3, 4, None),
])
def test_worker_clamp(monkeypatch, workers, chunks, cpus, pool_size):
    sizes = []

    class InProcessPool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    kwargs = dict(trials=chunks * CHUNK_TRIALS, n=4, seed=2)
    serial = monte_carlo_blindspot_fraction(GEO_HALF, **kwargs)
    monkeypatch.setattr(sampler.multiprocessing, "Pool", InProcessPool)
    monkeypatch.setattr(sampler.os, "cpu_count", lambda: cpus)
    assert monte_carlo_blindspot_fraction(GEO_HALF, **kwargs, workers=workers) == serial
    assert sizes == ([] if pool_size is None else [pool_size])


@pytest.mark.parametrize("call", [
    pytest.param(lambda: stick_breaking_sample(-1, 8), id="sample"),
    pytest.param(lambda: stick_breaking_matrix(-1, 10, 8), id="matrix"),
    pytest.param(lambda: monte_carlo_blindspot_fraction(  # two chunks: two workers
        GEO_HALF, CHUNK_TRIALS + 1, 8, seed=-1, workers=2), id="montecarlo"),
])
def test_negative_seed_rejected_before_any_pool(monkeypatch, call):
    def no_pool(size):
        raise AssertionError("a pool was started for a negative seed")

    monkeypatch.setattr(sampler.multiprocessing, "Pool", no_pool)
    monkeypatch.setattr(sampler.os, "cpu_count", lambda: 2)
    with pytest.raises(InputError, match="seed"):
        call()


@pytest.mark.parametrize("call", [
    pytest.param(lambda: stick_breaking_matrix(1, 0, 5), id="matrix-no-trials"),
    pytest.param(lambda: stick_breaking_matrix(1, -3, 5), id="matrix-negative-trials"),
    pytest.param(lambda: stick_breaking_matrix(1, 10, 0), id="matrix-no-horizon"),
    pytest.param(lambda: monte_carlo_blindspot_fraction(
        GEO_HALF, 0, 8, workers=2), id="montecarlo-no-trials"),
])
def test_bad_trials_or_horizon_rejected_before_any_draw(monkeypatch, call):
    def no_draw(*args):
        raise AssertionError("a draw was made for a bad trial count or horizon")

    monkeypatch.setattr(sampler, "_chunk_rng", no_draw)
    monkeypatch.setattr(sampler.multiprocessing, "Pool", no_draw)
    with pytest.raises(InputError, match="at least"):
        call()

import concurrent.futures
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from bayesblind.distributions import TruncatedDistribution
from bayesblind.errors import InputError

import reference

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

    @pytest.mark.parametrize("text", ["beta:x,1", "beta:1", "beta:1,2,3"])
    def test_malformed_beta_is_an_input_error(self, text):
        with pytest.raises(InputError, match="unknown stick base"):
            parse_base(text)


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
        u = np.empty(32)
        _unit_draws(_chunk_rng(3, 0), u, UNIFORM)
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
        # three chunks, the last partial: two workers take runs of 1 and 2
        kwargs = dict(trials=2 * CHUNK_TRIALS + 808, n=16, seed=77, collect_trials=True)
        serial = monte_carlo_blindspot_fraction(GEO_HALF, **kwargs, workers=1)
        for workers in (2, 4):
            assert monte_carlo_blindspot_fraction(GEO_HALF, **kwargs, workers=workers) == serial

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
    (0, 3, 4, None),  # fewer than one worker runs serially
    (-2, 3, 4, None),
])
def test_worker_clamp(monkeypatch, workers, chunks, cpus, pool_size):
    thread_runs, workspaces, caller = [], [], threading.get_ident()

    class CountedPool(concurrent.futures.ThreadPoolExecutor):
        def submit(self, fn, *args):
            thread_runs.append(args[1])
            return super().submit(fn, *args)

    def counted_sticks(*args):
        workspaces.append((args[1], threading.get_ident() == caller))
        return sticks(*args)

    # the last chunk is partial: the trial count is no multiple of CHUNK_TRIALS
    kwargs = dict(trials=chunks * CHUNK_TRIALS - 1000, n=4, seed=2, collect_trials=True)
    serial = monte_carlo_blindspot_fraction(GEO_HALF, **kwargs)
    sticks = sampler._sticks
    monkeypatch.setattr(sampler, "_sticks", counted_sticks)
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedPool)
    monkeypatch.setattr(sampler.os, "cpu_count", lambda: cpus)
    assert monte_carlo_blindspot_fraction(GEO_HALF, **kwargs, workers=workers) == serial
    # a thread for each worker but the caller, none for a serial call
    assert len(thread_runs) == (0 if pool_size is None else pool_size - 1)
    runs = [run for run, in_caller in workspaces if in_caller] + thread_runs
    plan = sampler._chunks(2, kwargs["trials"])
    if pool_size is not None:
        # one contiguous, non-empty run of chunks per worker, in chunk order
        assert len(runs) == pool_size and all(runs)
        assert [c for run in runs for c in run] == plan
    # one workspace (one _sticks call) per worker, or one for a serial call;
    # threads make theirs in any order
    assert sorted(run for run, _ in workspaces) == (runs if pool_size is not None else [plan])


def test_more_threads_than_cores_match_serial(monkeypatch):
    """Eight workers on any host, switching threads every microsecond: each
    keeps its own workspace, so the report and records are the serial ones."""
    kwargs = dict(trials=8 * CHUNK_TRIALS - 5, n=6, seed=13, collect_trials=True)
    serial = monte_carlo_blindspot_fraction(GEO_HALF, **kwargs)
    monkeypatch.setattr(sampler.os, "cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert monte_carlo_blindspot_fraction(GEO_HALF, **kwargs, workers=8) == serial
    finally:
        sys.setswitchinterval(interval)


def stopping_run(monkeypatch, hold, fail=None):
    """Six chunks, two workers: the caller runs chunks 0-2, a thread 3-5.
    Chunk ``hold`` waits till the run's stop event is set, chunk ``fail``
    raises.  Returns the list of chunks that ran to their end."""
    done, stops, chunk, run = [], [], sampler._mc_chunk, sampler._mc_run

    def spied_run(*args):
        stops.append(args[-1])
        return run(*args)

    def held_chunk(trials, *args):
        c = trials.start // CHUNK_TRIALS
        if c == fail:
            raise ZeroDivisionError(f"chunk {c}")
        if c == hold:
            assert stops[0].wait(timeout=30), "no run was stopped"
        done.append(c)
        return chunk(trials, *args)

    monkeypatch.setattr(sampler, "_mc_run", spied_run)
    monkeypatch.setattr(sampler, "_mc_chunk", held_chunk)
    monkeypatch.setattr(sampler.os, "cpu_count", lambda: 2)
    return done


def test_failed_run_stops_every_other_run(monkeypatch):
    """Chunk 4, in the thread's run, raises: the caller gets that error, and its
    own run ends after chunk 0, the one it was in; no thread is left running."""
    done, before = stopping_run(monkeypatch, hold=0, fail=4), threading.active_count()
    with pytest.raises(ZeroDivisionError, match="chunk 4"):
        monte_carlo_blindspot_fraction(GEO_HALF, 6 * CHUNK_TRIALS, 4, workers=2)
    assert sorted(done) == [0, 3]
    assert threading.active_count() == before


def test_interrupt_stops_every_run(monkeypatch):
    """An interrupt while the caller waits for the thread reaches the caller,
    and the thread's run ends after chunk 3, the one it was in."""
    done, before = stopping_run(monkeypatch, hold=3), threading.active_count()

    def interrupted(self, timeout=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(concurrent.futures.Future, "result", interrupted)
    with pytest.raises(KeyboardInterrupt):
        monte_carlo_blindspot_fraction(GEO_HALF, 6 * CHUNK_TRIALS, 4, workers=2)
    assert sorted(done) == [0, 1, 2, 3]
    assert threading.active_count() == before


@pytest.mark.parametrize("call", [
    pytest.param(lambda: stick_breaking_sample(-1, 8), id="sample"),
    pytest.param(lambda: stick_breaking_matrix(-1, 10, 8), id="matrix"),
    pytest.param(lambda: monte_carlo_blindspot_fraction(  # two chunks: two workers
        GEO_HALF, CHUNK_TRIALS + 1, 8, seed=-1, workers=2), id="montecarlo"),
])
def test_negative_seed_rejected_before_any_pool(monkeypatch, call):
    def no_pool(size):
        raise AssertionError("a thread pool was made for a negative seed")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
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
    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_draw)
    with pytest.raises(InputError, match="at least"):
        call()


KERNEL_BASES = [
    pytest.param(UNIFORM, id="uniform"),
    pytest.param(StickBase("beta", 0.5, 2.0), id="beta-0.5-2"),
    pytest.param(StickBase("beta", 0.05, 0.05), id="beta-0.05-0.05"),
]
KERNEL_CASES = [  # (prior, horizon, trials): multi-chunk runs end in a partial chunk
    pytest.param(GEO_HALF, 1, CHUNK_TRIALS + 5, id="n1"),
    pytest.param(GEO_HALF, 2, CHUNK_TRIALS + 5, id="n2"),
    pytest.param(GEO_HALF, 16, 2 * CHUNK_TRIALS + 7, id="n16"),
    pytest.param(GEO_HALF, 50, CHUNK_TRIALS + 300, id="n50"),
    pytest.param(GEO_HALF, 800, 37, id="n800"),  # late coordinates underflow to 0.0
    pytest.param(geometric(F(1, 1000)), 120, 2000, id="geo-1/1000-n120"),  # p_i underflows
    pytest.param(geometric(F(999, 1000)), 1500, 300, id="geo-999/1000-n1500"),
    # every float p_i is 0.0, so every ratio is inf and every row a collision
    pytest.param(TruncatedDistribution((F(1, 10**400),) * 3, 1 - F(3, 10**400)), 3, 50,
                 id="float-zero-prior-n3"),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and nan ratios of underflow
@pytest.mark.parametrize("prior, n, trials", KERNEL_CASES)
@pytest.mark.parametrize("base", KERNEL_BASES)
def test_kernel_matches_reference_bytes(base, prior, n, trials):
    seed = 6
    expected = reference.monte_carlo(prior, trials, n, base, seed)
    for workers in (1, 2) if trials > CHUNK_TRIALS else (1,):
        assert monte_carlo_blindspot_fraction(
            prior, trials, n, base=base, seed=seed, workers=workers, collect_trials=True
        ) == expected
    x, residual = stick_breaking_matrix(seed, trials, n, base)
    ref_x, ref_residual = reference.stick_matrix(seed, trials, n, base)
    assert x.shape == (trials, n) and x.flags.c_contiguous
    assert x.tobytes() == ref_x.tobytes() and residual.tobytes() == ref_residual.tobytes()
    if n >= 2:
        ref_x, ref_residual = reference.stick_matrix(seed, 1, n, base)
        sample = stick_breaking_sample(seed, n, base)
        assert np.array(sample.prefix).tobytes() == ref_x[0].tobytes()
        assert np.float64(sample.tail_mass).tobytes() == ref_residual[0].tobytes()


@pytest.mark.parametrize("base", [UNIFORM, StickBase("beta", 0.5, 2.0)], ids=["uniform", "beta"])
def test_underflowed_prior_raises_no_numpy_warning(base):
    """geometric(1/1000) entries underflow to 0.0 or a subnormal by index 120:
    the inf and nan ratios, and under the beta base the quotients that overflow
    to inf, are counted by the compare, not reported as RuntimeWarnings."""
    prior = geometric(F(1, 1000))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the reference still warns
        expected = reference.monte_carlo(prior, 50, 120, base, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = monte_carlo_blindspot_fraction(prior, 50, 120, base, seed=1, collect_trials=True)
    assert got == expected


TINY = np.nextafter(0.0, 1.0)  # the smallest subnormal
MAX = np.finfo(np.float64).max


def _below(b, k):
    """The double k steps of np.nextafter below b."""
    a = np.float64(b)
    for _ in range(k):
        a = np.nextafter(a, 0.0)
    return a


def _near_bound(b):
    """The largest k for which b and the double k steps below it are a near
    pair under the kernel's test b - a <= 1e-12·b."""
    k, a = 0, np.float64(b)
    while b - np.nextafter(a, 0.0) <= sampler.NEAR_COLLISION_RTOL * b:
        k, a = k + 1, np.nextafter(a, 0.0)
    return k


def _double(bits):
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


def _straddle(high):
    """The adjacent doubles whose high words are high and high + 1: low word
    0xFFFFFFFF beside the next high word's 0x00000000."""
    return _double(high << 32 | 0xFFFFFFFF), _double((high + 1) << 32)


def _planted_pairs():
    """Sorted pairs (a, b): ties, pairs on both sides of the 1e-12 bound
    (within a binade, straddling a power of two, subnormal, near the largest
    double), 0.0 beside the smallest subnormal, subnormal pairs, pairs across a
    high-word boundary (the last one is the largest double beside inf), and
    inf and NaN pairs: a finite ratio beside inf is not near."""
    pairs = [(0.0, 0.0), (TINY, TINY), (1.0, 1.0), (MAX, MAX), (0.0, TINY),
             (3 * TINY, 7 * TINY), (_below(2.0, 1), np.nextafter(2.0, 3.0)),
             (1.0, np.inf), (np.inf, np.inf), (np.nan, np.nan), (-np.nan, np.nan)]
    for b in (1.0, 1.5, 1.0 + 2.0 ** -40, np.nextafter(2.0 ** -1022, 0.0), 2.0 ** -1022,
              2.0 ** -1060, MAX):
        bound = _near_bound(b)
        pairs += [(_below(b, k), b) for k in (bound - 1, bound, bound + 1, bound + 2)]
    return pairs + [_straddle(h) for h in (0, 0x000FFFFF, 0x3FEFFFFF, 0x3FF00000, 0x7FEFFFFF)]


def _planted_rows(n):
    """(m, n) rows, sorted: each planted pair among n - 2 random fillers, or for
    n = 1 each value of the pairs alone."""
    pairs = _planted_pairs()
    if n == 1:
        return np.array([[v] for pair in pairs for v in pair])
    rng = np.random.default_rng(n)
    fillers = rng.random((len(pairs), n - 2)) * 2.0 ** rng.integers(-1074, 1023, (len(pairs), 1))
    return np.sort(np.hstack([np.array(pairs), fillers]), axis=1)


def _flagged(s):
    """The screen's flagged rows of sorted ratio rows s (m, n)."""
    return sampler._flagged_rows(s.T.copy(), np.empty(s.shape)).tolist()


@pytest.mark.parametrize("n", [1, 2, 6])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf in the reference
def test_screen_flags_every_row_the_full_compare_flags(n):
    s = _planted_rows(n)
    exact, near = reference.full_compare(s)
    assert n == 1 or (exact.any() and near.any())  # the planted pairs are seen
    assert set(np.flatnonzero(exact | near)) <= set(_flagged(s))


@settings(deadline=None)
@given(st.integers(2, 12), st.integers(0, 0x7FF0000000000000), st.integers(0, 1 << 20),
       st.integers(0, 2 ** 32))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_screen_flags_a_pair_planted_k_ulps_apart(n, b_bits, k, seed):
    """A pair a <= b, k ulps apart, among n - 2 random ratios: the row is
    flagged whenever the full compare flags it, and whenever the pair's high
    words differ by at most 1."""
    a_bits = max(b_bits - k, 0)
    rng = np.random.default_rng(seed)
    fillers = rng.random(n - 2) * 2.0 ** float(rng.integers(-1074, 1023))
    s = np.sort(np.concatenate([[_double(a_bits), _double(b_bits)], fillers]))[None, :]
    exact, near = reference.full_compare(s)
    flagged = _flagged(s) == [0]
    assert flagged or not (exact[0] or near[0])
    assert flagged or (b_bits >> 32) - (a_bits >> 32) > 1


def test_screen_bound_and_row_ends():
    one = 0x3FF00000  # the high word of 1.0
    s = np.array([[_double((one - 1) << 32), 1.0],  # high words 1 apart
                  [_double((one - 2) << 32 | 0xFFFFFFFF), 1.0],  # 2 apart, 2^32 + 1 ulps
                  [1.0, 2.0], [2.0, 4.0],  # equal across a row end only
                  [-np.nan, np.nan]])  # the int32 step wraps negative: flagged
    assert _flagged(s) == [0, 4]
    assert not np.any(reference.full_compare(s)[1][2:])
    assert _flagged(np.array([[1.0], [1.0], [np.inf], [np.inf]])) == []  # n = 1: no pairs


@pytest.mark.parametrize("n", [1, 2, 6])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_chunk_counts_match_reference_on_planted_rows(n):
    s = _planted_rows(n)
    m = len(s)
    exact, near = reference.full_compare(s)
    x = np.random.default_rng(0).permuted(s, axis=1).T.copy()  # a trial per column
    got_exact, got_near, _, records = sampler._mc_chunk(
        slice(0, m), x, np.zeros(m), np.empty((m, n)), np.ones(n), True)
    assert (got_exact, got_near) == (int(exact.sum()), int(near.sum()))
    assert [not r.in_blindspot for r in records] == exact.tolist()


def test_chunk_witness_is_the_least_pair_of_equal_ratios():
    """Each trial's first collision from the one stable ordering in _mc_chunk:
    a three-way tie, two ties whose least pair does not sort first, an inf
    pair, a NaN pair (never equal), a zero pair and a distinct row."""
    nan, inf = np.nan, np.inf
    rows = np.array([[7.0, 2.0, 2.0, 2.0], [5.0, 3.0, 5.0, 3.0], [1.0, inf, 4.0, inf],
                     [nan, 1.0, nan, 2.0], [0.0, 3.0, 0.0, 1.0], [4.0, 3.0, 2.0, 1.0]])
    m, n = rows.shape
    exact, _, _, records = sampler._mc_chunk(
        slice(10, 10 + m), rows.T.copy(), np.zeros(m), np.empty((m, n)), np.ones(n), True)
    expected = [reference.RatioIndex(row.tolist()).first_collision for row in rows]
    assert expected == [(2, 3), (1, 3), (2, 4), None, (1, 3), None]
    assert [r.first_collision for r in records] == expected
    assert [r.in_blindspot for r in records] == [pair is None for pair in expected]
    assert [r.trial for r in records] == list(range(10, 10 + m)) and exact == 4


def test_finite_ratio_beside_inf_is_not_near():
    """geometric(1/1000) entries underflow to 0.0 by index 120, so every trial
    holds inf ratios: the 50 exact collisions stand (ROADMAP item 4), the 50
    near ones that inf - a <= 1e-12·inf made are gone."""
    report = monte_carlo_blindspot_fraction(geometric(F(1, 1000)), 50, 120, seed=1)
    assert (report.exact_float_collisions, report.near_collisions) == (50, 0)


def test_few_trials_reach_the_float_compare(monkeypatch):
    """Three 4096-trial uniform chunks under geometric(1/2) at n = 50: the
    screen sends fewer than 1% of the trials to the float compare."""
    screened, flagged, screen = [], [], sampler._flagged_rows

    def counted(ratios, u):
        rows = screen(ratios, u)
        screened.append(ratios.shape[1])
        flagged.append(len(rows))
        return rows

    monkeypatch.setattr(sampler, "_flagged_rows", counted)
    monte_carlo_blindspot_fraction(GEO_HALF, 3 * CHUNK_TRIALS, 50, seed=1)
    assert screened == [CHUNK_TRIALS] * 3
    assert sum(flagged) < 0.01 * 3 * CHUNK_TRIALS


def test_beta_draw_of_one_is_redrawn():
    class OnesFirst:  # a beta stream whose first draws round to 1.0
        draws = iter([[[0.5, 1.0], [1.0, 0.25]], [1.0, 0.75], [0.125]])

        def beta(self, a, b, shape):
            return np.array(next(self.draws)).reshape(shape)

    u = np.empty((2, 2))
    _unit_draws(OnesFirst(), u, StickBase("beta", 2.0, 2.0))
    assert u.tolist() == [[0.5, 0.125], [0.75, 0.25]]


@pytest.mark.parametrize("n", [50, 800])
def test_workspace_is_two_chunk_buffers(monkeypatch, n):
    """README: one 4096-trial call holds 2 × 4096 × n × 8 bytes of workspace,
    the draw and coordinate buffers, live at the first chunk."""
    live, chunk = [], sampler._mc_chunk

    def measure_first(*args):
        if not live:
            traces = tracemalloc.take_snapshot().filter_traces(
                [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)])
            traces = traces.filter_traces([tracemalloc.Filter(True, sampler.__file__)])
            live.append(sum(stat.size for stat in traces.statistics("filename")))
        return chunk(*args)

    monkeypatch.setattr(sampler, "_mc_chunk", measure_first)
    p_float = np.array([float(v) for v in GEO_HALF.prefix_values(n)])
    tracemalloc.start()
    try:
        sampler._mc_run(0, sampler._chunks(0, CHUNK_TRIALS), n, UNIFORM, p_float, False,
                        threading.Event())
    finally:
        tracemalloc.stop()
    assert live == [2 * CHUNK_TRIALS * n * 8]

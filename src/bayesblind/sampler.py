"""Stick-breaking random distributions and Monte Carlo blind-spot estimation.

Sampling is float64 by design: the underlying measure is continuous, and
its almost-sure claims are probed statistically, never asserted exactly.
Exact float ratio equality counts as a collision; near-equality within a
1e-12 relative threshold is reported separately and never flips a verdict.

Reproducibility contract: ``_chunks`` alone plans the work.  It checks the
seed and trial count, then partitions the trials into chunks of at most
``CHUNK_TRIALS``; chunk c draws from ``SeedSequence(entropy=seed,
spawn_key=(c,))``.  Each worker, the caller or a thread, takes a contiguous
run of chunks, reduced in chunk order: output is identical for any worker count.

Kernel layout: each worker reuses one workspace for all its chunks, the two
buffers of ``_sticks``: draws (m, n) and coordinates (n, m).  Once the draws
are copied out, the draw buffer holds the survivals, then the row screen's
sorted int32 high words and their steps; only flagged rows are float-ordered,
once.  Buffer reuse changes no arithmetic, so the contract holds.
"""

from __future__ import annotations

import math
import os
import sys
import threading

import numpy as np

from .distributions import Distribution, TruncatedDistribution, require_positive_prefix
from .errors import InputError
from .records import Record, setfield

NEAR_COLLISION_RTOL = 1e-12
CHUNK_TRIALS = 4096
HIGH_WORD = int(sys.byteorder == "little")  # int32 index of a double's sign and exponent


class StickBase(Record):
    """Base draw on [0, 1): uniform or beta(a, b)."""

    __slots__ = ("kind", "a", "b")

    def __init__(self, kind: str = "uniform", a: float = 1.0, b: float = 1.0):
        if kind not in ("uniform", "beta"):
            raise InputError(f"unknown stick base {kind!r}")
        if kind == "beta" and not all(0 < x < math.inf for x in (a, b)):
            raise InputError("beta parameters must be positive and finite")
        super().__init__(kind, a, b)


UNIFORM = StickBase("uniform")


def parse_base(text: str) -> StickBase:
    s = text.strip().lower()
    if s == "uniform":
        return UNIFORM
    try:  # "beta:a,b" with two floats; anything else is unpacked from () and fails
        a, b = (float(t) for t in s[5:].split(",")) if s.startswith("beta:") else ()
    except ValueError:
        raise InputError(f"unknown stick base {text!r}; expected uniform|beta:a,b") from None
    return StickBase("beta", a, b)


def _chunks(seed: int, trials: int) -> list:
    """The chunk plan: (chunk, size, first_trial) for each chunk of at most
    CHUNK_TRIALS trials.  The trial count and seed are checked here, before
    any draw or worker thread."""
    if trials < 1:
        raise InputError("need at least one trial")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    return [(chunk, min(CHUNK_TRIALS, trials - first), first)
            for chunk, first in enumerate(range(0, trials, CHUNK_TRIALS))]


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk,)))


def _unit_draws(rng: np.random.Generator, u: np.ndarray, base: StickBase) -> None:
    """Fill u with base draws, in the stream order of one ``u.shape`` draw."""
    if base.kind == "uniform":  # k/2^53 with k < 2^53: never 1, nothing to re-draw
        rng.random(out=u)
        return
    u[...] = rng.beta(base.a, base.b, u.shape)
    # a beta draw can round to 1.0: it is re-drawn, so every break stays below the stick
    if u.max() >= 1.0:
        redrawn = u[u >= 1.0]
        _unit_draws(rng, redrawn, base)
        u[u >= 1.0] = redrawn


def _sticks(seed: int, run: list, n: int, base: StickBase):
    """Stick-breaking samples for a run of chunks through one workspace, sized
    by the run's first (largest) chunk of m: draws (m, n), then survivals
    (n, m) in the same memory, and coordinates (n, m).  Yields each chunk's
    trial rows, coordinates, residuals and its draw buffer (m, n), free to
    reuse once the residuals, its last m entries, are read."""
    m = run[0][1]
    draws, coords = np.empty((m, n)), np.empty((n, m))
    for chunk, m, first in run:
        u, x = draws[:m], coords[:, :m]
        _unit_draws(_chunk_rng(seed, chunk), u, base)
        x[...] = u.T
        kept = np.subtract(1.0, x, out=u.reshape(n, m))  # the draws are spent
        for i in range(1, n):  # np.cumprod(axis=0)'s bits; that call is ~9x slower at 50x4096
            kept[i] *= kept[i - 1]
        x[1:] *= kept[:-1]
        yield slice(first, first + m), x, kept[-1], u


def stick_breaking_matrix(seed: int, trials: int, n: int, base: StickBase = UNIFORM):
    """(trials, n) coordinate matrix plus residuals, chunk-deterministic."""
    if n < 1:
        raise InputError(f"horizon must be at least 1, got {n}")
    plan = _chunks(seed, trials)
    xs, residuals = np.empty((trials, n)), np.empty(trials)
    for rows, x, residual, _ in _sticks(seed, plan, n, base):
        xs[rows], residuals[rows] = x.T, residual
    return xs, residuals


def stick_breaking_sample(seed: int, n: int, base: StickBase = UNIFORM) -> TruncatedDistribution:
    """One stick-breaking sample, deterministic given the seed."""
    if n < 2:
        raise InputError("horizon must be at least 2")
    x, residual = stick_breaking_matrix(seed, 1, n, base)
    return TruncatedDistribution(tuple(float(v) for v in x[0]), float(residual[0]))


class TrialRecord(Record):
    __slots__ = ("trial", "in_blindspot", "first_collision", "residual_mass")

    def __init__(self, trial, in_blindspot, first_collision, residual_mass):
        setfield(self, "trial", trial)
        setfield(self, "in_blindspot", in_blindspot)
        setfield(self, "first_collision", first_collision)  # (i, j) 1-based or None
        setfield(self, "residual_mass", residual_mass)


class McReport(Record):
    __slots__ = ("trials", "horizon", "in_blindspot", "exact_float_collisions",
                 "near_collisions", "mean_residual_mass", "seed")

    def to_json(self) -> dict:
        return dict(zip(self.__slots__, self._values()))


def _flagged_rows(ratios, u):
    """Trials, columns of ratios (n, m), that may hold an equal or near pair:
    their ratios' int32 high words sorted per trial in the first half of u, a
    free (m, n) float buffer, adjacent steps in its second.  A superset of the
    float compare in ``_mc_chunk``, as
    - bit patterns of finite doubles >= +0 are monotone (no ratio is -0.0: x =
      u·kept with u, kept >= +0 and p_i > 0);
    - a near pair a <= b has fl(b - a) <= fl(1e-12·b), so a > b/2, b - a is
      exact and under 18,015 ulps < 2^32: their high words differ by at most
      1, and so does some adjacent pair of the sorted words;
    - two infs share a word; a NaN is never equal or near to anything;
    - an int32 step that overflows wraps negative: one more candidate row."""
    n, m = ratios.shape
    high, step = u.reshape(-1).view(np.int32).reshape(2, m, n)
    high[...] = ratios.view(np.int32)[:, HIGH_WORD::2].T
    high.sort(axis=1)
    np.subtract(high.reshape(-1)[1:], high.reshape(-1)[:-1], out=step.reshape(-1)[:-1])
    step[:, -1] = 2  # a row's last word against the next row's first
    rows = np.flatnonzero(step <= 1) // n  # sorted, a row once per flagged step
    return rows[np.diff(rows, prepend=-1) > 0]


@np.errstate(divide="ignore", over="ignore", invalid="ignore")  # p_i underflowed: inf, nan
def _mc_chunk(trials, x, residual, u, p_float, collect):
    """One chunk's counts and records; u, its draw buffer, holds the residuals till screened.
    A flagged trial's ratios are ordered once, stably, so a run a < b < c of equal ratios
    steps (a, b), then (b, c): its equal steps decide the collision, and their least pair
    (order[k] + 1, order[k + 1] + 1) is ``RatioIndex.first_collision``, a fibre's first two."""
    residual_sum, residuals = float(residual.sum()), residual.tolist() if collect else ()
    ratios = np.divide(x, p_float[:, None], out=x)  # transposed: a trial per column
    rows = _flagged_rows(ratios, u)
    r = ratios[:, rows].T
    order = np.argsort(r, axis=1, kind="stable")
    s = np.take_along_axis(r, order, axis=1)
    eq = s[:, 1:] == s[:, :-1]
    near = (s[:, 1:] - s[:, :-1]) <= NEAR_COLLISION_RTOL * np.abs(s[:, 1:])
    near &= np.isfinite(s[:, 1:])  # inf - a <= 1e-12·inf holds for any finite a
    hit = np.flatnonzero(eq.any(axis=1))
    witness = {}
    if collect and hit.size:  # argmin needs a step; at n = 1 there is none, and no hit
        k = np.where(eq[hit], order[hit, :-1], len(x)).argmin(axis=1)
        pairs = zip((order[hit, k] + 1).tolist(), (order[hit, k + 1] + 1).tolist())
        witness = dict(zip(rows[hit].tolist(), pairs))
    records = [TrialRecord(trials.start + t, t not in witness, witness.get(t), mass)
               for t, mass in enumerate(residuals)]  # none unless collecting
    return hit.size, int((near & ~eq).any(axis=1).sum()), residual_sum, records


def _mc_run(seed, run, n, base, p_float, collect, stop):
    """One worker's contiguous run of chunks: a result per chunk till ``stop`` is set."""
    chunks, results = _sticks(seed, run, n, base), []
    try:
        while not stop.is_set() and (chunk := next(chunks, None)):
            results.append(_mc_chunk(*chunk, p_float, collect))
        return results
    except BaseException:  # a failed run ends every other run before its next chunk
        stop.set()
        raise


def monte_carlo_blindspot_fraction(prior: Distribution, trials: int, n: int,
                                   base: StickBase = UNIFORM, seed: int = 0, workers: int = 1,
                                   collect_trials: bool = False):
    """Monte Carlo frequency of (prefix) blind-spot membership under the
    stick-breaking measure.  Returns an McReport, or (McReport, records)
    when per-trial records are requested."""
    from concurrent.futures import ThreadPoolExecutor
    plan = _chunks(seed, trials)
    p_float = np.array([x / y for x, y in require_positive_prefix(prior, n)])
    workers = max(1, min(workers, len(plan), os.cpu_count() or 1))  # more would idle or contend
    runs = [plan[w * len(plan) // workers:(w + 1) * len(plan) // workers] for w in range(workers)]
    args = (n, base, p_float, collect_trials, stop := threading.Event())
    with ThreadPoolExecutor(workers) as pool:  # a thread for each run but the caller's first
        try:
            later = [pool.submit(_mc_run, seed, run, *args) for run in runs[1:]]
            results = _mc_run(seed, runs[0], *args) + [r for f in later for r in f.result()]
        finally:  # an error or interrupt here ends every thread's run at its next chunk
            stop.set()
    exact, near, sums, chunk_records = zip(*results)
    exact, residual_sum = sum(exact), 0.0
    for r in sums:  # fixed chunk order keeps the float sum reproducible
        residual_sum += r
    records = [rec for r in chunk_records for rec in r]
    report = McReport(trials=trials, horizon=n, in_blindspot=trials - exact,
                      exact_float_collisions=exact, near_collisions=sum(near),
                      mean_residual_mass=residual_sum / trials, seed=seed)
    return (report, records) if collect_trials else report

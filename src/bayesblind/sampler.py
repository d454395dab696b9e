"""Stick-breaking random distributions and Monte Carlo blind-spot estimation.

Sampling is float64 by design: the underlying measure is continuous, and
its almost-sure claims are probed statistically, never asserted exactly.
Exact float ratio equality counts as a collision; near-equality within a
1e-12 relative threshold is reported separately and never flips a verdict.

Reproducibility contract: ``_chunks`` alone plans the work.  It checks the
seed and trial count, then partitions the trials into chunks of at most
``CHUNK_TRIALS``; chunk c draws from ``SeedSequence(entropy=seed,
spawn_key=(c,))``.  Workers process whole chunks and results are reduced in
chunk order, so output is identical for any worker count.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .distributions import (
    Distribution,
    RatioIndex,
    TruncatedDistribution,
    require_positive_prefix,
)
from .errors import InputError

NEAR_COLLISION_RTOL = 1e-12
CHUNK_TRIALS = 4096


@dataclass(frozen=True)
class StickBase:
    """Base draw on [0, 1): uniform or beta(a, b)."""

    kind: str = "uniform"
    a: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if self.kind not in ("uniform", "beta"):
            raise InputError(f"unknown stick base {self.kind!r}")
        if self.kind == "beta" and not all(0 < x < math.inf for x in (self.a, self.b)):
            raise InputError("beta parameters must be positive and finite")


UNIFORM = StickBase("uniform")


def parse_base(text: str) -> StickBase:
    s = text.strip().lower()
    if s == "uniform":
        return UNIFORM
    if s.startswith("beta:"):
        a, b = (float(t) for t in s[5:].split(","))
        return StickBase("beta", a, b)
    raise InputError(f"unknown stick base {text!r}; expected uniform|beta:a,b")


def _chunks(seed: int, trials: int) -> list:
    """The chunk plan: (chunk, size, first_trial) for each chunk of at most
    CHUNK_TRIALS trials.  The trial count and seed are checked here, in the
    calling process, before any draw or worker pool."""
    if trials < 1:
        raise InputError("need at least one trial")
    if seed < 0:
        raise InputError(f"seed must be non-negative, got {seed}")
    return [(chunk, min(CHUNK_TRIALS, trials - first), first)
            for chunk, first in enumerate(range(0, trials, CHUNK_TRIALS))]


def _chunk_rng(seed: int, chunk: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk,)))


def _unit_draws(rng: np.random.Generator, shape, base: StickBase) -> np.ndarray:
    def draw(size):
        return rng.random(size) if base.kind == "uniform" else rng.beta(base.a, base.b, size)

    u = draw(shape)
    # a draw exactly equal to the remaining mass (u == 1) is re-drawn;
    # the half-open convention keeps every break strictly below the stick
    mask = u >= 1.0
    while mask.any():
        u[mask] = draw(int(mask.sum()))
        mask = u >= 1.0
    return u


def _stick_chunk(rng: np.random.Generator, m: int, n: int, base: StickBase):
    """m stick-breaking samples of length n: coordinates and residual mass."""
    u = _unit_draws(rng, (m, n), base)
    kept = np.cumprod(1.0 - u, axis=1)
    prev = np.concatenate([np.ones((m, 1)), kept[:, :-1]], axis=1)
    x = u * prev
    return x, kept[:, -1]


def stick_breaking_matrix(seed: int, trials: int, n: int, base: StickBase = UNIFORM):
    """(trials, n) coordinate matrix plus residuals, chunk-deterministic."""
    if n < 1:
        raise InputError(f"horizon must be at least 1, got {n}")
    xs, residuals = zip(*(_stick_chunk(_chunk_rng(seed, chunk), m, n, base)
                          for chunk, m, _ in _chunks(seed, trials)))
    return np.concatenate(xs, axis=0), np.concatenate(residuals, axis=0)


def stick_breaking_sample(seed: int, n: int, base: StickBase = UNIFORM) -> TruncatedDistribution:
    """One stick-breaking sample, deterministic given the seed."""
    if n < 2:
        raise InputError("horizon must be at least 2")
    x, residual = stick_breaking_matrix(seed, 1, n, base)
    return TruncatedDistribution(tuple(float(v) for v in x[0]), float(residual[0]))


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    in_blindspot: bool
    first_collision: Optional[tuple]  # (i, j) 1-based or None
    residual_mass: float


@dataclass(frozen=True)
class McReport:
    trials: int
    horizon: int
    in_blindspot: int
    exact_float_collisions: int
    near_collisions: int
    mean_residual_mass: float
    seed: int

    def to_json(self) -> dict:
        return asdict(self)


def _mc_chunk(args):
    seed, chunk, m, n, base, p_float, collect, trial_offset = args
    x, residual = _stick_chunk(_chunk_rng(seed, chunk), m, n, base)
    ratios = x / p_float
    s = np.sort(ratios, axis=1)
    eq = s[:, 1:] == s[:, :-1]
    near = (s[:, 1:] - s[:, :-1]) <= NEAR_COLLISION_RTOL * np.abs(s[:, 1:])
    exact_trials = eq.any(axis=1)
    near_trials = (near & ~eq).any(axis=1)
    records = []
    if collect:
        for t in range(m):
            pair = RatioIndex(ratios[t].tolist()).first_collision if exact_trials[t] else None
            records.append(
                TrialRecord(trial_offset + t, not exact_trials[t], pair, float(residual[t]))
            )
    return (
        int(exact_trials.sum()),
        int(near_trials.sum()),
        float(residual.sum()),
        records,
    )


def monte_carlo_blindspot_fraction(
    prior: Distribution,
    trials: int,
    n: int,
    base: StickBase = UNIFORM,
    seed: int = 0,
    workers: int = 1,
    collect_trials: bool = False,
):
    """Monte Carlo frequency of (prefix) blind-spot membership under the
    stick-breaking measure.  Returns an McReport, or (McReport, records)
    when per-trial records are requested."""
    plan = _chunks(seed, trials)
    p_float = np.array([float(v) for v in require_positive_prefix(prior, n)])
    tasks = [(seed, chunk, m, n, base, p_float, collect_trials, first)
             for chunk, m, first in plan]
    # more processes than chunks or cores would only add start-up cost
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with multiprocessing.Pool(workers) as pool:
            results = pool.map(_mc_chunk, tasks)
    else:
        results = [_mc_chunk(t) for t in tasks]
    exact = sum(r[0] for r in results)
    near = sum(r[1] for r in results)
    residual_sum = 0.0
    for r in results:  # fixed chunk order keeps the float sum reproducible
        residual_sum += r[2]
    records = [rec for r in results for rec in r[3]]
    report = McReport(
        trials=trials,
        horizon=n,
        in_blindspot=trials - exact,
        exact_float_collisions=exact,
        near_collisions=near,
        mean_residual_mass=residual_sum / trials,
        seed=seed,
    )
    if collect_trials:
        return report, records
    return report

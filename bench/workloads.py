"""Benchmark workloads: seeded inputs, one op each, outcome checks.

Each workload builds a pool of inputs from the workload seed.  Ops walk the
pool in order, so the op mix is a fixed cycle over size classes; every pool
is a whole number of cycles.  An op returns a JSON-ready outcome; ``check``
then re-derives what it can with this file's own exact arithmetic, never
through the library, so a wrong answer from the library is a failed op.

The library is reached only through ``lib``, an object whose attributes are
the public functions named in ``LAYERS`` (wrapped in spans when traced).
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction as F

import bayesblind
from bayesblind import BlockWeights, Partition, geometric

#: public functions the ops call, by module; the module is the layer
LAYERS = {
    "distributions": ("dist_from_json", "dist_to_json", "truncate"),
    "metrics": ("lp_distance", "l1_upper_bound"),
    "jeffrey": ("jc_apply", "rigidity_holds", "coarsest_partition"),
    "blindspot": (
        "membership_finite", "membership_prefix", "family_membership", "collision_count",
    ),
    "construct": (
        "generate_blindspot_member", "pick_valid_delta", "delta_family",
        "densify", "exteriorize", "multi_collision_near",
    ),
    "sampler": ("monte_carlo_blindspot_fraction", "stick_breaking_matrix"),
    # main is a whole CLI run in its own interpreter; dispatch is in-process
    "cli": ("main", "dispatch"),
}

#: the five-prior geometric family of the paper's construction loop
PRIOR_RATIOS = (F(1, 2), F(1, 3), F(2, 5), F(3, 5), F(5, 7))
MULTI_PAIRS = 3


@dataclass
class Item:
    cls: str
    data: dict
    kind: object  # the workload whose run/check/probe handle this item
    work: dict = field(default_factory=dict)  # input sizes, for per-layer counts


def digest(outcome) -> str:
    if isinstance(outcome, dict) and "stdout" in outcome:
        blob = b"%d\n" % outcome["exit"] + outcome["stdout"]
    else:
        blob = json.dumps(outcome, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def interleave(classes, weights) -> tuple:
    """One op-mix cycle: ``weights[k]`` ops of ``classes[k]``, round-robin."""
    cycle, left = [], list(weights)
    while any(left):
        for k, cls in enumerate(classes):
            if left[k]:
                cycle.append(cls)
                left[k] -= 1
    return tuple(cycle)


def build_pool(workload, seed):
    """``workload.cycles`` repeats of ``workload.cycle``; returns the pool and
    the cycle length.  ``workload.maker(seed)(cls, k)`` builds the k-th item
    of a class, so the seed alone fixes every input."""
    make = workload.maker(seed)
    seen = dict.fromkeys(workload.cycle, 0)
    pool = []
    for _ in range(workload.cycles):
        for cls in workload.cycle:
            pool.append(make(cls, seen[cls]))
            seen[cls] += 1
    return pool, len(workload.cycle)


# ------------------------------------------------------ exact re-derivation


def fmt(x: F) -> str:
    return f"{x.numerator}/{x.denominator}"


def geo_prefix(r: F, n: int) -> list:
    return [(1 - r) * r ** i for i in range(n)]


def fibres(qv, pv) -> list:
    """Blocks of equal ratio q_i/p_i (1-based), in order of first index."""
    blocks: dict = {}
    for i, (q, p) in enumerate(zip(qv, pv), start=1):
        blocks.setdefault(q / p, []).append(i)
    return list(blocks.values())


def pair_count(qv, pv) -> int:
    return sum(len(b) * (len(b) - 1) // 2 for b in fibres(qv, pv))


def distinct(qv, pv) -> bool:
    return pair_count(qv, pv) == 0


def same_ratio(qv, pv, i, j) -> bool:
    return qv[i - 1] * pv[j - 1] == qv[j - 1] * pv[i - 1]


def l1(u, v) -> F:
    return sum((abs(a - b) for a, b in zip(u, v)), F(0))


def values(d: dict) -> list:
    return [F(v) for v in d["probs" if d["kind"] == "finite" else "prefix"]]


def rand_dist(rng, n, hi) -> list:
    ints = [rng.randint(1, hi) for _ in range(n)]
    total = sum(ints)
    return [F(k, total) for k in ints]


def rand_blocks(rng, n, k) -> list:
    """A random partition of 1..n into at most k nonempty blocks."""
    labels: dict = {}
    for i in range(1, n + 1):
        labels.setdefault(rng.randrange(k), []).append(i)
    return sorted(labels.values())


def planted(rng, pv) -> list:
    """An accessible posterior: the prior rescaled block by block."""
    blocks = rand_blocks(rng, len(pv), max(2, len(pv) // 4))
    weights = rand_dist(rng, len(blocks), 1000)
    qv = [F(0)] * len(pv)
    for block, w in zip(blocks, weights):
        mass = sum(pv[i - 1] for i in block)
        for i in block:
            qv[i - 1] = w * pv[i - 1] / mass
    return qv


def blind(rng, pv) -> list:
    while True:
        qv = rand_dist(rng, len(pv), 10 ** 6)
        if distinct(qv, pv):
            return qv


def decreasing(rng, n) -> list:
    """m_1 = 1/2, m_i in [2^-(i+1), 2^-i), normalized: q_2 > 1/8, fast decay."""
    ms = [F(1, 2)] + [F(rng.randrange(1 << 15, 1 << 16), 1 << (i + 16)) for i in range(2, n + 1)]
    total = sum(ms)
    return [m / total for m in ms]


def finite_json(vals) -> str:
    return json.dumps({"kind": "finite", "probs": [fmt(v) for v in vals]})


def geo_json(r: F) -> str:
    return json.dumps({"kind": "geometric", "ratio": fmt(r)})


def other_ratio(rng) -> F:
    """A geometric ratio outside the prior family (no prior has 23 below)."""
    return F(rng.randint(1, 22), 23)


# ------------------------------------------------------------------ certify


class Certify:
    """The paper's construction loop against the first K of five priors."""

    name = "certify"
    in_process = True
    # (N, K) classes cost about 1 : 5 : 20.  With 9:10:3 ops per cycle the
    # median falls a fifth into (64,5) and p90 a quarter into (128,5): inside
    # a class, never on a boundary, and low in it, so a quantile does not
    # jump when part of a run meets a slower host
    classes = ("N64K1", "N64K5", "N128K5")
    cycle = interleave(classes, (9, 10, 3))
    cycles = 8
    shape = {"N64K1": (64, 1), "N64K5": (64, 5), "N128K5": (128, 5)}

    def maker(self, seed):
        rng = random.Random(f"certify:{seed}")
        priors = [geometric(r) for r in PRIOR_RATIOS]

        def make(cls, _):
            n, k = self.shape[cls]
            return Item(cls, {"n": n, "k": k, "priors": priors[:k],
                              "seed": rng.randrange(1 << 30)}, self,
                        {"blindspot.ratios_scanned": (2 * k + 3) * n,
                         "construct.coords_generated": 5 * n})

        return make

    def run(self, lib, item):
        n, priors, seed = item.data["n"], item.data["priors"], item.data["seed"]
        p1 = priors[0]
        q = lib.generate_blindspot_member(priors, n, seed)
        member = [lib.membership_prefix(p, q, n).distinct for p in priors]
        # eps derived from the member, so every documented precondition holds
        eps_x = min(F(1, 1000), q.value(2) / 2)
        ext = lib.exteriorize(p1, q, eps_x)
        ext_count = lib.collision_count(p1, ext.distribution, n)
        eps_m = min(F(1, 10 ** 4), q.value(2) / (2 * MULTI_PAIRS))
        multi = lib.multi_collision_near(p1, q, MULTI_PAIRS, eps_m)
        multi_count = lib.collision_count(p1, multi.distribution, n)
        dens = lib.densify(p1, ext.distribution, eps_x)
        dens_distinct = lib.membership_prefix(p1, dens.distribution, n).distinct
        dens_upper = lib.l1_upper_bound(dens.distribution, ext.distribution)
        eps_s = min(1 - q.value(1), q.value(2)) / 2
        delta = lib.pick_valid_delta(q, priors, eps_s, seed)
        shifted = lib.delta_family(q, delta)
        shifted_member = [lib.membership_prefix(p, shifted, n).distinct for p in priors]
        js = lib.dist_to_json
        return {
            "member": js(q), "member_distinct": member,
            "eps": [fmt(eps_x), fmt(eps_m), fmt(eps_s)],
            "exteriorized": js(ext.distribution), "ext_pairs": ext.pairs,
            "ext_l1": fmt(ext.l1_distance), "ext_collisions": ext_count,
            "multi": js(multi.distribution), "multi_pairs": multi.pairs,
            "multi_l1": fmt(multi.l1_distance), "multi_collisions": multi_count,
            "densified": js(dens.distribution), "dens_distinct": dens_distinct,
            "dens_upper": fmt(dens_upper),
            "delta": fmt(delta), "shifted": js(shifted), "shifted_distinct": shifted_member,
        }

    def check(self, item, out):
        n, k = item.data["n"], item.data["k"]
        pvs = [geo_prefix(r, n) for r in PRIOR_RATIOS[:k]]
        eps_x, eps_m, eps_s = (F(e) for e in out["eps"])
        q, ext, multi, dens, shifted = (
            values(out[key]) for key in ("member", "exteriorized", "multi", "densified", "shifted"))
        delta = F(out["delta"])
        ok = (
            len(q) == n and sum(q) == 1
            and all(distinct(q, pv) for pv in pvs) and all(out["member_distinct"])
            and l1(ext, q) == F(out["ext_l1"]) < 2 * eps_x
            and pair_count(ext, pvs[0]) == out["ext_collisions"] >= 1
            and l1(multi, q) == F(out["multi_l1"]) < 2 * MULTI_PAIRS * eps_m
            and pair_count(multi, pvs[0]) == out["multi_collisions"] >= MULTI_PAIRS
            and distinct(dens, pvs[0]) and out["dens_distinct"]
            and l1(dens, ext) <= F(out["dens_upper"]) < 4 * eps_x
            and 0 < delta < eps_s
            and shifted == [q[0] + delta, q[1] - delta] + q[2:]
            and all(distinct(shifted, pv) for pv in pvs) and all(out["shifted_distinct"])
        )
        return None if ok else "certificate claim not re-verified"


# -------------------------------------------------------------------- check


class Check:
    """Membership queries read from JSON text, planted accessible or blind."""

    name = "check"
    in_process = True
    # 8:10:3 ops of n = 16, 64, 256 per cycle (costs about 1 : 4 : 18), each
    # class alternating blind and accessible posteriors: the median falls
    # halfway into n = 64 and p90 a third into n = 256, away from the class
    # boundaries
    classes = ("n16", "n64", "n256")
    cycle = interleave(classes, (8, 10, 3))
    cycles = 32

    def maker(self, seed):
        rng = random.Random(f"check:{seed}")
        family = [geometric(r) for r in PRIOR_RATIOS]

        def make(cls, k):
            n = int(cls[1:])
            pv = rand_dist(rng, n, 1000)
            accessible = k % 2 == 1
            qv = planted(rng, pv) if accessible else blind(rng, pv)
            blocks = rand_blocks(rng, n, max(2, n // 8))
            weights = rand_dist(rng, len(blocks), 100)
            s = other_ratio(rng)
            return Item(cls, {
                "n": n, "prior": finite_json(pv), "posterior": finite_json(qv),
                "pv": pv, "qv": qv, "accessible": accessible,
                "partition": Partition.of(blocks), "blocks": blocks,
                "weights": BlockWeights(tuple(weights)), "wv": weights,
                "geo": geometric(s), "family": family,
            }, self, {"blindspot.ratios_scanned": 7 * n})

        return make

    def run(self, lib, item):
        d = item.data
        p = lib.dist_from_json(json.loads(d["prior"]))
        q = lib.dist_from_json(json.loads(d["posterior"]))
        verdict = lib.membership_finite(p, q)
        coarsest = lib.coarsest_partition(p, q)
        count = lib.collision_count(p, q)
        dist = lib.lp_distance(p, q, bayesblind.L1)
        moved = lib.jc_apply(p, d["partition"], d["weights"])
        rigid = lib.rigidity_holds(p, moved, d["partition"])
        geo = lib.truncate(d["geo"], d["n"])
        fam = lib.family_membership(d["family"], geo, d["n"])
        return {
            "status": verdict.status,
            "witness": list(verdict.witness) if verdict.witness else None,
            "verdict_coarsest": verdict.coarsest.to_json() if verdict.coarsest else None,
            "coarsest": coarsest.to_json(), "collisions": count, "l1": fmt(dist),
            "moved": lib.dist_to_json(moved), "rigid": rigid,
            "family_member": fam.member, "family_distinct": [v.distinct for v in fam.verdicts],
        }

    def check(self, item, out):
        d = item.data
        pv, qv = d["pv"], d["qv"]
        blocks = fibres(qv, pv)
        moved = values(out["moved"])
        ok = (
            out["coarsest"]["blocks"] == sorted(blocks)
            and out["collisions"] == pair_count(qv, pv)
            and F(out["l1"]) == l1(pv, qv)
            and out["rigid"] is True
            and all(sum(moved[i - 1] for i in b) == w for b, w in zip(d["blocks"], d["wv"]))
            and out["family_member"] is True and all(out["family_distinct"])
        )
        if d["accessible"]:
            ok = ok and out["status"] == "accessible" and out["witness"] is not None \
                and same_ratio(qv, pv, *out["witness"]) \
                and out["verdict_coarsest"] == out["coarsest"]
        else:
            ok = ok and out["status"] == "in_blind_spot" and out["witness"] is None
        return None if ok else "query outcome not re-verified"


# --------------------------------------------------------------- montecarlo


class MonteCarlo:
    """The README's Monte Carlo run: geometric(1/2), horizon 50, uniform base."""

    name = "montecarlo"
    in_process = True
    classes = ("t65536",)
    cycle = classes
    cycles = 256
    trials, horizon = 1 << 16, 50

    def maker(self, seed):
        rng = random.Random(f"montecarlo:{seed}")
        prior = geometric(F(1, 2))

        def make(cls, _):
            return Item(cls, {"prior": prior, "seed": rng.randrange(1 << 30)}, self,
                        {"sampler.coords_drawn": self.trials * self.horizon})

        return make

    def run(self, lib, item):
        report = lib.monte_carlo_blindspot_fraction(
            item.data["prior"], self.trials, self.horizon, seed=item.data["seed"], workers=1)
        return report.to_json()

    def probe(self, lib, tracer, item, cycle_start):
        """Draw plus cumprod alone, at the op's shape (traced runs only)."""
        lib.stick_breaking_matrix(item.data["seed"], self.trials, self.horizon)

    def check(self, item, out):
        ok = (out["trials"] == self.trials
              and out["in_blindspot"] + out["exact_float_collisions"] == self.trials
              and out["seed"] == item.data["seed"] and 0 < out["mean_residual_mass"] < 1)
        return None if ok else "monte carlo counts do not add up"


# ----------------------------------------------------------------- commands


def _claims_hold(payload) -> bool:
    return all(c["verified"] for c in payload["certificate"]["claims"])


def _check_command(name, d, code, text):
    """Exit code, payload and re-derived claims of one CLI run."""
    if code != d["exit"]:
        return False
    if name == "input_error":
        return text == ""
    if name == "mc_csv":
        rows = text.splitlines()
        return len(rows) == d["trials"] + 1 and rows[0].startswith("trial,")
    out = json.loads(text)
    if name == "jc_apply":
        post = values(out["posterior"])
        return all(sum(post[i - 1] for i in b) == w for b, w in zip(d["blocks"], d["wv"]))
    if name == "jc_coarsest":
        return out["coarsest"]["blocks"] == sorted(fibres(d["qv"], d["pv"]))
    if name == "jc_brute":
        return out == {"accessible": False}
    if name == "bs_test_finite":
        return out["status"] == "accessible" and same_ratio(d["qv"], d["pv"], *out["witness"])
    if name == "bs_test_horizon":
        return out["status"] == "prefix_distinct(64)"
    if name == "bs_construct":
        q = values(out["distribution"])
        return _claims_hold(out) and sum(q) == 1 and all(
            distinct(q, geo_prefix(r, len(q))) for r in d["ratios"])
    if name == "bs_densify":
        r = values(out["distribution"])
        return _claims_hold(out) and distinct(r, geo_prefix(F(1, 2), len(r))) \
            and l1(r, d["target"]) <= F(out["l1_upper"]) < 4 * d["eps"]
    if name in ("bs_exteriorize", "bs_multicollide"):
        r = values(out["distribution"])
        pairs = d.get("pairs", 1)
        return _claims_hold(out) and l1(r, d["q"]) == F(out["l1_distance"]) < 2 * pairs * d["eps"] \
            and pair_count(r, geo_prefix(F(1, 2), len(r))) >= pairs
    if name == "bs_sample":
        prefix = out["distribution"]["prefix"]
        return len(prefix) == 64 and abs(sum(prefix) + out["distribution"]["tail_mass"] - 1) < 1e-9
    if name in ("mc_w1", "mc_w2"):
        rep = out["report"]
        return rep["in_blindspot"] + rep["exact_float_collisions"] == rep["trials"] == d["trials"]
    if name == "dist_normalize":
        return values(out["distribution"]) == [F(v, sum(d["ints"])) for v in d["ints"]]
    if name == "dist_distance":
        t = l1(d["u"], d["v"])
        return F(out["value"]) == t / (1 + t)
    return False


class Commands:
    """README commands, each run as its own `python -m bayesblind.cli`."""

    name = "commands"
    in_process = False

    def __init__(self, src):
        self.env = {"PYTHONPATH": str(src)}
        self.overrides = {"main": self.main}

    def commands(self, seed):
        """(name, argv, expected exit, data for the check) of every command,
        in the order of ``classes``."""
        rng = random.Random(f"commands:{seed}")
        cmds = []

        def add(name, argv, code=0, **data):
            cmds.append((name, argv, dict(data, exit=code)))

        pv = rand_dist(rng, 6, 20)
        blocks = rand_blocks(rng, 6, 3)
        wv = rand_dist(rng, len(blocks), 10)
        add("jc_apply", ["jc", "apply", "--prior", finite_json(pv),
                         "--partition", json.dumps({"blocks": blocks}),
                         "--weights", json.dumps([fmt(w) for w in wv])], blocks=blocks, wv=wv)
        pv = rand_dist(rng, 8, 20)
        qv = planted(rng, pv)
        add("jc_coarsest", ["jc", "coarsest", "--prior", finite_json(pv),
                            "--posterior", finite_json(qv)], pv=pv, qv=qv)
        pv = rand_dist(rng, 8, 20)
        add("jc_brute", ["jc", "brute", "--prior", finite_json(pv),
                         "--posterior", finite_json(blind(rng, pv))])
        pv = rand_dist(rng, 16, 1000)
        qv = planted(rng, pv)
        add("bs_test_finite", ["bs", "test", "--prior", finite_json(pv),
                               "--posterior", finite_json(qv)], 10, pv=pv, qv=qv)
        add("bs_test_horizon", ["bs", "test", "--prior", geo_json(rng.choice(PRIOR_RATIOS)),
                                "--posterior", geo_json(other_ratio(rng)), "--horizon", "64"])
        ratios = PRIOR_RATIOS[:2]
        add("bs_construct", ["bs", "construct", "--priors",
                             "[" + ",".join(geo_json(r) for r in ratios) + "]",
                             "--horizon", "64", "--seed", str(rng.randrange(1 << 20))],
            ratios=ratios)
        target = rand_dist(rng, 24, 1000)
        add("bs_densify", ["bs", "densify", "--prior", geo_json(F(1, 2)),
                           "--target", finite_json(target), "--epsilon", "1/100",
                           "--seed", str(rng.randrange(1 << 20))], target=target, eps=F(1, 100))
        q = decreasing(rng, 64)
        add("bs_exteriorize", ["bs", "exteriorize", "--prior", geo_json(F(1, 2)),
                               "--posterior", finite_json(q), "--epsilon", "1/1000"],
            q=q, eps=F(1, 1000))
        add("bs_multicollide", ["bs", "multicollide", "--prior", geo_json(F(1, 2)),
                                "--posterior", finite_json(q), "--pairs", str(MULTI_PAIRS),
                                "--epsilon", "1/10000"], q=q, eps=F(1, 10000), pairs=MULTI_PAIRS)
        add("bs_sample", ["bs", "sample", "--seed", str(rng.randrange(1 << 20)),
                          "--horizon", "64", "--base", "uniform"])
        mc = ["bs", "montecarlo", "--prior", geo_json(F(1, 2)), "--trials", "9000",
              "--horizon", "16", "--seed", str(rng.randrange(1 << 20))]
        add("mc_w1", mc + ["--workers", "1"], trials=9000)
        add("mc_w2", mc + ["--workers", "2"], trials=9000)
        add("mc_csv", mc + ["--workers", "2", "--format", "csv"], trials=9000)
        ints = [rng.randint(1, 9) for _ in range(6)]
        add("dist_normalize", ["dist", "normalize", "--values", json.dumps([str(k) for k in ints])],
            ints=ints)
        u, v = rand_dist(rng, 8, 20), rand_dist(rng, 8, 20)
        add("dist_distance", ["dist", "distance", "--u", finite_json(u), "--v", finite_json(v),
                              "--norm", "l1", "--bounded"], u=u, v=v)
        add("input_error", ["bs", "test", "--prior", finite_json(pv)[:-2],
                            "--posterior", finite_json(pv)], 2)
        return cmds

    classes = (
        "jc_apply", "jc_coarsest", "jc_brute", "bs_test_finite", "bs_test_horizon",
        "bs_construct", "bs_densify", "bs_exteriorize", "bs_multicollide", "bs_sample",
        "mc_w1", "mc_w2", "mc_csv", "dist_normalize", "dist_distance", "input_error",
    )
    # one op per command per cycle, except jc_brute, the slowest, at four: it
    # then holds a fifth of the ops, so p90 falls halfway into it and the
    # median inside the bulk that costs interpreter start plus import
    cycle = interleave(classes, [4 if name == "jc_brute" else 1 for name in classes])
    cycles = 1
    #: worker count must not change a seeded run's bytes
    same_output = (("mc_w1", "mc_w2"),)

    def maker(self, seed):
        items = {name: Item(name, dict(data, argv=argv), self)
                 for name, argv, data in self.commands(seed)}
        if tuple(items) != self.classes:
            raise RuntimeError("Commands.classes is out of step with commands()")
        return lambda cls, _: items[cls]

    def main(self, argv):
        proc = subprocess.run([sys.executable, "-m", "bayesblind.cli", *argv],
                              env=self.env, capture_output=True, timeout=60)
        return {"exit": proc.returncode, "stdout": proc.stdout}

    def run(self, lib, item):
        return lib.main(item.data["argv"])

    def probe(self, lib, tracer, item, cycle_start):
        """The same argv through in-process dispatch; once a cycle, a bare
        interpreter start and the package import in a fresh interpreter."""
        if cycle_start:
            for name, stmt in (("cli.interpreter", "pass"), ("cli.import", "import bayesblind.cli")):
                tracer.wrap(name, subprocess.run)([sys.executable, "-c", stmt], env=self.env,
                                                  capture_output=True, check=True, timeout=60)
        buf = io.StringIO()
        with redirect_stdout(buf), redirect_stderr(io.StringIO()):
            code = lib.dispatch(list(item.data["argv"]))
        return {"exit": code, "stdout": buf.getvalue().encode()}

    def check(self, item, out):
        ok = _check_command(item.cls, item.data, out["exit"], out["stdout"].decode())
        return None if ok else f"{item.cls}: exit {out['exit']} or payload not re-verified"


# ------------------------------------------------------------------ library


class Library:
    """certify, check and montecarlo ops in one closed loop.

    One workload for every in-process layer, so that a run can be long enough
    to average out a host whose speed drifts over tens of seconds.  A cycle
    of about 1.5 s runs 8:10:3 check queries, then three Monte Carlo runs,
    then one op of each (N, K) class.  The heavy ops are kept together so
    that most queries run after other queries, not in caches a Monte Carlo
    run has just swept.  Costs sort as n16 < n64 < (64,1) < n256 < Monte
    Carlo ~ (64,5) < (128,5): the median falls halfway into the n = 64
    queries and p90 into the ~150 ms group, so p50 follows the exact scans,
    p90 the sampler and generator, and ops_per_s, which is time-weighted,
    mostly the construction loop.
    """

    name = "library"
    in_process = True
    classes = Check.classes + MonteCarlo.classes + Certify.classes
    cycle = Check.cycle + MonteCarlo.cycle * 3 + Certify.classes
    cycles = 16

    def maker(self, seed):
        makers = {}
        for part in (Certify(), Check(), MonteCarlo()):
            make = part.maker(seed)
            makers.update(dict.fromkeys(part.classes, make))
        return lambda cls, k: makers[cls](cls, k)

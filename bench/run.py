"""Benchmark runner for bayesblind: end-to-end and per-layer views.

    python3 bench/run.py                                # every workload
    python3 bench/run.py --workload library --seed 3 --seconds 45 --trace 0
    python3 bench/run.py --workload commands --trace 1  # per-layer view
    python3 bench/run.py --record                       # rewrite expected.json

Workloads: certify, check and montecarlo (one in-process path each),
library (those three interleaved in one loop) and commands (README commands
as subprocesses).  BENCHMARK.json gates library and commands.

One closed-loop client in this process: the next op starts when the previous
one ends.  Only the `--workers 2` commands use a second process.  A run sets
up (import, input generation, one warm-up op per size class) three times and
reports the median, then measures for --seconds and at least --min-ops ops,
ending on a whole op-mix cycle.  Each outcome is checked as its op returns,
outside the op's time: against the digest in expected.json when --seed is the
recorded seed, and on every seed against invariants that need no stored data.

With --trace 1 the run measures half its time untraced and half with a span
around every library call (name, start, end, parent, op id), and reports the
per-layer metrics plus the tracing overhead.  Spans and a run record go to
.bench_out/.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").is_file() else None
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 1
SETUP_REPS = 3
#: a loop stops at the next cycle end after this long, even short of --min-ops,
#: so that a traced run on a slow host still ends within 180 s
HARD_LIMIT_S = 50.0
WORKLOADS = ("certify", "check", "montecarlo", "library", "commands")


def import_library():
    """Import bayesblind from this checkout's src/, never from elsewhere."""
    if not (SRC / "bayesblind" / "__init__.py").is_file():
        sys.exit(f"error: no bayesblind package under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import bayesblind

    if Path(bayesblind.__file__).resolve().parent != (SRC / "bayesblind").resolve():
        sys.exit(f"error: imported bayesblind from {bayesblind.__file__}, not {SRC}")
    return bayesblind


class Tracer:
    """Spans held in memory: (name, start_ns, end_ns, parent, op id)."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.parent = None

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spans.append((name, start, time.perf_counter_ns(), self.parent, self.op))
        return traced

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end,
                                     "parent": parent, "op": op}) + "\n")


class Layers:
    """The library's public functions by name, each wrapped in a span when traced."""

    def __init__(self, layers, tracer=None, overrides=None):
        overrides = overrides or {}
        for module, names in layers.items():
            mod = importlib.import_module(f"bayesblind.{module}")
            for name in names:
                fn = overrides.get(name) or getattr(mod, name)
                setattr(self, name, tracer.wrap(f"{module}.{name}", fn) if tracer else fn)


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# ---------------------------------------------------------------- one run


class Run:
    def __init__(self, wl_mod, name, seed, seconds=0, min_ops=0, expected=None):
        self.w = wl_mod
        self.workload = {
            "certify": wl_mod.Certify, "check": wl_mod.Check,
            "montecarlo": wl_mod.MonteCarlo, "library": wl_mod.Library,
            "commands": lambda: wl_mod.Commands(SRC),
        }[name]()
        self.seed, self.seconds, self.min_ops = seed, seconds, min_ops
        self.env = {"PYTHONPATH": str(SRC)}
        self.expected = expected  # digest per pool index, or None
        self.digests, self.by_class = {}, {}

    def setup(self, lib):
        """Import in a fresh interpreter, build the inputs, warm up each class."""
        stmt = "import bayesblind" + (".cli" if not self.workload.in_process else "")
        times = []
        for _ in range(SETUP_REPS):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", stmt], env=self.env, capture_output=True,
                           check=True, timeout=60)
            pool, cycle = self.w.build_pool(self.workload, self.seed)
            first = {}
            for item in pool:
                first.setdefault(item.cls, item)
            for item in first.values():
                item.kind.run(lib, item)
            times.append(time.perf_counter() - start)
        self.pool, self.cycle = pool, cycle
        return statistics.median(times)

    def loop(self, lib, tracer=None):
        """Closed loop over the pool, each outcome checked as soon as its op
        returns.  Returns [pool index, latency s, failure or None] per op and
        the loop's wall time less the checking, which is the benchmark's own
        work.  Outcomes are not kept, so memory does not grow with the run."""
        records, check_s = [], 0.0
        start = time.perf_counter()
        i = 0
        while True:
            elapsed = time.perf_counter() - start
            if i and i % self.cycle == 0 and (
                    (i >= self.min_ops and elapsed >= self.seconds) or elapsed >= HARD_LIMIT_S):
                break
            idx = i % len(self.pool)
            if tracer:
                tracer.op, tracer.parent = i, "op"
            t0 = time.perf_counter_ns()
            try:
                item = self.pool[idx]
                out, err = item.kind.run(lib, item), None
            except Exception as exc:  # a raising op is a failed op, not a crash
                out, err = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter_ns()
            if tracer:
                tracer.parent = None
                tracer.spans.append(("op", t0, t1, None, i))
            records.append([idx, (t1 - t0) / 1e9, err or self.verify(idx, out)])
            check_s += time.perf_counter() - t1 / 1e9
            i += 1
        self.cross_check(records)
        return records, time.perf_counter() - start - check_s

    def verify(self, idx, out):
        """Why an op's outcome is wrong, or None."""
        item = self.pool[idx]
        d = self.w.digest(out)
        self.by_class.setdefault(item.cls, set()).add(d)
        if self.expected is not None and d != self.expected[idx]:
            return "digest differs from the recorded one"
        if self.digests.setdefault(idx, d) != d:
            return "same input gave different output"
        try:
            return item.kind.check(item, out)
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            return f"{item.cls}: unreadable outcome ({type(exc).__name__}: {exc})"

    def cross_check(self, records):
        """Ops whose output must equal another class's fail when it does not."""
        for a, b in getattr(self.workload, "same_output", ()):
            if self.by_class.get(a) != self.by_class.get(b):
                for rec in records:
                    if self.pool[rec[0]].cls == b:
                        rec[2] = rec[2] or f"{b} output differs from {a}"

    def probe(self, lib, tracer, records):
        """Extra traced calls for the ops just measured, run after the loop so
        that they change neither its timing nor the allocator state it sees.
        A probe that returns an outcome must match its op's."""
        for i, rec in enumerate(records):
            item = self.pool[rec[0]]
            if hasattr(item.kind, "probe"):
                tracer.op = i
                out = item.kind.probe(lib, tracer, item, i % self.cycle == 0)
                if out is not None and self.w.digest(out) != self.digests.get(rec[0]):
                    rec[2] = rec[2] or "in-process dispatch differs from the CLI run"

    def end_to_end(self, records, wall, setup_s):
        lat = [r[1] for r in records]
        p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
        failed = sum(1 for r in records if r[2])
        who = resource.RUSAGE_SELF if self.workload.in_process else resource.RUSAGE_CHILDREN
        return {
            "ops_per_s": (len(records) - failed) / wall,
            "op_p50_ms": statistics.median(lat) * 1e3,
            "op_p90_ms": p90 * 1e3,
            "fail_ratio": failed / len(records),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        }

    def per_layer(self, tracer, records, overhead_pct):
        """Per public function: calls, busy (summed self time) and median span;
        per module: its share of op time; per size class: median spans.

        The benchmark wraps only the calls it makes, so library spans have no
        children and their self time is their whole duration.  An op span's
        self time is the harness time between its library calls.
        """
        cls_of = [self.pool[idx].cls for idx, *_rest in records]
        durs, by_class = {}, {}
        module_ns = dict.fromkeys(self.w.LAYERS, 0)
        for name, start, end, parent, op in tracer.spans:
            durs.setdefault(name, []).append(end - start)
            by_class.setdefault(cls_of[op], {}).setdefault(name, []).append(end - start)
            if parent == "op":
                module_ns[name.split(".")[0]] += end - start
        op_ns = sum(durs.get("op", []))
        out = {"trace.overhead_pct": overhead_pct}
        for module, names in self.w.LAYERS.items():
            out[f"{module}.share"] = module_ns[module] / op_ns if op_ns else 0.0
            for fn in names:
                ds = durs.get(f"{module}.{fn}", [])
                out[f"{module}.{fn}.calls"] = len(ds)
                out[f"{module}.{fn}.busy_ms"] = sum(ds) / 1e6
                out[f"{module}.{fn}.p50_ms"] = statistics.median(ds) / 1e6 if ds else 0.0
        for key in ("blindspot.ratios_scanned", "construct.coords_generated",
                    "sampler.coords_drawn"):
            out[key] = sum(self.pool[idx].work.get(key, 0) for idx, *_rest in records)
        table = {cls: {name: (len(ds), statistics.median(ds) / 1e6) for name, ds in row.items()}
                 for cls, row in by_class.items()}
        for cls, row in table.items():
            for name, metric in (("op", "op.p50_ms"),
                                 ("construct.generate_blindspot_member",
                                  "construct.generate_blindspot_member.p50_ms"),
                                 ("blindspot.membership_finite",
                                  "blindspot.membership_finite.p50_ms"),
                                 ("cli.dispatch", "cli.dispatch_ms")):
                if name in row:
                    out[f"{metric}.{cls}"] = row[name][1]
        interp, imp = durs.get("cli.interpreter"), durs.get("cli.import")
        out["cli.interpreter_ms"] = statistics.median(interp) / 1e6 if interp else 0.0
        out["cli.import_ms"] = (statistics.median(imp) / 1e6 - out["cli.interpreter_ms"]) \
            if imp else 0.0
        return out, table


def unit_of(name) -> str:
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        if metric["name"] == name:
            return metric["unit"]
    return "ratio"  # fail_ratio: printed, not in BENCHMARK.json, as it is 0 when correct


#: the ad hoc baselines in ROADMAP.md, as the per-layer metrics that measure them
BASELINES = {
    "generator at N=64, K=5": "construct.generate_blindspot_member.p50_ms.N64K5",
    "jc brute at n=8 (in-process dispatch)": "cli.dispatch_ms.jc_brute",
    "Monte Carlo, 2^16 trials x 50": "sampler.monte_carlo_blindspot_fraction.p50_ms",
    "cold start: interpreter": "cli.interpreter_ms",
    "cold start: import bayesblind.cli": "cli.import_ms",
    "cold start: dispatch, median command": "cli.dispatch.p50_ms",
}


def print_table(workload, table, metrics):
    """Per size class: calls and median span time of every span name."""
    for cls in sorted(table):
        for name, (calls, p50) in sorted(table[cls].items()):
            print(f"# {workload:<10} {cls:<16} {name:<42} calls {calls:<6} p50 {p50:.4f} ms")
    for label, name in BASELINES.items():
        if metrics.get(name):
            print(f"# baseline {label}: {metrics[name]:.2f} ms ({name})")


def run_one(args, wl_mod) -> int:
    recorded = json.loads(args.expected.read_text())
    expected = recorded["digests"][args.workload] if recorded["seed"] == args.seed else None
    run = Run(wl_mod, args.workload, args.seed, args.seconds, args.min_ops, expected)
    overrides = getattr(run.workload, "overrides", None)
    lib = Layers(wl_mod.LAYERS, overrides=overrides)
    setup_s = run.setup(lib)
    if args.trace:  # untraced and traced halves, so a traced run takes no longer
        run.seconds /= 2
    records, wall = run.loop(lib)
    e2e = run.end_to_end(records, wall, setup_s)
    reasons = [r[2] for r in records if r[2]]
    failed = len(reasons)
    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": importlib.import_module("numpy").__version__, "git_sha": git_sha(),
        "attempted": len(records), "completed": len(records) - failed,
        "digests_checked": run.expected is not None,
    }
    for name, value in e2e.items():
        print(f"{args.workload:<10} {name:<12} {value:.6g} {unit_of(name)}")
    metrics, table = e2e, None
    OUT.mkdir(exist_ok=True)
    if args.trace:
        tracer = Tracer()
        traced_lib = Layers(wl_mod.LAYERS, tracer, overrides)
        t_records, t_wall = run.loop(traced_lib, tracer)
        run.probe(traced_lib, tracer, t_records)
        t_reasons = [r[2] for r in t_records if r[2]]
        t_failed = len(t_reasons)
        traced_rate = (len(t_records) - t_failed) / t_wall
        overhead = (e2e["ops_per_s"] / traced_rate - 1) * 100
        metrics, table = run.per_layer(tracer, t_records, overhead)
        print_table(args.workload, table, metrics)
        failed += t_failed
        reasons += t_reasons
        env.update(traced_attempted=len(t_records), traced_completed=len(t_records) - t_failed,
                   traced_ops_per_s=traced_rate, trace_overhead_pct=overhead)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    reasons = reasons[:5]
    for reason in reasons:
        print(f"failed op: {reason}", file=sys.stderr)
    print("# env " + json.dumps(env, sort_keys=True))
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(
        {"env": env, "end_to_end": e2e, "per_layer": metrics if args.trace else None,
         "classes": table, "failed_reasons": reasons}, indent=1, sort_keys=True))
    wanted = SPEC["per_layer" if args.trace else "end_to_end"]
    attempted = env["attempted"] + env.get("traced_attempted", 0)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in wanted}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so imports and peak RSS stay apart."""
    results, status = {}, 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--min-ops", str(args.min_ops),
                "--expected", str(args.expected)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    OUT.mkdir(exist_ok=True)
    (OUT / f"bench-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(results, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": status == 0 and all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return status


def record(wl_mod) -> int:
    """Run every pool item once at the default seed and store its digest."""
    digests = {}
    for name in WORKLOADS:
        run = Run(wl_mod, name, DEFAULT_SEED)
        lib = Layers(wl_mod.LAYERS, overrides=getattr(run.workload, "overrides", None))
        run.pool, run.cycle = wl_mod.build_pool(run.workload, DEFAULT_SEED)
        reasons = [run.verify(idx, item.kind.run(lib, item))
                   for idx, item in enumerate(run.pool)]
        if any(reasons):
            sys.exit(f"error: {name}: outcomes fail their checks: {set(reasons)}")
        digests[name] = [run.digests[idx] for idx in range(len(run.pool))]
        print(f"{name}: {len(run.pool)} digests", file=sys.stderr)
    EXPECTED.write_text(json.dumps({"seed": DEFAULT_SEED, "digests": digests}, indent=0) + "\n")
    return 0



def main() -> int:
    if SPEC is None:
        sys.exit(f"error: no BENCHMARK.json in {ROOT}")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-ops", type=int, default=100,
                        help="measure at least this many ops (default 100: ten beyond p90)")
    parser.add_argument("--expected", type=Path, default=EXPECTED,
                        help="recorded digests to compare against at their seed")
    parser.add_argument("--record", action="store_true",
                        help="rewrite the expected digests at the default seed")
    args = parser.parse_args()
    import_library()  # exits, printing no result, when the checkout has no library
    if args.workload == "all" and not args.record:
        return run_all(args)
    sys.path.insert(0, str(HERE))
    wl_mod = importlib.import_module("workloads")
    return record(wl_mod) if args.record else run_one(args, wl_mod)


if __name__ == "__main__":
    sys.exit(main())

"""Smoke check of the benchmark itself: python3 bench/smoke.py

Runs every workload for one op-mix cycle, untraced and traced, and fails
unless every metric is printed with its unit and no op fails at the default
seed.  It also feeds one workload a deliberately wrong expected digest and
requires that op to count as failed, so the outcome gate is not vacuous, and
requires the runner to refuse, without a result, a copy of the benchmark
that has no library next to it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in SPEC["end_to_end"]] + ["fail_ratio"]
FEW = ["--seconds", "0", "--min-ops", "1"]
WORKLOADS = ("certify", "check", "montecarlo", "library", "commands")


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc, lines, result


def main() -> int:
    problems = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    proc, lines, result = bench("--workload", "all", *FEW)
    expect(proc.returncode == 0 and result is not None, "all workloads run")
    for name in WORKLOADS:
        for metric in E2E:
            row = [ln.split() for ln in lines if ln.split()[:2] == [name, metric]]
            expect(len(row) == 1 and len(row[0]) == 4, f"{name} prints {metric} with a unit")
            if metric == "fail_ratio" and row:
                expect(float(row[0][2]) == 0, f"{name} fail_ratio is 0 at the default seed")
    expect(bool(result) and result["correct"] and result["failed"] == 0,
           "no failed op at the default seed")

    for name in WORKLOADS:
        proc, _, result = bench("--workload", name, "--trace", "1", *FEW)
        names = set(result["metrics"]) if result else set()
        expect(proc.returncode == 0 and names == {m["name"] for m in SPEC["per_layer"]},
               f"{name} traced run reports every per-layer metric")
        expect(bool(result) and result["correct"], f"{name} traced run has no failed op")

    OUT.mkdir(exist_ok=True)
    wrong = json.loads((HERE / "expected.json").read_text())
    wrong["digests"]["check"][0] = "0" * len(wrong["digests"]["check"][0])
    wrong_path = OUT / "expected-wrong.json"
    wrong_path.write_text(json.dumps(wrong))
    proc, _, result = bench("--workload", "check", "--seed", str(wrong["seed"]),
                            "--expected", str(wrong_path), *FEW)
    expect(bool(result) and not result["correct"] and result["failed"] >= 1,
           "a wrong expected digest is reported as a failed op")

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc, _, result = bench("--workload", "check", *FEW, cwd=bare,
                            script=bare / HERE.name / "run.py")
    expect(proc.returncode != 0 and result is None, "without the library the runner refuses")
    shutil.rmtree(bare)

    print("smoke: " + ("all checks passed" if not problems else f"{len(problems)} failed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

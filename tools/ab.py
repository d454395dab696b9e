"""Per-layer A/B of two revisions in one interpreter.

    python3 tools/ab.py PARENT [CHANGE] [--rounds 20] [--seed 1] [--classes n64,N64K5]

PARENT and CHANGE are git revisions or checkout directories; CHANGE defaults to
the working tree this script sits in.  Each side's ``src/bayesblind`` and
``bench/workloads.py`` are copied out, and a second copy of CHANGE serves as a
null side: the spread of null/change is what the host alone moves.

Each side is imported as ``bayesblind`` in turn, and its inputs are built from
its own classes by ``workloads.Library``'s maker, two items per op class (a
blind and an accessible query for the check classes).  Then every round runs
each class's items once per side, the sides in a fresh random order per class,
and times the whole op and each ``LAYERS`` function it calls.  The report gives,
per class and function, the median and interquartile range of the per-round
ratios change/parent and null/change, with nproc, the Python and numpy versions
and the revisions.  A layer function that a side lacks is reported by name, and
a class whose op fails on a side gets no ratio.  Outcomes are compared across
sides by their digests.

It sees neither interpreter start nor imports; ``bench/run.py`` measures those.
"""

from __future__ import annotations

import argparse
import importlib
import io
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
#: what each side copies out of its revision
PARTS = ("src/bayesblind", "bench/workloads.py")
ITEMS_PER_CLASS = 2


class Missing(Exception):
    """A layer function the side does not define."""


def revision(spec: str) -> str:
    """The commit a git revision names, or what a checkout directory is at."""
    cwd = spec if os.path.isdir(spec) else ROOT
    rev = "HEAD" if os.path.isdir(spec) else spec
    try:
        proc = subprocess.run(["git", "rev-parse", "--short=12", rev], cwd=cwd,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return "unknown"
    sha = proc.stdout.strip() if proc.returncode == 0 else "unknown"
    return f"{sha} (directory {spec})" if os.path.isdir(spec) else sha


def copy_out(spec: str, dest: Path) -> Path:
    """``PARTS`` of a checkout directory, or of a git revision via ``git archive``,
    copied under ``dest``, which is returned."""
    if os.path.isdir(spec):
        for part in PARTS:
            src, dst = Path(spec) / part, dest / part
            if src.is_dir():
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                dst.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(src, dst)
        return dest
    proc = subprocess.run(["git", "archive", "--format=tar", spec, *PARTS], cwd=ROOT,
                          capture_output=True, timeout=60)
    if proc.returncode != 0:
        sys.exit(f"error: git archive {spec}: {proc.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return dest


class Side:
    """One revision imported as ``bayesblind``: its layer functions, each timed
    into ``spent``, and its items by class: the ``classes`` its Library has, or
    all of them."""

    def __init__(self, name: str, tree: Path, seed: int, classes=None):
        self.name, self.spent, self.missing = name, {}, []
        paths = [str(tree / "src"), str(tree / "bench")]
        sys.path[:0] = paths
        try:
            import workloads

            self.workloads = workloads
            for module, names in workloads.LAYERS.items():
                if module == "cli":  # whole CLI runs: bench/run.py's commands workload
                    continue
                mod = importlib.import_module(f"bayesblind.{module}")
                for fn in names:
                    setattr(self, fn, self.timed(f"{module}.{fn}", getattr(mod, fn, None)))
            library = workloads.Library()
            make = library.maker(seed)
            self.items = {cls: [make(cls, k) for k in range(ITEMS_PER_CLASS)]
                          for cls in library.classes if classes is None or cls in classes}
        finally:
            del sys.path[:len(paths)]
            for mod in [m for m in sys.modules if m.split(".")[0] in ("bayesblind", "workloads")]:
                del sys.modules[mod]

    def timed(self, name: str, fn):
        if fn is None:
            self.missing.append(name)

            def absent(*args, **kwargs):
                raise Missing(f"{self.name} has no {name}")
            return absent

        def traced(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self.spent[name] = self.spent.get(name, 0) + time.perf_counter_ns() - start
        return traced

    def run(self, cls: str) -> tuple:
        """(op ns, ns by layer function, outcome digests) of the class's items."""
        self.spent = {}
        digests = []
        start = time.perf_counter_ns()
        for item in self.items[cls]:
            digests.append(self.workloads.digest(item.kind.run(self, item)))
        return time.perf_counter_ns() - start, self.spent, digests


def spread(ratios: list) -> str:
    """Median [first quartile, third quartile] of per-round ratios."""
    q1, med, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    return f"{med:.3f} [{q1:.3f}, {q3:.3f}]"


def measure(sides: dict, classes: list, rounds: int, rng: random.Random) -> tuple:
    """(kept (op ns, layer ns) per side and class, failure per (side, class),
    last outcome digests per side and class).  Round 0 warms up and is dropped."""
    times = {name: {cls: [] for cls in classes} for name in sides}
    failed, digests = {}, {name: {} for name in sides}
    for _ in range(rounds + 1):
        for cls in classes:
            order = list(sides)
            rng.shuffle(order)
            for name in order:
                if (name, cls) in failed:
                    continue
                try:
                    op, layers, outs = sides[name].run(cls)
                except Exception as exc:  # reported per class, never raised
                    failed[name, cls] = f"{type(exc).__name__}: {exc}"
                    continue
                times[name][cls].append((op, layers))
                digests[name][cls] = outs
    kept = {name: {cls: rows[1:] for cls, rows in by_cls.items()} for name, by_cls in times.items()}
    return kept, failed, digests


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", help="git revision or checkout directory")
    ap.add_argument("change", nargs="?", default=str(ROOT),
                    help="git revision or checkout directory (default: this working tree)")
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--seed", type=int, default=1, help="workload seed of the inputs")
    ap.add_argument("--classes", default=None,
                    help="comma-separated Library op classes (default: all)")
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2, to give a spread")

    wanted = args.classes.split(",") if args.classes else None
    specs = {"parent": args.parent, "change": args.change, "null": args.change}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        sides = {name: Side(name, copy_out(spec, Path(tmp) / name), args.seed, wanted)
                 for name, spec in specs.items()}

    import numpy

    print(f"# ab: parent {revision(args.parent)}, change {revision(args.change)}")
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"# nproc {nproc}, python {platform.python_version()}, "
          f"numpy {numpy.__version__}, rounds {args.rounds}, seed {args.seed}")
    for side in sides.values():
        for name in side.missing:
            print(f"# missing in {side.name}: {name}")

    classes = [cls for cls in sides["parent"].items if cls in sides["change"].items]
    for name in ("parent", "change"):
        for cls in sides[name].items.keys() - classes:
            print(f"# class only in {name}: {cls}")
    times, failed, digests = measure(sides, classes, args.rounds, random.Random(args.seed))
    print(f"{'class':<8} {'kernel':<44} {'change/parent':<26} {'null/change':<26}")
    for cls in classes:
        broken = [f"{name} failed ({failed[name, cls]})" for name in sides if (name, cls) in failed]
        if broken:
            print(f"{cls:<8} {'op':<44} no ratio: {'; '.join(broken)}")
            continue
        if not digests["parent"][cls] == digests["change"][cls] == digests["null"][cls]:
            print(f"{cls:<8} outcomes differ between sides")
        rows = {name: times[name][cls] for name in sides}
        kernels = ["op"] + sorted({fn for _, layers in rows["change"] for fn in layers}
                                  | {fn for _, layers in rows["parent"] for fn in layers})
        for kernel in kernels:
            parent, change, null = ([op if kernel == "op" else layers.get(kernel, 0)
                                     for op, layers in rows[name]] for name in sides)
            if not all(parent) or not all(change) or not all(null):
                print(f"{cls:<8} {kernel:<44} not called on every side")
                continue
            print(f"{cls:<8} {kernel:<44} "
                  f"{spread([c / p for c, p in zip(change, parent)]):<26} "
                  f"{spread([n / c for n, c in zip(null, change)]):<26}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

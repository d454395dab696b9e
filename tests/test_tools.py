"""``tools/ab.py``, the per-layer A/B, run for two rounds: this tree against
itself, and against a copy that lacks a layer function."""

import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RATIO = r"\d+\.\d{3} \[\d+\.\d{3}, \d+\.\d{3}\]"


def library_classes() -> list:
    path = ROOT / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclasses
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return list(module.Library.classes)


def ab(*args) -> list:
    """The lines ab.py prints, after checking that it exits 0."""
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "ab.py"), *args, "--rounds", "2"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def op_rows(lines) -> dict:
    return {line.split()[0]: line for line in lines if re.match(r"\S+ +op ", line)}


def test_tree_against_itself_gives_every_class_a_ratio():
    lines = ab(str(ROOT), str(ROOT))
    assert re.match(r"# nproc \d+, python \S+, numpy \S+, rounds 2, seed 1$", lines[1])
    rows = op_rows(lines)
    assert list(rows) == library_classes()
    for line in rows.values():
        assert re.fullmatch(rf"\S+ +op +{RATIO} +{RATIO} *", line), line
    assert not [line for line in lines if "differ" in line or "missing" in line]


def test_a_missing_kernel_is_reported_by_name(tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src" / "bayesblind", tree / "src" / "bayesblind",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "bench", tree / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    metrics = tree / "src" / "bayesblind" / "metrics.py"
    metrics.write_text(metrics.read_text().replace("def l1_upper_bound(", "def l1_bound_renamed("))
    lines = ab(str(tree), str(ROOT), "--classes", "n16,N64K1")
    assert "# missing in parent: metrics.l1_upper_bound" in lines
    rows = op_rows(lines)
    assert re.fullmatch(rf"n16 +op +{RATIO} +{RATIO} *", rows["n16"])
    assert re.fullmatch(r"N64K1 +op +no ratio: parent failed \(Missing: parent has no "
                        r"metrics\.l1_upper_bound\)", rows["N64K1"])

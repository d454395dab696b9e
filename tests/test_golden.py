"""Golden CLI corpus: fixed invocations replayed through in-process dispatch.

``golden/cases.json`` lists each invocation's argv and exit code;
``golden/<name>.out`` holds its exact stdout.  Any change to a payload byte
or an exit code fails here.  After a deliberate output change, re-record the
affected cases with ``PYTHONPATH=src python tests/test_golden.py --record
NAME [NAME ...]`` (every case when no name is given) and review the diff.  To
add an invocation, append its name and argv to ``cases.json`` and record that
one name.  Help text is wrapped to the terminal width, so replay and record
run at a fixed 80 columns.
"""

import json
import os
import shutil
import sys
from pathlib import Path

import pytest

from bayesblind.cli import COMMANDS, dispatch

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_replay(case, capsysbinary, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code = dispatch(case["argv"])
    out = capsysbinary.readouterr().out
    assert code == case["exit"]
    assert out == (GOLDEN / f"{case['name']}.out").read_bytes()


def test_corpus_covers_command_table():
    """Every command in the CLI table is under the byte-identity gate."""
    assert set(COMMANDS) <= {tuple(case["argv"][:2]) for case in CASES}


def test_record_rewrites_only_the_named_cases(tmp_path):
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN, golden)
    (golden / "jc_apply.out").write_bytes(b"stale\n")
    before = {f.name: f.read_bytes() for f in golden.iterdir()}
    _record(["jc_apply"], golden)
    after = {f.name: f.read_bytes() for f in golden.iterdir()}
    assert after.pop("jc_apply.out") == (GOLDEN / "jc_apply.out").read_bytes()
    del before["jc_apply.out"]
    assert after == before
    with pytest.raises(SystemExit, match="unknown golden case: nosuch"):
        _record(["jc_apply", "nosuch"], golden)
    assert (golden / "jc_apply.out").read_bytes() == (GOLDEN / "jc_apply.out").read_bytes()


def _record(names, golden: Path = GOLDEN) -> None:
    """Re-run the named cases (every case when ``names`` is empty) and write
    their stdout and exit codes; unknown names exit before anything is written."""
    import contextlib
    import io

    cases = json.loads((golden / "cases.json").read_text())
    unknown = set(names) - {case["name"] for case in cases}
    if unknown:
        sys.exit("unknown golden case: " + ", ".join(sorted(unknown)))
    for case in cases:
        if names and case["name"] not in names:
            continue
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            case["exit"] = dispatch(case["argv"])
        (golden / f"{case['name']}.out").write_bytes(buf.getvalue().encode())
    (golden / "cases.json").write_text(json.dumps(cases, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record [NAME ...]")
    os.environ["COLUMNS"] = "80"
    _record(sys.argv[2:])

"""Golden CLI corpus: fixed invocations replayed through in-process dispatch.

``golden/cases.json`` lists each invocation's argv and exit code;
``golden/<name>.out`` holds its exact stdout.  Any change to a payload byte
or an exit code fails here.  After a deliberate output change, re-record with
``PYTHONPATH=src python tests/test_golden.py --record`` and review the diff.
"""

import json
import sys
from pathlib import Path

import pytest

from bayesblind.cli import COMMANDS, dispatch

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_replay(case, capsysbinary):
    code = dispatch(case["argv"])
    out = capsysbinary.readouterr().out
    assert code == case["exit"]
    assert out == (GOLDEN / f"{case['name']}.out").read_bytes()


def test_corpus_covers_command_table():
    """Every command in the CLI table is under the byte-identity gate."""
    assert set(COMMANDS) <= {tuple(case["argv"][:2]) for case in CASES}


def _record() -> None:
    import contextlib
    import io

    for case in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            case["exit"] = dispatch(case["argv"])
        (GOLDEN / f"{case['name']}.out").write_bytes(buf.getvalue().encode())
    (GOLDEN / "cases.json").write_text(json.dumps(CASES, indent=1) + "\n")


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    _record()

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bayesblind
from bayesblind import blindspot, metrics, sampler
from bayesblind.blindspot import Verdict
from bayesblind.cli import dispatch
from bayesblind.distributions import dist_from_json

PRIOR = '{"kind":"finite","probs":["1/2","1/4","1/4"]}'
UNIFORM = '{"kind":"finite","probs":["1/3","1/3","1/3"]}'
DISTINCT = '{"kind":"finite","probs":["1/2","3/10","1/5"]}'
GEO_HALF = '{"kind":"geometric","ratio":"1/2"}'
TRUNC = '{"kind":"truncated","prefix":["1/2","1/4","1/8"],"tail_mass":"1/8"}'
PARTITION = '{"blocks":[[1],[2,3]]}'
BOOL_PARTITION = '{"blocks":[[true],[2,3]]}'
BAD_JSON_FILE = "<file holding invalid JSON>"  # replaced by a real path in the test


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestJcCommands:
    def test_apply_paper_example(self, capsys):
        code, out = run(
            capsys, "jc", "apply", "--prior", PRIOR,
            "--partition", '{"blocks":[[1],[2,3]]}', "--weights", '["1/3","2/3"]',
        )
        assert code == 0
        assert json.loads(out)["posterior"]["probs"] == ["1/3", "1/3", "1/3"]

    def test_rigidity(self, capsys):
        code, out = run(
            capsys, "jc", "rigidity", "--prior", PRIOR, "--posterior", UNIFORM,
            "--partition", '{"blocks":[[1],[2,3]]}',
        )
        assert code == 0
        assert json.loads(out)["rigidity_holds"] is True

    def test_coarsest(self, capsys):
        code, out = run(capsys, "jc", "coarsest", "--prior", PRIOR, "--posterior", UNIFORM)
        assert json.loads(out)["coarsest"]["blocks"] == [[1], [2, 3]]

    def test_brute_exit_codes(self, capsys):
        code, _ = run(capsys, "jc", "brute", "--prior", PRIOR, "--posterior", UNIFORM)
        assert code == 10
        code, _ = run(capsys, "jc", "brute", "--prior", PRIOR, "--posterior", DISTINCT)
        assert code == 0


class TestBsTest:
    def test_member_exit_zero(self, capsys):
        code, out = run(capsys, "bs", "test", "--prior", PRIOR, "--posterior", DISTINCT)
        assert code == 0
        assert json.loads(out)["status"] == "in_blind_spot"

    def test_self_posterior_exit_ten_with_witness(self, capsys):
        code, out = run(capsys, "bs", "test", "--prior", PRIOR, "--posterior", PRIOR)
        assert code == 10
        payload = json.loads(out)
        assert payload["witness"] == [1, 2]
        assert payload["coarsest"]["blocks"] == [[1, 2, 3]]

    def test_horizon_limited_label(self, capsys):
        q = '{"kind":"geometric","ratio":"1/3"}'
        code, out = run(
            capsys, "bs", "test", "--prior", GEO_HALF, "--posterior", q, "--horizon", "16"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["horizon_limited"] is True
        assert payload["status"] == "prefix_distinct(16)"


class TestConstructCommands:
    PRIORS = '[{"kind":"geometric","ratio":"1/2"},{"kind":"geometric","ratio":"1/3"}]'

    def test_construct_certificate_verified(self, capsys):
        code, out = run(
            capsys, "bs", "construct", "--priors", self.PRIORS,
            "--horizon", "24", "--seed", "7",
        )
        assert code == 0
        payload = json.loads(out)
        assert all(c["verified"] for c in payload["certificate"]["claims"])
        dist_from_json(payload["distribution"])  # re-parses exactly

    def test_densify(self, capsys):
        code, out = run(
            capsys, "bs", "densify", "--prior", GEO_HALF,
            "--target", '{"kind":"geometric","ratio":"1/2"}',
            "--epsilon", "1/100", "--seed", "0",
        )
        # geometric targets have no stored prefix; expect an input error
        assert code == 2

    def test_densify_truncated_target(self, capsys, tmp_path):
        target = json.dumps(
            {"kind": "truncated",
             "prefix": ["1/2", "1/4", "1/8", "1/16", "1/32", "1/64"],
             "tail_mass": "1/64"}
        )
        code, out = run(
            capsys, "bs", "densify", "--prior", GEO_HALF,
            "--target", target, "--epsilon", "1/10", "--seed", "0",
        )
        assert code == 0
        payload = json.loads(out)
        assert all(c["verified"] for c in payload["certificate"]["claims"])

    @pytest.mark.parametrize("cmd, flags", [
        ("exteriorize", ("--epsilon", "1/5")),
        ("multicollide", ("--pairs", "1", "--epsilon", "1/5")),
    ])
    def test_float_prior_moves_like_the_equal_exact_prior(self, capsys, cmd, flags):
        """The stored floats are read as the exact dyadics they are, so the
        payload, its exact l1 distance included, is the exact prior's, less
        the certificate digest of the raw arguments."""
        q = '{"kind":"finite","probs":["1/2","1/4","1/16","1/32","1/32","1/16","1/16"]}'
        payloads = []
        for probs in ([0.375, 0.25, 0.125] + [0.0625] * 4,
                      ["3/8", "1/4", "1/8"] + ["1/16"] * 4):
            prior = json.dumps({"kind": "finite", "probs": probs})
            code, out = run(capsys, "bs", cmd, "--prior", prior, "--posterior", q, *flags)
            assert code == 0
            payload = json.loads(out)
            assert all(c["verified"] for c in payload["certificate"].pop("claims"))
            del payload["certificate"]["inputs_digest"]
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    def test_exteriorize_horizon_insufficient_exit_three(self, capsys):
        q = json.dumps(
            {"kind": "truncated", "prefix": ["1/2", "1/4", "1/8"], "tail_mass": "1/8"}
        )
        code, _ = run(
            capsys, "bs", "exteriorize", "--prior", GEO_HALF,
            "--posterior", q, "--epsilon", "1/1000000",
        )
        assert code == 3


class TestSampleCommands:
    def test_sample_deterministic(self, capsys):
        args = ("bs", "sample", "--seed", "42", "--horizon", "16")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_montecarlo_byte_identical(self, capsys):
        args = (
            "bs", "montecarlo", "--prior", GEO_HALF, "--trials", "1000",
            "--horizon", "20", "--seed", "42",
        )
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_montecarlo_workers_identical(self, capsys):
        base = (
            "bs", "montecarlo", "--prior", GEO_HALF, "--trials", "9000",
            "--horizon", "12", "--seed", "5",
        )
        _, one = run(capsys, *base, "--workers", "1")
        _, four = run(capsys, *base, "--workers", "4")
        assert one == four

    def test_montecarlo_csv(self, capsys):
        code, out = run(
            capsys, "bs", "montecarlo", "--prior", GEO_HALF, "--trials", "50",
            "--horizon", "10", "--seed", "1", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "trial,in_blindspot,first_collision_i,first_collision_j,residual_mass"
        assert len(lines) == 51


class TestDistCommands:
    def test_normalize(self, capsys):
        code, out = run(capsys, "dist", "normalize", "--values", '["1","1","2"]')
        assert json.loads(out)["distribution"]["probs"] == ["1/4", "1/4", "1/2"]

    @pytest.mark.parametrize("values, probs", [
        ("[0.00001, 1]", ["1/100001", "100000/100001"]),
        ("[1e+20, 1e-05, 1.5e-07]",
         ["2000000000000000000000000000/2000000000000000000000000203",
          "200/2000000000000000000000000203", "3/2000000000000000000000000203"]),
    ])
    def test_normalize_reads_exponent_floats_as_decimals(self, capsys, values, probs):
        code, out = run(capsys, "dist", "normalize", "--values", values)
        assert code == 0
        assert json.loads(out)["distribution"]["probs"] == probs

    def test_exponent_floats_keep_the_18_digit_rule(self, capsys):
        code, out = run(capsys, "dist", "normalize", "--values", "[1e-18, 1]")
        assert code == 0
        assert json.loads(out)["distribution"]["probs"][0] == "1/1000000000000000001"
        assert dispatch(["dist", "normalize", "--values", "[1e-19, 1]"]) == 2
        err = capsys.readouterr().err
        assert "limited to 18 fractional digits: '0.0000000000000000001'" in err

    def test_distance_exact(self, capsys):
        u = '{"kind":"finite","probs":["1","0","0"]}'
        v = '{"kind":"finite","probs":["0","1","0"]}'
        code, out = run(capsys, "dist", "distance", "--u", u, "--v", v, "--norm", "l1")
        assert json.loads(out)["value"] == "2"

    def test_distance_bounded(self, capsys):
        u = '{"kind":"finite","probs":["1","0","0"]}'
        v = '{"kind":"finite","probs":["0","1","0"]}'
        code, out = run(
            capsys, "dist", "distance", "--u", u, "--v", v, "--norm", "l1", "--bounded"
        )
        assert json.loads(out)["value"] == "2/3"


class TestErrorContract:
    def test_unknown_subcommand(self, capsys):
        assert dispatch(["frobnicate"]) == 2
        capsys.readouterr()

    def test_bad_distribution(self, capsys):
        code, _ = run(capsys, "bs", "test", "--prior", "{notjson", "--posterior", PRIOR)
        assert code == 2

    def test_zero_prior(self, capsys):
        p = '{"kind":"finite","probs":["1","0","0"]}'
        code, _ = run(capsys, "bs", "test", "--prior", p, "--posterior", PRIOR)
        assert code == 2

    def test_roundtrip_emitted_distribution(self, capsys):
        _, out = run(capsys, "bs", "sample", "--seed", "3", "--horizon", "8")
        payload = json.loads(out)
        d = dist_from_json(payload["distribution"])
        assert json.dumps(payload["distribution"], sort_keys=True) == json.dumps(
            {"kind": "truncated",
             "prefix": list(d.prefix),
             "tail_mass": d.tail_mass},
            sort_keys=True,
        )


def _exit_two_inputs():
    """Truncated or geometric inputs where finite vectors are needed, and NaN."""
    for other, kind in ((TRUNC, "truncated"), (GEO_HALF, "geometric")):
        yield pytest.param(("jc", "apply", "--prior", other, "--partition", PARTITION,
                            "--weights", '["1/3","2/3"]'), id=f"jc-apply-{kind}-prior")
        for cmd, extra in (("coarsest", ()), ("brute", ()),
                           ("rigidity", ("--partition", PARTITION))):
            yield pytest.param(("jc", cmd, "--prior", other, "--posterior", UNIFORM, *extra),
                               id=f"jc-{cmd}-{kind}-prior")
            yield pytest.param(("jc", cmd, "--prior", PRIOR, "--posterior", other, *extra),
                               id=f"jc-{cmd}-{kind}-posterior")
        # without --horizon, bs test gives a full verdict, so both must be finite
        yield pytest.param(("bs", "test", "--prior", other, "--posterior", DISTINCT),
                           id=f"bs-test-{kind}-prior")
        yield pytest.param(("bs", "test", "--prior", UNIFORM, "--posterior", other),
                           id=f"bs-test-{kind}-posterior")
    # jc cross-multiplies entries of q, so it refuses a float posterior too
    mixed = '{"kind":"finite","probs":["49/61","5/61","7/61"]}'
    floats = ('{"kind":"finite","probs":'
              '[0.12753451286971085,0.013013725803031718,0.8594517613272574]}')
    for cmd, extra in (("coarsest", ()), ("brute", ()),
                       ("rigidity", ("--partition", '{"blocks":[[1,2],[3]]}'))):
        yield pytest.param(("jc", cmd, "--prior", mixed, "--posterior", floats, *extra),
                           id=f"jc-{cmd}-float-posterior")
    nan = '{"kind":"finite","probs":[NaN,0.5,0.5]}'
    yield pytest.param(("bs", "test", "--prior", UNIFORM, "--posterior", nan), id="nan-entry")
    # malformed arguments, caught where they are decoded
    ext = ("bs", "exteriorize", "--prior", GEO_HALF, "--posterior", TRUNC, "--epsilon")
    test = ("bs", "test", "--posterior", UNIFORM, "--prior")
    apply = ("jc", "apply", "--prior", UNIFORM)
    horizon_test = ("bs", "test", "--prior", GEO_HALF, "--posterior",
                    '{"kind":"truncated","prefix":["1/4","1/8","1/4","1/8"],"tail_mass":"1/4"}',
                    "--horizon")
    montecarlo = ("bs", "montecarlo", "--prior", GEO_HALF, "--trials", "10")
    halves = json.dumps({"kind": "truncated", "prefix": [f"1/{2 ** i}" for i in range(1, 9)],
                         "tail_mass": "1/256"})
    budget = ("--prior", '{"kind":"geometric","ratio":"1/3"}', "--posterior", halves)
    for case_id, argv in {
        "epsilon-not-a-number": (*ext, "abc"),
        "epsilon-zero-denominator": (*ext, "1/0"),
        "values-zero-denominator": ("dist", "normalize", "--values", '["1/0","1"]'),
        "prior-missing-field": (*test, '{"kind":"finite"}'),
        "prior-not-an-object": (*test, "3"),
        "prior-file-invalid-json": (*test, BAD_JSON_FILE),
        "priors-not-a-list": ("bs", "construct", "--priors", GEO_HALF,
                              "--horizon", "8", "--seed", "1"),
        "base-one-parameter": ("bs", "sample", "--seed", "1", "--horizon", "4",
                               "--base", "beta:1"),
        "partition-without-blocks": (*apply, "--partition", "{}", "--weights", '["1"]'),
        "weight-not-a-number": (*apply, "--partition", PARTITION, "--weights", '["abc"]'),
        # JSON true is not the partition index 1
        "apply-boolean-index": ("jc", "apply", "--prior", PRIOR, "--partition", BOOL_PARTITION,
                                "--weights", '["1/3","2/3"]'),
        "rigidity-boolean-index": ("jc", "rigidity", "--prior", PRIOR, "--posterior", UNIFORM,
                                   "--partition", BOOL_PARTITION),
        "norm-not-a-number": ("dist", "distance", "--u", UNIFORM, "--v", UNIFORM,
                              "--norm", "lp:x"),
        "ratio-not-a-number": ("bs", "test", "--prior", '{"kind":"geometric","ratio":"x"}',
                               "--posterior", GEO_HALF, "--horizon", "3"),
        # a horizon below 1 and a negative sampler seed are out of range
        "test-horizon-negative": (*horizon_test, "-1"),
        "test-horizon-zero": (*horizon_test, "0"),
        "montecarlo-horizon-zero": (*montecarlo, "--seed", "1", "--horizon", "0"),
        "montecarlo-horizon-negative": (*montecarlo, "--seed", "1", "--horizon", "-3"),
        "montecarlo-seed-negative": (*montecarlo, "--horizon", "5", "--seed", "-1"),
        "sample-seed-negative": ("bs", "sample", "--seed", "-1", "--horizon", "5"),
        # a move budget pairs * eps at or above q_2 = 1/4 is out of range
        "multicollide-budget": ("bs", "multicollide", *budget, "--pairs", "1",
                                "--epsilon", "1/3"),
        "exteriorize-budget": ("bs", "exteriorize", *budget, "--epsilon", "1/3"),
        # q_2 = 0 with no stored q_3 leaves no budget coordinate
        "multicollide-no-budget": ("bs", "multicollide", "--prior", GEO_HALF, "--posterior",
                                   '{"kind":"finite","probs":["1","0"]}', "--pairs", "1",
                                   "--epsilon", "1/10"),
        "exteriorize-no-budget": ("bs", "exteriorize", "--prior", GEO_HALF, "--posterior",
                                  '{"kind":"truncated","prefix":["1/2","0"],"tail_mass":"1/2"}',
                                  "--epsilon", "1/10"),
        # a JSON string where a list is due would be read one character at a time
        "probs-string": ("dist", "distance", "--u", '{"kind":"finite","probs":"01"}',
                         "--v", '{"kind":"finite","probs":["0","1"]}'),
        "prefix-string": ("bs", "test", "--prior", GEO_HALF, "--posterior",
                          '{"kind":"truncated","prefix":"01","tail_mass":"0"}', "--horizon", "2"),
        "values-string": ("dist", "normalize", "--values", '"12"'),
        # a JSON float is the decimal it denotes, under the 18-digit rule
        "values-exponent-beyond-18-digits": ("dist", "normalize", "--values", "[1e-19, 1]"),
        "weights-string": (*apply, "--partition", PARTITION, "--weights", '"01"'),
        # beta parameters must be positive and finite
        "montecarlo-beta-nan": (*montecarlo, "--seed", "1", "--horizon", "5",
                                "--base", "beta:nan,1"),
        "montecarlo-beta-inf": (*montecarlo, "--seed", "1", "--horizon", "5",
                                "--base", "beta:inf,1"),
        "montecarlo-beta-second-inf": (*montecarlo, "--seed", "1", "--horizon", "5",
                                       "--base", "beta:1,inf"),
    }.items():
        yield pytest.param(argv, id=case_id)


@pytest.mark.parametrize("argv", list(_exit_two_inputs()))
def test_input_error_exit_two(capsys, tmp_path, argv):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, out = run(capsys, *(str(bad) if a == BAD_JSON_FILE else a for a in argv))
    assert code == 2
    assert out == ""


CONSTRUCT = ("bs", "construct", "--priors", TestConstructCommands.PRIORS,
             "--horizon", "24", "--seed", "7")
DENSIFY = ("bs", "densify", "--prior", GEO_HALF, "--target", TRUNC,
           "--epsilon", "1/10", "--seed", "0")


@pytest.mark.parametrize("argv, module, name, fake", [
    pytest.param(CONSTRUCT, blindspot, "membership_prefix",
                 lambda p, q, n: Verdict(False, n, (1, 2), None), id="construct"),
    pytest.param(DENSIFY, metrics, "l1_upper_bound", lambda u, v: 1, id="densify"),
])
def test_failed_claim_exits_four(capsys, monkeypatch, argv, module, name, fake):
    monkeypatch.setattr(module, name, fake)
    code, out = run(capsys, *argv)
    assert code == 4
    claims = json.loads(out)["certificate"]["claims"]
    assert not all(c["verified"] for c in claims)


@pytest.mark.parametrize("argv", [
    pytest.param(CONSTRUCT, id="json"),
    pytest.param(("bs", "montecarlo", "--prior", GEO_HALF, "--trials", "40",
                  "--horizon", "3", "--seed", "1", "--format", "csv"), id="csv"),
])
def test_out_file_holds_stdout_bytes(capsysbinary, tmp_path, argv):
    assert dispatch(list(argv)) == 0
    printed = capsysbinary.readouterr().out
    out = tmp_path / "payload"
    assert dispatch([*argv, "--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert out.read_bytes() == printed


GOLDEN_CASES = json.loads((Path(__file__).parent / "golden" / "cases.json").read_text())
SAMPLING = (["bs", "sample"], ["bs", "montecarlo"])
EXACT_CASES = [case for case in GOLDEN_CASES if case["argv"][:2] not in SAMPLING]
#: a fresh interpreter: import the CLI, replay the exact golden cases, and
#: report which watched modules were loaded after each step, plus the exit
#: code and stdout of each case.  Watched are the float modules (numpy,
#: multiprocessing) and the start-up-heavy ones (dataclasses, inspect, csv)
#: that the interpreter had not loaded before the CLI.  Start-up hooks in
#: site-packages can load some: a .pth file importing certifi loads inspect
#: under CPython 3.13.
EXACT_REPLAY = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout

WATCHED = {"numpy", "multiprocessing", "dataclasses", "inspect", "csv"} - set(sys.modules)

import bayesblind.cli as cli


def loaded():
    return sorted(WATCHED & set(sys.modules))


after_import, results = loaded(), {}
for case in json.loads(sys.stdin.read()):
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        results[case["name"]] = [cli.dispatch(case["argv"]), out.getvalue()]
print(json.dumps([after_import, loaded(), results]))
"""


def replay_exact(python):
    """[watched modules loaded after import, after the replay, {name: [exit,
    stdout]}] for the exact golden cases run under the interpreter ``python``."""
    src = Path(bayesblind.__file__).parents[1]
    proc = subprocess.run([python, "-c", EXACT_REPLAY], input=json.dumps(EXACT_CASES),
                          env={**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_exact_commands_import_no_numpy():
    after_import, after_replay, results = replay_exact(sys.executable)
    assert after_import == []
    assert after_replay == []
    assert {name: code for name, (code, _) in results.items()} == {
        case["name"]: case["exit"] for case in EXACT_CASES}


def other_cpythons() -> list:
    """The python3.10 ... python3.13 on PATH that start and run another
    minor version than this interpreter."""
    found = []
    for minor in range(10, 14):
        exe = shutil.which(f"python3.{minor}")
        if exe is None or sys.version_info[:2] == (3, minor):
            continue
        probe = subprocess.run([exe, "-c", "import sys; print(sys.version_info[1])"],
                               capture_output=True, text=True, timeout=60)
        if probe.returncode == 0 and probe.stdout.strip() == str(minor):
            found.append(exe)
    return found


def test_exact_commands_replay_byte_for_byte_on_other_cpythons():
    """The exact CLI uses no interpreter-specific behaviour: every supported
    CPython gives the golden exit codes and stdout bytes, without numpy."""
    pythons = other_cpythons()
    if not pythons:
        pytest.skip("no other CPython 3.10-3.13 on PATH starts")
    golden = Path(__file__).parent / "golden"
    expected = {case["name"]: [case["exit"], (golden / f"{case['name']}.out").read_bytes()]
                for case in EXACT_CASES}
    for python in pythons:
        after_import, after_replay, results = replay_exact(python)
        assert after_import == after_replay == [], python
        got = {name: [code, out.encode()] for name, (code, out) in results.items()}
        assert got == expected, python


#: the CLI in a fresh interpreter; it fails if the run loaded multiprocessing
MAIN_WITHOUT_PROCESSES = """
import sys
from bayesblind.cli import dispatch

code = dispatch(sys.argv[1:])
sys.exit("multiprocessing was loaded" if "multiprocessing" in sys.modules else code)
"""


@pytest.mark.parametrize("workers", ["1", "2"])
def test_montecarlo_stderr_is_the_summary_alone(workers):
    """Underflowed ratios warn in no worker: the summary is all of stderr.  The
    run has two chunks, so two workers run one each, and starts no process."""
    src = Path(bayesblind.__file__).parents[1]
    trials = str(sampler.CHUNK_TRIALS + 1)
    argv = ["bs", "montecarlo", "--prior", '{"kind":"geometric","ratio":"1/1000"}',
            "--trials", trials, "--horizon", "120", "--seed", "1", "--workers", workers]
    proc = subprocess.run([sys.executable, "-c", MAIN_WITHOUT_PROCESSES, *argv],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["report"]["in_blindspot"] == 0
    assert proc.stderr == f"monte carlo: 0/{trials} in blind spot\n"


def test_package_resolves_sampler_names_on_use():
    from bayesblind import monte_carlo_blindspot_fraction

    assert monte_carlo_blindspot_fraction is sampler.monte_carlo_blindspot_fraction
    assert bayesblind.McReport is sampler.McReport
    with pytest.raises(AttributeError):
        bayesblind.no_such_name


@pytest.mark.filterwarnings("ignore::UserWarning")  # setuptools marks [tool.setuptools] beta
def test_package_version_has_one_source():
    from setuptools.config.pyprojecttoml import read_configuration

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = read_configuration(pyproject)["project"]
    assert project["dynamic"] == ["version"]
    assert project["version"] == bayesblind.__version__

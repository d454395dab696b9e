import json

import pytest

from bayesblind.cli import dispatch
from bayesblind.distributions import dist_from_json

PRIOR = '{"kind":"finite","probs":["1/2","1/4","1/4"]}'
UNIFORM = '{"kind":"finite","probs":["1/3","1/3","1/3"]}'
DISTINCT = '{"kind":"finite","probs":["1/2","3/10","1/5"]}'
GEO_HALF = '{"kind":"geometric","ratio":"1/2"}'
TRUNC = '{"kind":"truncated","prefix":["1/2","1/4","1/8"],"tail_mass":"1/8"}'
PARTITION = '{"blocks":[[1],[2,3]]}'


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
    nan = '{"kind":"finite","probs":[NaN,0.5,0.5]}'
    yield pytest.param(("bs", "test", "--prior", UNIFORM, "--posterior", nan), id="nan-entry")


@pytest.mark.parametrize("argv", list(_exit_two_inputs()))
def test_input_error_exit_two(capsys, argv):
    code, out = run(capsys, *argv)
    assert code == 2
    assert out == ""

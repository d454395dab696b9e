"""Single command-line entry point.

Payloads go to stdout as JSON; a one-line human summary goes to stderr.
Exit codes: 0 success/member, 10 accessible/collision, 2 input error,
3 horizon insufficient.  Every randomized subcommand requires an explicit
--seed so runs are reproducible byte for byte.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from fractions import Fraction

from . import blindspot, construct, jeffrey, metrics, sampler
from .distributions import (
    dist_from_json,
    dist_to_json,
    format_rational,
    normalize,
    parse_rational,
)
from .errors import BayesBlindError

EXIT_OK = 0
EXIT_ACCESSIBLE = 10
EXIT_INPUT = 2
EXIT_HORIZON = 3


def _load_json_arg(text: str):
    """Inline JSON, or the contents of a file when the argument is a path."""
    if os.path.isfile(text):
        with open(text) as fh:
            return json.load(fh)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise BayesBlindError(f"not valid JSON and not a file: {text!r} ({exc})") from exc


def _load_dist(text: str):
    return dist_from_json(_load_json_arg(text))


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _certificate(operation, inputs, claims, seed=None) -> dict:
    cert = {"operation": operation, "inputs_digest": _digest(inputs), "claims": claims}
    if seed is not None:
        cert["seed"] = seed
    return cert


def _claim(prop, bound_or_value, verified) -> dict:
    return {"property": prop, "bound_or_value": bound_or_value, "verified": bool(verified)}


def _emit(payload: dict, summary: str, out: str | None = None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    print(summary, file=sys.stderr)


def _number_str(x) -> str:
    if isinstance(x, Fraction):
        return format_rational(x)
    return f"{float(x):.12f}"


# ---------------------------------------------------------------- jc group


def _cmd_jc_apply(args) -> int:
    p = _load_dist(args.prior)
    e = jeffrey.Partition.from_json(_load_json_arg(args.partition))
    w = jeffrey.BlockWeights(tuple(parse_rational(str(x)) for x in _load_json_arg(args.weights)))
    q = jeffrey.jc_apply(p, e, w)
    _emit(
        {"posterior": dist_to_json(q)},
        "jc apply: " + ", ".join(format_rational(v) for v in q.probs),
        args.out,
    )
    return EXIT_OK


def _cmd_jc_rigidity(args) -> int:
    p = _load_dist(args.prior)
    q = _load_dist(args.posterior)
    e = jeffrey.Partition.from_json(_load_json_arg(args.partition))
    holds = jeffrey.rigidity_holds(p, q, e)
    _emit({"rigidity_holds": holds}, f"rigidity holds: {holds}", args.out)
    return EXIT_OK


def _cmd_jc_coarsest(args) -> int:
    p = _load_dist(args.prior)
    q = _load_dist(args.posterior)
    e = jeffrey.coarsest_partition(p, q)
    _emit({"coarsest": e.to_json()}, f"coarsest partition: {e.to_json()['blocks']}", args.out)
    return EXIT_OK


def _cmd_jc_brute(args) -> int:
    p = _load_dist(args.prior)
    q = _load_dist(args.posterior)
    verdict = jeffrey.accessible_brute_force(p, q)
    payload = {"accessible": verdict.accessible}
    if verdict.witness is not None:
        payload["witness"] = verdict.witness.to_json()
    _emit(payload, f"accessible: {verdict.accessible}", args.out)
    return EXIT_ACCESSIBLE if verdict.accessible else EXIT_OK


# ---------------------------------------------------------------- bs group


def _cmd_bs_test(args) -> int:
    p = _load_dist(args.prior)
    q = _load_dist(args.posterior)
    if args.horizon is not None:
        v = blindspot.membership_prefix(p, q, args.horizon)
        payload = {
            "status": v.status,
            "horizon_limited": True,
            "horizon": v.horizon,
        }
        if v.collision is not None:
            payload["witness"] = list(v.collision)
        member = v.distinct
    else:
        v = blindspot.membership_finite(p, q)
        payload = {"status": v.status, "horizon_limited": False}
        if v.witness is not None:
            payload["witness"] = list(v.witness)
        if v.coarsest is not None:
            payload["coarsest"] = v.coarsest.to_json()
        member = v.in_blind_spot
    _emit(payload, f"verdict: {payload['status']}", args.out)
    return EXIT_OK if member else EXIT_ACCESSIBLE


def _cmd_bs_construct(args) -> int:
    priors = [dist_from_json(obj) for obj in _load_json_arg(args.priors)]
    q = construct.generate_blindspot_member(priors, args.horizon, args.seed)
    verdicts = [blindspot.membership_prefix(p, q, args.horizon) for p in priors]
    inputs = {"priors": args.priors, "horizon": args.horizon, "seed": args.seed}
    claims = [
        _claim(f"prefix_distinct[prior {k}]", args.horizon, v.distinct)
        for k, v in enumerate(verdicts, start=1)
    ]
    claims.append(_claim("mass", "1", sum(q.prefix) + q.tail_mass == 1))
    cert = _certificate("bs construct", inputs, claims, args.seed)
    _emit(
        {"distribution": dist_to_json(q), "certificate": cert},
        f"generated blind-spot member at horizon {args.horizon}",
        args.out,
    )
    return EXIT_OK


def _cmd_bs_densify(args) -> int:
    p = _load_dist(args.prior)
    q_target = _load_dist(args.target)
    eps = parse_rational(args.epsilon)
    result = construct.densify(p, q_target, eps)
    n = len(result.distribution)
    verdict = blindspot.membership_prefix(p, result.distribution, n)
    upper = metrics.l1_upper_bound(result.distribution, q_target)
    cert = _certificate(
        "bs densify",
        {"prior": args.prior, "target": args.target, "epsilon": args.epsilon},
        [
            _claim("l1_upper < 4*eps", format_rational(4 * eps), upper < 4 * eps),
            _claim(f"prefix_distinct({n})", n, verdict.distinct),
        ],
        args.seed,
    )
    _emit(
        {
            "distribution": dist_to_json(result.distribution),
            "l1_upper": format_rational(result.l1_upper),
            "certificate": cert,
        },
        f"densified within l1 upper bound {_number_str(result.l1_upper)}",
        args.out,
    )
    return EXIT_OK


def _cmd_bs_exteriorize(args) -> int:
    p = _load_dist(args.prior)
    q = _load_dist(args.posterior)
    eps = parse_rational(args.epsilon)
    result = construct.exteriorize(p, q, eps)
    n = len(result.distribution)
    count = blindspot.collision_count(p, result.distribution, n)
    cert = _certificate(
        "bs exteriorize",
        {"prior": args.prior, "posterior": args.posterior, "epsilon": args.epsilon},
        [
            _claim("l1_distance < 2*eps", format_rational(2 * eps), result.l1_distance < 2 * eps),
            _claim("collision_count >= 1", count, count >= 1),
        ],
    )
    _emit(
        {
            "distribution": dist_to_json(result.distribution),
            "collision_pairs": [list(pr) for pr in result.pairs],
            "branch": result.branch,
            "l1_distance": format_rational(result.l1_distance),
            "certificate": cert,
        },
        f"collision at pair {result.pairs[0]}, l1 distance {_number_str(result.l1_distance)}",
        args.out,
    )
    return EXIT_OK


def _cmd_bs_multicollide(args) -> int:
    p = _load_dist(args.prior)
    q = _load_dist(args.posterior)
    eps = parse_rational(args.epsilon)
    result = construct.multi_collision_near(p, q, args.pairs, eps)
    n = len(result.distribution)
    count = blindspot.collision_count(p, result.distribution, n)
    bound = 2 * args.pairs * eps
    cert = _certificate(
        "bs multicollide",
        {
            "prior": args.prior,
            "posterior": args.posterior,
            "pairs": args.pairs,
            "epsilon": args.epsilon,
        },
        [
            _claim("l1_distance < 2*pairs*eps", format_rational(bound), result.l1_distance < bound),
            _claim(f"collision_count >= {args.pairs}", count, count >= args.pairs),
        ],
    )
    _emit(
        {
            "distribution": dist_to_json(result.distribution),
            "collision_pairs": [list(pr) for pr in result.pairs],
            "l1_distance": format_rational(result.l1_distance),
            "certificate": cert,
        },
        f"{count} collisions within l1 distance {_number_str(result.l1_distance)}",
        args.out,
    )
    return EXIT_OK


def _cmd_bs_sample(args) -> int:
    base = sampler.parse_base(args.base)
    d = sampler.stick_breaking_sample(args.seed, args.horizon, base)
    _emit(
        {"distribution": dist_to_json(d)},
        f"stick-breaking sample at horizon {args.horizon}, residual {d.tail_mass:.3e}",
        args.out,
    )
    return EXIT_OK


def _cmd_bs_montecarlo(args) -> int:
    prior = _load_dist(args.prior)
    base = sampler.parse_base(args.base)
    want_csv = args.format == "csv"
    result = sampler.monte_carlo_blindspot_fraction(
        prior,
        args.trials,
        args.horizon,
        base,
        args.seed,
        workers=args.workers,
        collect_trials=want_csv,
    )
    if want_csv:
        report, records = result
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(
            ["trial", "in_blindspot", "first_collision_i", "first_collision_j", "residual_mass"]
        )
        for rec in records:
            i, j = rec.first_collision if rec.first_collision else ("", "")
            writer.writerow([rec.trial, int(rec.in_blindspot), i, j, repr(rec.residual_mass)])
        text = buf.getvalue()
        if args.out:
            with open(args.out, "w", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        print(
            f"monte carlo: {report.in_blindspot}/{report.trials} in blind spot",
            file=sys.stderr,
        )
    else:
        report = result
        _emit(
            {"report": report.to_json()},
            f"monte carlo: {report.in_blindspot}/{report.trials} in blind spot",
            args.out,
        )
    return EXIT_OK


# -------------------------------------------------------------- dist group


def _cmd_dist_normalize(args) -> int:
    values = [parse_rational(str(v)) for v in _load_json_arg(args.values)]
    d = normalize(values)
    _emit(
        {"distribution": dist_to_json(d)},
        "normalized: " + ", ".join(format_rational(v) for v in d.probs),
        args.out,
    )
    return EXIT_OK


def _cmd_dist_distance(args) -> int:
    u = _load_dist(args.u)
    v = _load_dist(args.v)
    norm = metrics.parse_norm(args.norm)
    fn = metrics.bounded_metric if args.bounded else metrics.lp_distance
    t = fn(u, v, norm)
    if isinstance(t, metrics.DistanceInterval):
        payload = {"lower": _number_str(t.lower), "upper": _number_str(t.upper)}
        summary = f"distance in [{payload['lower']}, {payload['upper']}]"
    else:
        payload = {"value": _number_str(t)}
        summary = f"distance: {payload['value']}"
    _emit({"norm": str(norm), "bounded": args.bounded, **payload}, summary, args.out)
    return EXIT_OK


# ------------------------------------------------------------------ parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayesblind",
        description="Jeffrey conditioning and blind-spot analysis toolkit",
    )
    top = parser.add_subparsers(dest="group", required=True)

    def add(sub, name, fn, **flags):
        sp = sub.add_parser(name)
        for flag, spec in flags.items():
            sp.add_argument(flag, **spec)
        sp.add_argument("--out", default=None, help="write payload to a file")
        sp.set_defaults(fn=fn)
        return sp

    dist_arg = {"required": True}
    jc = top.add_parser("jc").add_subparsers(dest="cmd", required=True)
    add(jc, "apply", _cmd_jc_apply, **{
        "--prior": dist_arg, "--partition": dist_arg, "--weights": dist_arg})
    add(jc, "rigidity", _cmd_jc_rigidity, **{
        "--prior": dist_arg, "--posterior": dist_arg, "--partition": dist_arg})
    add(jc, "coarsest", _cmd_jc_coarsest, **{"--prior": dist_arg, "--posterior": dist_arg})
    add(jc, "brute", _cmd_jc_brute, **{"--prior": dist_arg, "--posterior": dist_arg})

    bs = top.add_parser("bs").add_subparsers(dest="cmd", required=True)
    add(bs, "test", _cmd_bs_test, **{
        "--prior": dist_arg, "--posterior": dist_arg,
        "--horizon": {"type": int, "default": None}})
    add(bs, "construct", _cmd_bs_construct, **{
        "--priors": dist_arg,
        "--horizon": {"type": int, "required": True},
        "--seed": {"type": int, "required": True}})
    add(bs, "densify", _cmd_bs_densify, **{
        "--prior": dist_arg, "--target": dist_arg,
        "--epsilon": dist_arg, "--seed": {"type": int, "required": True}})
    add(bs, "exteriorize", _cmd_bs_exteriorize, **{
        "--prior": dist_arg, "--posterior": dist_arg, "--epsilon": dist_arg})
    add(bs, "multicollide", _cmd_bs_multicollide, **{
        "--prior": dist_arg, "--posterior": dist_arg,
        "--pairs": {"type": int, "required": True}, "--epsilon": dist_arg})
    add(bs, "sample", _cmd_bs_sample, **{
        "--seed": {"type": int, "required": True},
        "--horizon": {"type": int, "required": True},
        "--base": {"default": "uniform"}})
    add(bs, "montecarlo", _cmd_bs_montecarlo, **{
        "--prior": dist_arg,
        "--trials": {"type": int, "required": True},
        "--horizon": {"type": int, "required": True},
        "--seed": {"type": int, "required": True},
        "--base": {"default": "uniform"},
        "--workers": {"type": int, "default": 1},
        "--format": {"choices": ["json", "csv"], "default": "json"}})

    dg = top.add_parser("dist").add_subparsers(dest="cmd", required=True)
    add(dg, "normalize", _cmd_dist_normalize, **{"--values": dist_arg})
    add(dg, "distance", _cmd_dist_distance, **{
        "--u": dist_arg, "--v": dist_arg,
        "--norm": {"default": "l1"},
        "--bounded": {"action": "store_true"}})
    return parser


def dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except BayesBlindError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

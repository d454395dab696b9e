"""Single command-line entry point.

Payloads go to stdout as JSON (CSV for ``bs montecarlo --format csv``); a
one-line human summary goes to stderr.  Exit codes: 0 success/member,
10 accessible/collision, 2 input error (including any malformed argument),
3 horizon insufficient, 4 a certificate claim failed to re-verify (the
payload is still written).  Every randomized subcommand requires an explicit
--seed so runs are reproducible byte for byte.

One table, ``COMMANDS``, maps each (group, command) to its handler, its flags
and the arguments its certificate is bound to.  ``dispatch`` parses, decodes
every flag that has a decoder, runs the handler and writes its payload.
Only ``bs sample`` and ``bs montecarlo`` import the float sampler, and with
it numpy; every exact command runs without it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from decimal import Decimal  # loaded anyway: fractions imports it
from fractions import Fraction
from typing import Callable, NamedTuple

from . import blindspot, construct, jeffrey, metrics
from .distributions import (
    dist_from_json,
    dist_to_json,
    exact_sum,
    format_rational,
    json_list,
    normalize,
    parse_rational,
)
from .errors import BayesBlindError, InputError

EXIT_OK = 0
EXIT_ACCESSIBLE = 10
EXIT_INPUT = 2
EXIT_CLAIM_FAILED = 4

#: what malformed text or an unreadable file raises while decoded; all of it is an input error
DECODE_ERRORS = (ValueError, KeyError, TypeError, AttributeError, ZeroDivisionError, RecursionError,
                 OSError)


def _number_str(x) -> str:
    if isinstance(x, Fraction):
        return format_rational(x)
    return f"{float(x):.12f}"


def _certified(args, q, claims, **fields) -> dict:
    """The payload of a certifying command: distribution `q`, its other
    `fields`, and claims (property, bound or value, verified) bound to a
    digest of the raw arguments the command table certifies, plus the seed
    if any."""
    import hashlib  # only the certifying commands pay for it

    inputs = {name: args.raw[name] for name in COMMANDS[args.group, args.cmd].certified}
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    cert = {
        "operation": f"{args.group} {args.cmd}",
        "inputs_digest": hashlib.sha256(blob.encode()).hexdigest(),
        "claims": [
            {"property": prop, "bound_or_value": bound, "verified": bool(ok)}
            for prop, bound, ok in claims
        ],
    }
    if "seed" in args.raw:
        cert["seed"] = args.seed
    return {"distribution": dist_to_json(q), **fields, "certificate": cert}


# ---------------------------------------------------------------- handlers
# Each takes the decoded arguments and returns (payload, summary, exit code);
# the payload is a dict written as JSON, or CSV text written as is.


def _jc_apply(a):
    q = jeffrey.jc_apply(a.prior, a.partition, jeffrey.BlockWeights(tuple(a.weights)))
    summary = "jc apply: " + ", ".join(format_rational(v) for v in q.probs)
    return {"posterior": dist_to_json(q)}, summary, EXIT_OK


def _jc_rigidity(a):
    holds = jeffrey.rigidity_holds(a.prior, a.posterior, a.partition)
    return {"rigidity_holds": holds}, f"rigidity holds: {holds}", EXIT_OK


def _jc_coarsest(a):
    e = jeffrey.coarsest_partition(a.prior, a.posterior).to_json()
    return {"coarsest": e}, f"coarsest partition: {e['blocks']}", EXIT_OK


def _jc_brute(a):
    verdict = jeffrey.accessible_brute_force(a.prior, a.posterior)
    payload = {"accessible": verdict.accessible}
    if verdict.witness is not None:
        payload["witness"] = verdict.witness.to_json()
    code = EXIT_ACCESSIBLE if verdict.accessible else EXIT_OK
    return payload, f"accessible: {verdict.accessible}", code


def _bs_test(a):
    v = blindspot.family_membership([a.prior], a.posterior, a.horizon).verdicts[0]
    return v.to_json(), f"verdict: {v.status}", EXIT_OK if v.distinct else EXIT_ACCESSIBLE


def _bs_construct(a):
    q = construct.generate_blindspot_member(a.priors, a.horizon, a.seed)
    verdicts = blindspot.family_membership(a.priors, q, a.horizon).verdicts
    claims = [(f"prefix_distinct[prior {k}]", a.horizon, v.distinct)
              for k, v in enumerate(verdicts, start=1)]
    claims.append(("mass", "1", exact_sum(q.prefix + (q.tail_mass,)) == 1))
    return _certified(a, q, claims), f"generated blind-spot member at horizon {a.horizon}", EXIT_OK


def _bs_densify(a):
    q, bound = construct.densify(a.prior, a.target, a.epsilon).distribution, 4 * a.epsilon
    l1 = metrics.l1_upper_bound(q, a.target)
    claims = [
        ("l1_upper < 4*eps", format_rational(bound), l1 < bound),
        (f"prefix_distinct({len(q)})", len(q),
         blindspot.membership_prefix(a.prior, q, len(q)).distinct),
    ]
    payload = _certified(a, q, claims, l1_upper=format_rational(l1))
    return payload, f"densified within l1 upper bound {_number_str(l1)}", EXIT_OK


def _near_collision(a, result, bound_name, bound, pairs, **fields):
    """Payload of a move to `pairs` or more ratio collisions within l1 `bound`,
    with its other `fields`, and the collision count and l1 distance it certifies."""
    q = result.distribution
    count = blindspot.collision_count(a.prior, q, len(q))
    t = metrics.lp_distance(q, a.posterior)
    if isinstance(t, metrics.DistanceInterval):  # a kept tail leaves the prefix gap as all of it
        t = t.lower if q.tail_mass == a.posterior.tail_mass else t.upper
    claims = [
        (f"l1_distance < {bound_name}", format_rational(bound), t < bound),
        (f"collision_count >= {pairs}", count, count >= pairs),
    ]
    payload = _certified(a, q, claims, collision_pairs=[list(pr) for pr in result.pairs],
                         l1_distance=format_rational(t), **fields)
    return payload, count, t


def _bs_exteriorize(a):
    result = construct.exteriorize(a.prior, a.posterior, a.epsilon)
    payload, _, l1 = _near_collision(a, result, "2*eps", 2 * a.epsilon, 1, branch=result.branch)
    return payload, f"collision at pair {result.pairs[0]}, l1 distance {_number_str(l1)}", EXIT_OK


def _bs_multicollide(a):
    result = construct.multi_collision_near(a.prior, a.posterior, a.pairs, a.epsilon)
    payload, count, l1 = _near_collision(a, result, "2*pairs*eps", 2 * a.pairs * a.epsilon, a.pairs)
    return payload, f"{count} collisions within l1 distance {_number_str(l1)}", EXIT_OK


def _sampler():
    """The float sampler, imported on first use because it imports numpy."""
    from . import sampler

    return sampler


def _bs_sample(a):
    d = _sampler().stick_breaking_sample(a.seed, a.horizon, a.base)
    summary = f"stick-breaking sample at horizon {a.horizon}, residual {d.tail_mass:.3e}"
    return {"distribution": dist_to_json(d)}, summary, EXIT_OK


def _bs_montecarlo(a):
    want_csv = a.format == "csv"
    result = _sampler().monte_carlo_blindspot_fraction(
        a.prior, a.trials, a.horizon, a.base, a.seed, a.workers, want_csv)
    report, witness, residuals = result if want_csv else (result, None, None)
    summary = f"monte carlo: {report.in_blindspot}/{report.trials} in blind spot"
    if not want_csv:
        return {"report": report.to_json()}, summary, EXIT_OK
    import csv  # only this format pays for it

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["trial", "in_blindspot", "first_collision_i", "first_collision_j",
                     "residual_mass"])
    for trial, mass in enumerate(residuals):
        i, j = witness.get(trial, ("", ""))
        writer.writerow([trial, int(trial not in witness), i, j, repr(mass)])
    return buf.getvalue(), summary, EXIT_OK


def _dist_normalize(a):
    d = normalize(a.values)
    summary = "normalized: " + ", ".join(format_rational(v) for v in d.probs)
    return {"distribution": dist_to_json(d)}, summary, EXIT_OK


def _dist_distance(a):
    fn = metrics.bounded_metric if a.bounded else metrics.lp_distance
    t = fn(a.u, a.v, a.norm)
    if isinstance(t, metrics.DistanceInterval):
        payload = {"lower": _number_str(t.lower), "upper": _number_str(t.upper)}
        summary = f"distance in [{payload['lower']}, {payload['upper']}]"
    else:
        payload = {"value": _number_str(t)}
        summary = f"distance: {payload['value']}"
    return {"norm": str(a.norm), "bounded": a.bounded, **payload}, summary, EXIT_OK


# ------------------------------------------------------------------- table


class Command(NamedTuple):
    handler: Callable
    flags: dict  # "--name" -> (argparse spec, decoder of its text or None)
    certified: tuple = ()  # raw arguments the certificate digest covers


def _flag(decode=None, **spec):
    return spec, decode


def _json_rational(x) -> Fraction:
    """A JSON list entry; a float is the decimal its repr denotes (1e-05 as 0.00001)."""
    text = str(x)
    return parse_rational(f"{Decimal(text):f}" if isinstance(x, float) and "e" in text else text)


DIST = _flag(lambda text: dist_from_json(json.loads(text)), required=True)
DISTS = _flag(lambda text: [dist_from_json(obj) for obj in json.loads(text)], required=True)
RATIONAL = _flag(parse_rational, required=True)
RATIONALS = _flag(lambda text: [_json_rational(x) for x in json_list(json.loads(text))],
                  required=True)
PARTITION = _flag(lambda text: jeffrey.Partition.from_json(json.loads(text)), required=True)
#: decoders of JSON text, which a flag may give inline or as the path of a file holding it
JSON_DECODERS = {DIST[1], DISTS[1], RATIONALS[1], PARTITION[1]}
BASE = _flag(lambda text: _sampler().parse_base(text), default="uniform")
INT = _flag(type=int, required=True)

COMMANDS = {
    ("jc", "apply"): Command(
        _jc_apply, {"--prior": DIST, "--partition": PARTITION, "--weights": RATIONALS}),
    ("jc", "rigidity"): Command(
        _jc_rigidity, {"--prior": DIST, "--posterior": DIST, "--partition": PARTITION}),
    ("jc", "coarsest"): Command(_jc_coarsest, {"--prior": DIST, "--posterior": DIST}),
    ("jc", "brute"): Command(_jc_brute, {"--prior": DIST, "--posterior": DIST}),
    ("bs", "test"): Command(_bs_test, {
        "--prior": DIST, "--posterior": DIST, "--horizon": _flag(type=int, default=None)}),
    ("bs", "construct"): Command(
        _bs_construct, {"--priors": DISTS, "--horizon": INT, "--seed": INT},
        ("priors", "horizon", "seed")),
    ("bs", "densify"): Command(
        _bs_densify,
        {"--prior": DIST, "--target": DIST, "--epsilon": RATIONAL, "--seed": INT},
        ("prior", "target", "epsilon")),
    ("bs", "exteriorize"): Command(
        _bs_exteriorize, {"--prior": DIST, "--posterior": DIST, "--epsilon": RATIONAL},
        ("prior", "posterior", "epsilon")),
    ("bs", "multicollide"): Command(
        _bs_multicollide,
        {"--prior": DIST, "--posterior": DIST, "--pairs": INT, "--epsilon": RATIONAL},
        ("prior", "posterior", "pairs", "epsilon")),
    ("bs", "sample"): Command(_bs_sample, {"--seed": INT, "--horizon": INT, "--base": BASE}),
    ("bs", "montecarlo"): Command(_bs_montecarlo, {
        "--prior": DIST, "--trials": INT, "--horizon": INT, "--seed": INT, "--base": BASE,
        "--workers": _flag(type=int, default=1),
        "--format": _flag(choices=["json", "csv"], default="json")}),
    ("dist", "normalize"): Command(_dist_normalize, {"--values": RATIONALS}),
    ("dist", "distance"): Command(_dist_distance, {
        "--u": DIST, "--v": DIST, "--norm": _flag(metrics.parse_norm, default="l1"),
        "--bounded": _flag(action="store_true")}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayesblind",
        description="Jeffrey conditioning and blind-spot analysis toolkit",
    )
    top = parser.add_subparsers(dest="group", required=True)
    groups = {}
    for (group, name), command in COMMANDS.items():
        if group not in groups:
            groups[group] = top.add_parser(group).add_subparsers(dest="cmd", required=True)
        sp = groups[group].add_parser(name)
        for flag, (spec, _) in command.flags.items():
            sp.add_argument(flag, **spec)
        sp.add_argument("--out", default=None, help="write payload to a file")
    return parser


def _decode(args, flags) -> None:
    """Replace each decodable flag's text by its value; ``args.raw`` keeps the
    texts for the certificate, a JSON flag's as read from the file it names."""
    args.raw = dict(vars(args))
    for flag, (_, decode) in flags.items():
        if decode is not None:
            name = flag[2:]
            try:
                if decode in JSON_DECODERS and os.path.isfile(args.raw[name]):
                    with open(args.raw[name], encoding="utf-8") as fh:
                        args.raw[name] = fh.read()
                setattr(args, name, decode(args.raw[name]))
            except DECODE_ERRORS as exc:
                what = "cannot read" if isinstance(exc, OSError) else "malformed"
                raise InputError(f"{what} {flag}: {exc!r}") from exc


def dispatch(argv) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    command = COMMANDS[args.group, args.cmd]
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()  # None before 3.10.7
    try:
        _decode(args, command.flags)  # an input integer over the digit limit exits 2
        if limit is not None:  # an exact result prints at any size
            sys.set_int_max_str_digits(0)
        payload, summary, code = command.handler(args)
    except BayesBlindError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    if isinstance(payload, dict):
        claims = payload.get("certificate", {}).get("claims", ())
        if not all(c["verified"] for c in claims):
            code = EXIT_CLAIM_FAILED
        payload = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        try:
            with open(args.out, "w", newline="") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"error: cannot write --out: {exc}", file=sys.stderr)
            return EXIT_INPUT
    else:
        sys.stdout.write(payload)
    print(summary, file=sys.stderr)
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()

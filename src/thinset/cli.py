"""Command-line front end.

One JSON document per invocation on stdout, diagnostics on stderr.
Exit codes: 0 pass/Member, 1 fail/NotMember, 2 Inconclusive, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from ._exact_text import exact_fraction, exact_int, exact_str
from .convergence import (DEFAULT_DEPTH, WeightRule, classical_convergence,
                          ideal_convergence, nset_partial_sums,
                          weight_ideal_link)
from .core import (CircleRational, DigitExpansion, DomainError, expand,
                   reconstruct, reconstruct_exact)
from .ideals import (Outcome, density_estimate, descriptor_from_json,
                     ideal_member, parse_ideal)
from .sequences import parse_sequence, parse_terms
from .witness import (SequenceNotAbsorbingError, WitnessCertificate,
                      build_and_verify, plan_witness, verify_certificate)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64

_OUTCOME_EXIT = {
    Outcome.MEMBER: EXIT_PASS,
    Outcome.NOT_MEMBER: EXIT_FAIL,
    Outcome.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _emit(doc: dict, path=None) -> None:
    # the whole text first: a document that cannot be written leaves no output;
    # the rows and verdicts of a verify report are written by their to_json
    text = json.dumps(doc, indent=2, default=lambda row: row.to_json())
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    sys.stdout.write(text + "\n")


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return _decode_json(fh.read(), path)
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")


def _decode_json(text: str, where: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise UsageError(f"{where} is not valid JSON: {exc}")


def _parse_set(args):
    if args.json_in:
        return descriptor_from_json(_load_json(args.json_in))
    if args.set is None:
        raise UsageError("need --set SPEC or --json-in FILE")
    return _set_from_spec(args.set)


def _set_from_spec(text: str):
    """Inline set grammar: 'finite:1,2,3', 'progression:start,step',
    'geometric:b', or a JSON tagged union."""
    from .ideals import FiniteSet, Geometric, Progression
    text = text.strip()
    if text.startswith("{"):
        return descriptor_from_json(_decode_json(text, "--set"))
    if text.startswith("finite:"):
        return FiniteSet([exact_int(t) for t in text[7:].split(",") if t.strip()])
    if text.startswith("progression:"):
        start, step = (exact_int(t) for t in text[12:].split(","))
        return Progression(start, step)
    if text.startswith("geometric:"):
        return Geometric(exact_int(text[10:]))
    raise UsageError(f"unrecognized set spec {text!r}")


def _parse_point(args):
    """A point: --x as a rational, or --json-in holding a digit expansion."""
    if getattr(args, "json_in", None):
        return DigitExpansion.from_json(_load_json(args.json_in))
    if args.x is None:
        raise UsageError("need --x RATIONAL or --json-in FILE")
    try:
        return CircleRational.parse(args.x)
    except (ValueError, ZeroDivisionError, DomainError) as exc:
        raise UsageError(f"bad point {args.x!r}: {exc}")


@functools.cache
def build_parser() -> _Parser:
    """The parser, built on first use and kept: parsing leaves it as it was."""
    parser = _Parser(prog="thinset")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="digit expansion of a rational")
    p.add_argument("--x", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--depth", type=int, default=64)

    p = sub.add_parser("reconstruct", help="rational value of a digit expansion")
    p.add_argument("--json-in", required=True)
    p.add_argument("--depth", type=int, default=None)

    p = sub.add_parser("density", help="density estimate of a set")
    p.add_argument("--set")
    p.add_argument("--json-in")
    p.add_argument("--cutoff", type=int, default=DEFAULT_DEPTH)

    p = sub.add_parser("ideal-member", help="three-valued ideal membership")
    p.add_argument("--ideal", required=True)
    p.add_argument("--set")
    p.add_argument("--json-in")

    p = sub.add_parser("converge", help="convergence evidence for ||a_n x|| -> 0")
    p.add_argument("--x")
    p.add_argument("--json-in")
    p.add_argument("--a", required=True)
    p.add_argument("--seq")
    p.add_argument("--ideal")
    p.add_argument("--depth", type=int, default=DEFAULT_DEPTH)
    p.add_argument("--eps", default="1/8")

    p = sub.add_parser("nset", help="weighted summability partial sums")
    p.add_argument("--x")
    p.add_argument("--json-in")
    p.add_argument("--a", required=True)
    p.add_argument("--seq")
    p.add_argument("--weights", default="1/n")
    p.add_argument("--depth", type=int, default=10_000)
    p.add_argument("--ideal", help="also report the weight/ideal link")

    p = sub.add_parser("witness", help="build and verify a witness certificate")
    p.add_argument("tag", choices=["th6", "th1", "th2"])
    p.add_argument("--seq", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--ideal", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--out", help="also write the certificate to this file")

    p = sub.add_parser("verify", help="re-verify a serialized certificate")
    p.add_argument("--json-in", required=True)

    return parser


def run(args) -> int:
    if args.command == "expand":
        seq = parse_sequence(args.seq)
        x = CircleRational.parse(args.x)
        e = expand(x, seq, args.depth)
        doc = e.to_json()
        doc["digit_list"] = [e.digit(n) for n in range(1, args.depth + 1)]
        _emit(doc)
        return EXIT_PASS

    if args.command == "reconstruct":
        e = DigitExpansion.from_json(_load_json(args.json_in))
        if args.depth is not None:
            x = reconstruct(e, args.depth)
        elif e.depth is not None:
            x = reconstruct(e, e.depth)
        else:
            x = reconstruct_exact(e)
        _emit({"x": str(x)})
        return EXIT_PASS

    if args.command == "density":
        s = _parse_set(args)
        est = density_estimate(s, args.cutoff)
        _emit({"cutoff": est.cutoff, "lower": exact_str(est.lower),
               "upper": exact_str(est.upper),
               "exact": None if est.exact is None else exact_str(est.exact)})
        return EXIT_PASS

    if args.command == "ideal-member":
        verdict = ideal_member(parse_ideal(args.ideal), _parse_set(args))
        _emit(verdict.to_json())
        return _OUTCOME_EXIT[verdict.outcome]

    if args.command == "converge":
        seq = parse_sequence(args.seq) if args.seq else None
        terms = parse_terms(args.a, seq)
        x = _parse_point(args)
        eps = exact_fraction(args.eps)
        if args.ideal:
            verdict = ideal_convergence(x, terms, parse_ideal(args.ideal),
                                        args.depth, eps)
            _emit(verdict.to_json())
            return _OUTCOME_EXIT[verdict.outcome]
        report = classical_convergence(x, terms, args.depth, [eps])
        _emit(report.to_json())
        return _OUTCOME_EXIT[report.verdict.outcome]

    if args.command == "nset":
        seq = parse_sequence(args.seq) if args.seq else None
        terms = parse_terms(args.a, seq)
        x = _parse_point(args)
        weights = WeightRule.parse(args.weights)
        report = nset_partial_sums(x, terms, weights, args.depth)
        doc = report.to_json()
        if args.ideal:
            doc["ideal_link"] = weight_ideal_link(
                weights, parse_ideal(args.ideal)).to_json()
        _emit(doc)
        return {"bounded-evidence": EXIT_PASS,
                "divergent-evidence": EXIT_FAIL}.get(report.classification,
                                                     EXIT_INCONCLUSIVE)

    if args.command == "witness":
        seq = parse_sequence(args.seq)
        terms = parse_terms(args.a, seq)
        ideal = parse_ideal(args.ideal)
        plan = plan_witness(args.tag, seq, terms, ideal, args.count)
        cert = build_and_verify(plan)
        _emit(cert.to_json(), args.out)
        return EXIT_PASS if cert.passed else EXIT_FAIL

    if args.command == "verify":
        cert = WitnessCertificate.from_json(_load_json(args.json_in))
        ok, report = verify_certificate(cert)
        _emit(report)
        return EXIT_PASS if ok else EXIT_FAIL     # ok holds only with recomputed_pass

    raise UsageError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return run(args)
    except (UsageError, ValueError, ZeroDivisionError, OSError,
            SequenceNotAbsorbingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())

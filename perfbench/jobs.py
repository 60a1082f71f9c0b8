"""The benchmark's calls into thinset, one job per kind of operation.

Each job has four steps.  `build` turns an operation's spec into library
inputs with thinset's own parsers (set-up).  `run` is the timed operation:
a sequence of calls into the public functions of the layers, each wrapped in
a span.  `expect` derives the oracle's answer from oracle.py alone, once per
operation.  `judge` compares the two outside the timed region and returns
the status ("decided", "undecided" or "failed"), a note, and the canonical
output that goes into the workload digest.
"""

from __future__ import annotations

import io
import json
import math
import os
import sys
from array import array
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import thinset
from thinset import cli
from thinset.ideals import Outcome

import oracle
from gen import DEPTH, IDEALS, chain_family, term_family

EPS = Fraction(1, 8)
EXIT_OF = {"Member": 0, "NotMember": 1, "Inconclusive": 2}


class Ctx:
    """What an operation needs besides its inputs: the span recorder, and a
    scratch directory inside the checkout for CLI certificate files."""

    def __init__(self, rec, workdir: str):
        self.rec = rec
        self.workdir = workdir

    def cli(self, argv: list[str]) -> tuple[int, str]:
        """cli.main in-process, with stdout captured.  cli.main raises the
        process-wide int-to-string limit; it is put back after every call so
        that no later operation depends on it."""
        out = io.StringIO()
        limit = sys.get_int_max_str_digits()
        try:
            with redirect_stdout(out), redirect_stderr(io.StringIO()):
                code = self.rec.call("cli", "main", cli.main, argv)
        finally:
            sys.set_int_max_str_digits(limit)
        return code, out.getvalue()

    def exit_check(self, code: int, expected: int) -> bool:
        if code != expected:
            self.rec.add("cli.exit_mismatch")
            return False
        return True


def _verdict_canon(v) -> tuple:
    return (v.outcome, v.certificate, v.diagnostics)


def _decided(outcome) -> bool:
    return outcome in (Outcome.MEMBER, Outcome.NOT_MEMBER)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

class Verdict:
    """classical_convergence and ideal_convergence on a rational point, then a
    re-check of the returned exceptional set in every catalog ideal."""

    def build(self, op):
        p = op.params
        seq = thinset.parse_sequence(p["seq"]) if p["seq"] else None
        return (thinset.CircleRational.parse(p["x"]),
                thinset.parse_terms(p["terms"], seq),
                thinset.parse_ideal(p["ideal"]),
                [thinset.parse_ideal(i) for i in IDEALS])

    def run(self, op, inp, ctx):
        if op.via_cli:
            return self._run_cli(op, ctx)
        x, terms, ideal, catalog = inp
        rec = ctx.rec
        report = rec.call("convergence", "classical", thinset.classical_convergence,
                          x, terms, DEPTH)
        verdict = rec.call("convergence", "ideal", thinset.ideal_convergence,
                           x, terms, ideal, DEPTH, EPS)
        rec.add("convergence.depth_walked", 2 * DEPTH)
        rec.add("convergence.verdicts", 2)
        rec.add("convergence.decided", _decided(report.verdict.outcome)
                + _decided(verdict.outcome))
        recheck = None
        doc = verdict.diagnostics.get("exceptional_set")
        if doc is not None:
            s = rec.call("ideals", "descriptor_from_json", thinset.descriptor_from_json, doc)
            rec.peak("ideals.union_parts_max", len(getattr(s, "parts", (s,))))
            members = [rec.call("ideals", "ideal_member", thinset.ideal_member, j, s, DEPTH)
                       for j in catalog]
            estimate = rec.call("ideals", "density_estimate", thinset.density_estimate,
                                s, DEPTH)
            recheck = (s, members, estimate)
        return report, verdict, recheck

    def _run_cli(self, op, ctx):
        p = op.params
        argv = ["converge", "--x", p["x"], "--a", p["terms"], "--depth", str(DEPTH),
                "--eps", str(EPS)]
        if p["seq"]:
            argv += ["--seq", p["seq"]]
        return ctx.cli(argv), ctx.cli(argv + ["--ideal", p["ideal"]])

    def expect(self, op):
        p = op.params
        family = term_family(p["terms"], p["seq"])
        num, den = p["num"], p["den"]
        residues = family.residues(num, den, DEPTH)
        nearest = [min(t, den - t) for t in residues]      # ||a_n x|| * den
        stats = {}
        for eps in (Fraction(1, 4), EPS, Fraction(1, 16), Fraction(1, 64)):
            hits = [n for n in range(1, DEPTH + 1)
                    if nearest[n] * eps.denominator >= eps.numerator * den]
            stats[eps] = (len(hits), hits[-1] if hits else None)
        first = family.first_divisible(den)
        cycle = None
        if first is None and p["group"] != "beyond-cap":
            cycle = oracle.residue_cycle(family, num, den, p["foreign"])
        return {"member": first is not None, "first": first, "cycle": cycle,
                "stats": stats,
                # only a non-member's exceptional set is checked against these
                "nearest": None if first else array("l", nearest)}

    def _check_verdict(self, v, exp) -> str | None:
        diag = v.diagnostics
        if v.outcome is Outcome.MEMBER:
            if not exp["member"]:
                return "Member contradicts the oracle"
            if "zero_from" in diag and diag["zero_from"] != exp["first"]:
                return "zero_from disagrees"
        elif v.outcome is Outcome.NOT_MEMBER:
            if exp["member"]:
                return "NotMember contradicts the oracle"
            cycle = exp["cycle"]
            if cycle is not None and (
                    diag.get("period", cycle.period) != cycle.period
                    or diag.get("recurring_norm", cycle.peak) != cycle.peak):
                return "residue cycle disagrees"
        if "exceptional_count" in diag and diag["exceptional_count"] != exp["stats"][EPS][0]:
            return "exceptional count disagrees"
        return None

    def judge(self, op, out, exp, ctx):
        if op.via_cli:
            return self._judge_cli(op, out, exp, ctx)
        report, verdict, recheck = out
        for s in report.stats:
            if (s.exceptional_count, s.last_exceptional) != exp["stats"][s.eps]:
                return "failed", f"eps {s.eps} stats disagree", None
        for v in (report.verdict, verdict):
            reason = self._check_verdict(v, exp)
            if reason:
                return "failed", reason, None
        if verdict.outcome is Outcome.NOT_MEMBER:
            if recheck is None:
                return "failed", "NotMember without an exceptional set", None
            s, members, estimate = recheck
            floor = verdict.diagnostics.get("witness_eps", EPS)
            for n in s.iter_members():
                if n > DEPTH:
                    break
                if Fraction(exp["nearest"][n], op.params["den"]) < floor:
                    return "failed", f"exceptional set holds n={n} below its eps", None
            if any(m.outcome is not Outcome.NOT_MEMBER for m in members):
                return "failed", "exceptional set re-check disagrees", None
            if estimate.exact is not None and estimate.exact <= 0:
                return "failed", "exceptional set density disagrees", None
            recheck = (s.to_json(), [_verdict_canon(m) for m in members],
                       (estimate.lower, estimate.upper, estimate.exact))
        canon = (_verdict_canon(report.verdict), [(s.eps, s.exceptional_count,
                 s.last_exceptional) for s in report.stats], _verdict_canon(verdict),
                 recheck)
        both = _decided(report.verdict.outcome) and _decided(verdict.outcome)
        return ("decided" if both else "undecided"), op.params["group"], canon

    def _judge_cli(self, op, out, exp, ctx):
        (code_c, text_c), (code_i, text_i) = out
        classical, ideal = json.loads(text_c), json.loads(text_i)
        outcomes = (classical["verdict"]["outcome"], ideal["outcome"])
        exits_ok = (ctx.exit_check(code_c, EXIT_OF[outcomes[0]])
                    and ctx.exit_check(code_i, EXIT_OF[outcomes[1]]))
        if not exits_ok:
            return "failed", "exit code disagrees with the document", None
        stat = classical["stats"][0]
        if (stat["exceptional_count"], stat["last_exceptional"]) != exp["stats"][EPS]:
            return "failed", "eps 1/8 stats disagree", None
        for outcome, doc in zip(outcomes, (classical["verdict"], ideal)):
            zero_from = doc["diagnostics"].get("zero_from", str(exp["first"]))
            if outcome == "Member" and (not exp["member"] or zero_from != str(exp["first"])):
                return "failed", "Member contradicts the oracle", None
            if outcome == "NotMember" and exp["member"]:
                return "failed", "NotMember contradicts the oracle", None
        decided = all(o != "Inconclusive" for o in outcomes)
        return ("decided" if decided else "undecided"), op.params["group"], (classical, ideal)


# ---------------------------------------------------------------------------
# deep-exact
# ---------------------------------------------------------------------------

def _digits_value(family, digits: dict, K: int) -> int:
    """sum c_n * u_K / u_n, by Horner's rule over the ratios."""
    total = 0
    for n in range(1, K + 1):
        total = total * family.ratio(n) + digits.get(n, 0)
    return total


class Roundtrip:
    """u_K, expand and reconstruct of a rational point over a chain."""

    def build(self, op):
        p = op.params
        return (thinset.parse_sequence(p["seq"]),
                thinset.CircleRational(p["num"], p["den"]))

    def run(self, op, inp, ctx):
        seq, x = inp
        K = op.params["K"]
        rec = ctx.rec
        uK = rec.call("sequences", "u", seq.u, K)
        rec.peak("sequences.max_bits", uK.bit_length())
        e = rec.call("core", "expand", thinset.expand, x, seq, K)
        rec.add("core.digits", K)
        xr = rec.call("core", "reconstruct", thinset.reconstruct, e, K)
        return uK, e, xr

    def expect(self, op):
        p = op.params
        uK = chain_family(p["seq"]).term(p["K"])
        return {"uK": uK, "N": p["num"] * uK // p["den"]}

    def judge(self, op, out, exp, ctx):
        uK, e, xr = out
        p = op.params
        if uK != exp["uK"]:
            return "failed", "u_K disagrees", None
        value = Fraction(_digits_value(chain_family(p["seq"]), e.digits, p["K"]), uK)
        if value != xr.frac():
            return "failed", "reconstruct disagrees with the digits", None
        if value != Fraction(exp["N"], uK):
            return "failed", "digits are not the greedy expansion", None
        if uK % p["den"] == 0 and xr.frac() != Fraction(p["num"], p["den"]):
            return "failed", "terminating round trip is not exact", None
        return "decided", "exact", (uK, e.digits, xr.num, xr.den)


class TruncClassical:
    """Enclosure evidence of classical_convergence on a truncated expansion."""

    def build(self, op):
        p = op.params
        seq = thinset.parse_sequence(p["seq"])
        return (seq, thinset.parse_terms("u_n", seq),
                thinset.CircleRational(p["num"], p["den"]))

    def run(self, op, inp, ctx):
        seq, terms, x = inp
        K = op.params["K"]
        rec = ctx.rec
        e = rec.call("core", "expand", thinset.expand, x, seq, K)
        rec.add("core.digits", K)
        uK = rec.call("sequences", "u", seq.u, K)
        rec.peak("sequences.max_bits", uK.bit_length())
        report = rec.call("convergence", "classical", thinset.classical_convergence,
                          e, terms, DEPTH)
        rec.add("convergence.verdicts")
        rec.add("convergence.decided", _decided(report.verdict.outcome))
        return uK, report

    def expect(self, op):
        p = op.params
        family = chain_family(p["seq"])
        residues = family.residues(p["num"], p["den"], p["K"])
        uK = family.term(p["K"])
        # the enclosure walk stops at the first n with a_n / u_K >= 1/2
        walked = next(n for n in range(1, DEPTH + 2)
                      if n > DEPTH or 2 * family.term(n) >= uK) - 1
        return {"uK": uK, "walked": walked,
                "norms": [None] + [oracle.norm(t, p["den"]) for t in residues[1:]]}

    def judge(self, op, out, exp, ctx):
        uK, report = out
        ctx.rec.add("convergence.depth_walked", exp["walked"])
        if uK != exp["uK"]:
            return "failed", "u_K disagrees", None
        if report.verdict.outcome is not Outcome.INCONCLUSIVE:
            return "failed", "a truncation cannot certify a verdict", None
        norms = exp["norms"]
        for s in report.stats:
            true_count = sum(1 for v in norms[1:] if v >= s.eps)
            last = s.last_exceptional
            if s.exceptional_count > true_count or (
                    last is not None and (last >= len(norms) or norms[last] < s.eps)):
                return "failed", f"definite exceedance at eps {s.eps} is false", None
        canon = [(s.eps, s.exceptional_count, s.last_exceptional) for s in report.stats]
        return "undecided", "truncation", canon


class Nset:
    """nset_partial_sums, then to_json and json.dumps as a library user
    would call them, under the interpreter's default digit limit."""

    def build(self, op):
        p = op.params
        return (thinset.CircleRational(p["num"], p["den"]),
                thinset.parse_terms(p["terms"]),
                thinset.WeightRule.parse(p["weights"]))

    def run(self, op, inp, ctx):
        x, terms, weights = inp
        depth = op.params["depth"]
        rec = ctx.rec
        report = rec.call("convergence", "nset", thinset.nset_partial_sums,
                          x, terms, weights, depth)
        rec.add("convergence.depth_walked", depth)
        try:
            doc = rec.call("convergence", "nset_to_json", report.to_json)
        except ValueError as exc:
            if "integer string conversion" not in str(exc):
                raise
            return report, None
        return report, json.dumps(doc)

    def expect(self, op):
        p = op.params
        exponent = {"1": 0, "1/n": 1, "1/n^2": 2}[p["weights"]]
        marks = oracle.nset_marks(p["depth"])
        sums = oracle.weighted_norm_sums(term_family(p["terms"], None), p["num"],
                                         p["den"], exponent, marks)
        return {"sums": sums,
                "overflow": oracle.nset_report_overflows(sums, p["depth"],
                                                         oracle.int_digit_limit())}

    def judge(self, op, out, exp, ctx):
        report, text = out
        sums = exp["sums"]
        depth = op.params["depth"]
        if report.norm_sum != sums[depth]:
            return "failed", "norm_sum disagrees with the closed form", None
        if dict(report.checkpoints) != sums:
            return "failed", "checkpoints disagree with the closed form", None
        canon = (report.norm_sum, report.checkpoints, report.classification)
        if text is None:
            if not exp["overflow"]:
                return "failed", "to_json refused a report within the digit limit", None
            return "undecided", "digit-limit", canon
        doc = json.loads(text)
        if oracle.parse_fraction(doc["norm_sum"]) != sums[depth]:
            return "failed", "serialized norm_sum disagrees", None
        if {n: oracle.parse_fraction(v) for n, v in doc["checkpoints"]} != sums:
            return "failed", "serialized checkpoints disagree", None
        return "decided", "exact", canon


class Th6Point:
    """ideal_convergence on the point of a th6 certificate, stored as the
    certificate stores it: a finitely supported dyadic expansion, whose exact
    value has a denominator of up to 131k bits."""

    def build(self, op):
        p = op.params
        point = thinset.DigitExpansion(thinset.parse_sequence("dyadic"),
                                       {k + 1: 1 for k in p["ks"]})
        return point, thinset.parse_terms(p["terms"]), thinset.parse_ideal(p["ideal"])

    def run(self, op, inp, ctx):
        x, terms, ideal = inp
        rec = ctx.rec
        verdict = rec.call("convergence", "ideal", thinset.ideal_convergence,
                           x, terms, ideal, DEPTH, EPS)
        rec.add("convergence.depth_walked", DEPTH)
        rec.add("convergence.verdicts")
        rec.add("convergence.decided", _decided(verdict.outcome))
        return verdict

    def expect(self, op):
        # x = odd / 2**(k_top + 1), so 3 * 2**n * x is an integer from n = k_top + 1 on
        return {"first": op.params["ks"][-1] + 1}

    def judge(self, op, out, exp, ctx):
        if out.outcome is not Outcome.MEMBER:
            return "failed", f"{out.outcome.value} for a dyadic point", None
        if out.diagnostics.get("zero_from") != exp["first"]:
            return "failed", "zero_from disagrees", None
        return "decided", "terminating", _verdict_canon(out)


# ---------------------------------------------------------------------------
# certify
# ---------------------------------------------------------------------------

def _rederive(plan_doc: dict, seq_spec: str, terms_spec: str) -> str | None:
    """Re-derive u_k * v = a_n for every planned index from (terms, n) alone,
    scale-free, and check the digit pivot and the witness-set rules.
    Returns a reason on failure."""
    tag = plan_doc["tag"]
    chain = chain_family(seq_spec)
    family = term_family(terms_spec, seq_spec)
    for p in plan_doc["indices"]:
        i, n, k, v, digit = p["i"], p["n"], p["k"], int(p["v"]), int(p["digit"])
        q = chain.ratio(k + 1)
        if v % q == 0:
            return f"index {i}: q_(k+1) divides v"
        if family.kind == "pow":
            c, j = family.scale, 0
            while c % family.base == 0:
                c //= family.base
                j += 1
            if (c, n + j) != (v, k):
                return f"index {i}: u_k*v != a_n"
        else:
            if k > n or v != math.prod(chain.ratio(r) for r in range(k + 1, n + 1)):
                return f"index {i}: u_k*v != a_n"
        if tag == "th2":
            if digit != 1:
                return f"index {i}: th2 digit is not 1"
            continue
        if not (1 <= digit < q and Fraction(1, 4) <= Fraction(digit * v % q, q) <= Fraction(3, 4)):
            return f"index {i}: digit pivot outside [1/4, 3/4]"
        if k < 2 or k & (k - 1):
            return f"index {i}: k outside the witness set"
        if tag == "th1" and k < 2 ** i:
            return f"index {i}: k below 2^i"
    return None


class Certificate:
    """plan_witness -> build_and_verify -> to_json/dumps -> loads/from_json ->
    verify_certificate; or the same through `thinset witness --out` and
    `thinset verify --json-in`."""

    def build(self, op):
        p = op.params
        seq = thinset.parse_sequence(p["seq"])
        return seq, thinset.parse_terms(p["terms"], seq), thinset.parse_ideal(p["ideal"])

    def run(self, op, inp, ctx):
        p = op.params
        rec = ctx.rec
        if op.via_cli:
            path = os.path.join(ctx.workdir, f"cert-{op.index}.json")
            made = ctx.cli(["witness", p["tag"], "--seq", p["seq"], "--a", p["terms"],
                            "--ideal", p["ideal"], "--count", str(p["count"]),
                            "--out", path])
            checked = ctx.cli(["verify", "--json-in", path])
            with open(path) as fh:
                stored = fh.read()
            os.remove(path)
            return made, checked, stored
        seq, terms, ideal = inp
        try:
            plan = rec.call("witness", "plan", thinset.plan_witness,
                            p["tag"], seq, terms, ideal, p["count"])
        except thinset.SequenceNotAbsorbingError:
            rec.add("witness.refusals")
            return None
        rec.add("witness.terms_scanned", plan.growth_log[-1]["n"])
        cert = rec.call("witness", "build", thinset.build_and_verify, plan)
        text, back = rec.call("witness", "serialize", _round_trip, cert)
        rec.add("witness.cert_bytes", len(text))
        ok, report = rec.call("witness", "verify", thinset.verify_certificate, back)
        return cert, text, ok, report

    def expect(self, op):
        return None

    def judge(self, op, out, exp, ctx):
        p = op.params
        if op.via_cli:
            return self._judge_cli(op, out, ctx)
        if out is None:
            return "undecided", "refused", None
        cert, text, ok, report = out
        if not cert.passed:
            return "failed", "certificate does not pass", None
        if not (ok and report["recomputed_pass"]):
            return "failed", "certificate does not verify", None
        again = json.dumps(thinset.WitnessCertificate.from_json(json.loads(text)).to_json())
        if again != text:
            return "failed", "JSON round trip is not byte-identical", None
        reason = _rederive(json.loads(text)["plan"], p["seq"], p["terms"])
        if reason:
            return "failed", reason, None
        return "decided", "verified", text

    def _judge_cli(self, op, out, ctx):
        (code_w, text_w), (code_v, text_v), stored = out
        doc, report = json.loads(text_w), json.loads(text_v)
        verified = report["ok"] and report["recomputed_pass"]
        if not (ctx.exit_check(code_w, 0 if doc["pass"] else 1)
                and ctx.exit_check(code_v, 0 if verified else 1)):
            return "failed", "exit code disagrees with the document", None
        if not (doc["pass"] and verified):
            return "failed", "certificate does not pass and verify", None
        stored_doc = json.loads(stored)
        again = json.dumps(thinset.WitnessCertificate.from_json(stored_doc).to_json(), indent=2)
        if again != stored:
            return "failed", "JSON round trip is not byte-identical", None
        reason = _rederive(stored_doc["plan"], op.params["seq"], op.params["terms"])
        if reason:
            return "failed", reason, None
        return "decided", "verified", json.dumps(stored_doc)


def _round_trip(cert):
    text = json.dumps(cert.to_json())
    return text, thinset.WitnessCertificate.from_json(json.loads(text))


JOBS = {"verdict": Verdict(), "roundtrip": Roundtrip(), "trunc-classical": TruncClassical(),
        "nset": Nset(), "th6-point": Th6Point(), "certificate": Certificate()}

"""Regression fixtures: certificates and convergence reports pinned as JSON.

`tests/fixtures/regression.json` holds the documents these cases produced
before the enclosure kernel was unified and before block bounds were dyadic:
full certificate documents, which store the derived digits, checks, support
and exact block sums besides the claims, and a plan that also stores its
growth_log, its witness_set and each index's l, l_prime and m.  A fresh
certificate writes only the claims (theorem, plan and `pass`), which must
equal the stored ones with those plan keys dropped; the
derived fields that the reference walk (`enclosure_reference`) gives must
equal the stored ones too.  The one exception is the upper bound of th2
blocks on bases other than 2, which a kernel before the unification stored
wider; it may only exceed the reference's.  Every stored certificate still
verifies, as its claims, and the stored checks and blocks lie within the
lemma rows of its verify report.

Rewrite the fixtures (only on purpose; a rewrite stores dyadic bounds and
so loses the old-format corpus) with

    PYTHONPATH=src python tests/test_regression_fixtures.py
"""

import json
import pathlib
from fractions import Fraction

import pytest

from full_certificate import full_document

from thinset.convergence import classical_convergence, ideal_convergence
from thinset.core import CircleRational, DigitExpansion, expand
from thinset.ideals import parse_ideal
from thinset.sequences import ExplicitTerms, parse_sequence, parse_terms
from thinset.witness import (WitnessCertificate, build_and_verify, plan_witness,
                             verify_certificate)

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "regression.json"

# (tag, sequence, terms, ideal, count)
CERT_CASES = [
    ("th6", "dyadic", "3*2^n", "density", 8),
    ("th6", "factorial", "n!", "density", 6),
    ("th6", "[2,3,5]", "u_n", "summable", 8),
    ("th1", "dyadic", "3*2^n", "summable", 6),
    ("th2", "geometric:2", "5*2^n", "density", 8),
    ("th2", "geometric:3", "2*3^n", "density", 8),
    ("th2", "geometric:3", "7*3^n", "summable", 6),
]

EPS_GRID = ["1/4", "1/8", "1/64"]
EXPLICIT = [3, 5, 12, 40, 96, 250, 700, 1800, 5000, 11111]

# (sequence, x, truncation K or None for the exact point, terms)
CONVERGENCE_CASES = [
    ("dyadic", "5/7", 60, "u_n"),
    ("dyadic", "5/7", 60, "3*2^n"),
    ("dyadic", "1/3", 40, "explicit"),
    ("factorial", "3/11", 25, "u_n"),
    ("factorial", "3/11", 25, "3*2^n"),
    ("factorial", "1/13", 20, "explicit"),
    ("[2,3,5]", "7/19", 50, "u_n"),
    ("[2,3,5]", "7/19", 50, "2^n"),
    ("[2,3,5]", "2/23", 45, "explicit"),
    ("geometric:3", "1/5", 40, "u_n"),
    ("geometric:3", "1/5", 40, "2*3^n"),
    ("geometric:3", "4/7", 30, "explicit"),
    ("dyadic", "5/7", None, "3*2^n"),
    ("[2,3,5]", "7/30", None, "u_n"),
    ("geometric:3", "4/7", None, "explicit"),
]


def _cert(case):
    tag, seq, terms, ideal, count = case
    s = parse_sequence(seq)
    return build_and_verify(plan_witness(tag, s, parse_terms(terms, s),
                                         parse_ideal(ideal), count))


def _convergence_docs(case):
    seq, x, K, terms = case
    s = parse_sequence(seq)
    point = CircleRational.parse(x) if K is None else expand(CircleRational.parse(x), s, K)
    a = ExplicitTerms(EXPLICIT) if terms == "explicit" else parse_terms(terms, s)
    depth = len(EXPLICIT) if terms == "explicit" else 300
    grid = [Fraction(e) for e in EPS_GRID]
    docs = {"classical": classical_convergence(point, a, depth, grid).to_json()}
    for ideal in ("density", "summable"):
        docs[f"ideal {ideal} eps=1/8"] = ideal_convergence(
            point, a, parse_ideal(ideal), depth, Fraction(1, 8)).to_json()
    return docs


def write_fixtures():
    doc = {"certificates": [{"case": list(c), "doc": full_document(_cert(c))}
                            for c in CERT_CASES],
           "convergence": [{"case": list(c), "docs": _convergence_docs(c)}
                           for c in CONVERGENCE_CASES]}
    FIXTURES.parent.mkdir(exist_ok=True)
    FIXTURES.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def stored():
    return json.loads(FIXTURES.read_text())


def _assert_blocks_agree(fresh_blocks, old_blocks, wider_upper: bool):
    assert len(fresh_blocks) == len(old_blocks)
    fixed = ("index", "from", "to", "majorant", "pass", "lower_bound")
    for b_new, b_old in zip(fresh_blocks, old_blocks):
        assert [b_new[f] for f in fixed] == [b_old[f] for f in fixed]
        hi_new, hi_old = Fraction(b_new["upper_bound"]), Fraction(b_old["upper_bound"])
        assert hi_new <= hi_old if wider_upper else hi_new == hi_old


def _assert_within_rows(old, report):
    """The stored checks and blocks lie within the report's lemma rows."""
    assert [c["i"] for c in old["checks"]] == [r.i for r in report["checks"]]
    for check, row in zip(old["checks"], report["checks"]):
        q, pivot = row.q, row.pivot
        assert check["pass"] and row.passed
        if row.th2:
            floor = Fraction(q * min(pivot, q - pivot) - 1, q * q)
            assert Fraction(check["norm_interval"][0]) > floor
        else:
            lo, hi = map(Fraction, check["interval"])
            assert Fraction(pivot, q) <= lo and hi <= Fraction(pivot, q) + Fraction(1, 8)
    assert len(old["blocks"]) == len(report["blocks"])
    for block, row in zip(old["blocks"], report["blocks"]):
        assert (block["index"], block["from"], block["to"]) == (row.index, row.j_from, row.j_to)
        assert block["pass"] and row.passed
        assert Fraction(block["upper_bound"]) <= Fraction(block["majorant"]) == row.majorant


@pytest.mark.parametrize("case", CERT_CASES, ids=lambda c: "-".join(map(str, c)))
def test_certificate_matches_fixture(case, stored):
    old = next(e["doc"] for e in stored["certificates"] if e["case"] == list(case))
    cert = _cert(case)
    # certificates no longer write growth_log, witness_set, nor l, l_prime
    # and m per index; the stored ones keep them
    plan = {k: v for k, v in old["plan"].items() if k not in ("growth_log", "witness_set")}
    plan["indices"] = [{k: v for k, v in p.items() if k not in ("l", "l_prime", "m")}
                       for p in plan["indices"]]
    assert cert.to_json() == {"theorem": old["theorem"], "plan": plan, "pass": old["pass"]}
    derived = full_document(cert)
    for key in ("digits", "checks", "support"):
        assert derived[key] == old[key], key
    base = parse_sequence(case[1]).geometric_base
    _assert_blocks_agree(derived["blocks"], old["blocks"], case[0] == "th2" and base != 2)
    ok, report = verify_certificate(WitnessCertificate.from_json(old))
    assert ok and report["recomputed_pass"], report
    _assert_within_rows(old, report)


@pytest.mark.parametrize("case", CONVERGENCE_CASES,
                         ids=lambda c: "-".join(map(str, c)))
def test_convergence_matches_fixture(case, stored):
    old = next(e["docs"] for e in stored["convergence"] if e["case"] == list(case))
    assert _convergence_docs(case) == old


if __name__ == "__main__":
    write_fixtures()

"""Regression fixtures: certificates and convergence reports pinned as JSON.

`tests/fixtures/regression.json` holds the documents these cases produced
before the enclosure kernel was unified.  Every document must come back
byte-identical, except th2 blocks on bases other than 2, whose bounds may
only tighten: each recomputed block lies inside the stored one with the same
`pass` flag, and the stored certificate still verifies.

Rewrite the fixtures (only on purpose) with

    PYTHONPATH=src python tests/test_regression_fixtures.py
"""

import json
import pathlib
from fractions import Fraction

import pytest

from thinset.convergence import classical_convergence, ideal_convergence
from thinset.core import CircleRational, DigitExpansion, expand
from thinset.ideals import parse_ideal
from thinset.sequences import ExplicitTerms, parse_sequence, parse_terms
from thinset.witness import (WitnessCertificate, build_and_verify,
                             plan_witness, verify_certificate)

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

EPS_GRID = ["1/4", "1/8", "1/64", "0"]
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


def _cert_doc(case):
    tag, seq, terms, ideal, count = case
    s = parse_sequence(seq)
    plan = plan_witness(tag, s, parse_terms(terms, s), parse_ideal(ideal), count)
    return build_and_verify(plan).to_json()


def _convergence_docs(case):
    seq, x, K, terms = case
    s = parse_sequence(seq)
    point = CircleRational.parse(x) if K is None else expand(CircleRational.parse(x), s, K)
    a = ExplicitTerms(EXPLICIT) if terms == "explicit" else parse_terms(terms, s)
    depth = len(EXPLICIT) if terms == "explicit" else 300
    grid = [Fraction(e) for e in EPS_GRID]
    docs = {"classical": classical_convergence(point, a, depth, grid).to_json()}
    for eps in ("1/8", "0"):
        for ideal in ("density", "summable"):
            docs[f"ideal {ideal} eps={eps}"] = ideal_convergence(
                point, a, parse_ideal(ideal), depth, Fraction(eps)).to_json()
    return docs


def write_fixtures():
    doc = {"certificates": [{"case": list(c), "doc": _cert_doc(c)} for c in CERT_CASES],
           "convergence": [{"case": list(c), "docs": _convergence_docs(c)}
                           for c in CONVERGENCE_CASES]}
    FIXTURES.parent.mkdir(exist_ok=True)
    FIXTURES.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def stored():
    return json.loads(FIXTURES.read_text())


def _within(fresh: dict, old: dict) -> bool:
    return (Fraction(old["lower_bound"]) <= Fraction(fresh["lower_bound"])
            <= Fraction(fresh["upper_bound"]) <= Fraction(old["upper_bound"]))


@pytest.mark.parametrize("case", CERT_CASES, ids=lambda c: "-".join(map(str, c)))
def test_certificate_matches_fixture(case, stored):
    old = next(e["doc"] for e in stored["certificates"] if e["case"] == list(case))
    fresh = _cert_doc(case)
    base = parse_sequence(case[1]).geometric_base
    if case[0] == "th2" and base != 2:
        old_blocks, fresh_blocks = old.pop("blocks"), fresh.pop("blocks")
        assert len(fresh_blocks) == len(old_blocks)
        for b_new, b_old in zip(fresh_blocks, old_blocks):
            fixed = ("index", "from", "to", "majorant", "pass")
            assert [b_new[f] for f in fixed] == [b_old[f] for f in fixed]
            assert _within(b_new, b_old)
        old["blocks"] = old_blocks
    else:
        assert fresh == old
    ok, report = verify_certificate(WitnessCertificate.from_json(old))
    assert ok and report["recomputed_pass"], report


@pytest.mark.parametrize("case", CONVERGENCE_CASES,
                         ids=lambda c: "-".join(map(str, c)))
def test_convergence_matches_fixture(case, stored):
    old = next(e["docs"] for e in stored["convergence"] if e["case"] == list(case))
    assert _convergence_docs(case) == old


if __name__ == "__main__":
    write_fixtures()

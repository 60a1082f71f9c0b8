import contextlib
import functools
import io
import itertools
import json
import math
import pathlib
import re
import signal
import tempfile
import time
from dataclasses import fields
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import enclosure_reference
from full_certificate import full_document
from json_mutation import DELETE, VALUES, json_paths, mutate
from thinset import cli, convergence, core, ideals, sequences, witness
from thinset._exact_text import exact_fraction
from thinset.ideals import IdealDescriptor, Outcome, non_snt_witness
from thinset.sequences import (ArithmeticSequence, ArithmeticTerms, ExplicitTerms,
                               ScaledGeometric, parse_sequence, parse_terms)
from thinset.witness import (CertificateFormatError, SequenceNotAbsorbingError,
                             UnsupportedIdealError, WitnessCertificate,
                             build_and_verify, decompose, digit_choice,
                             plan_witness, verify_certificate)

DENSITY = IdealDescriptor.density()
SUMMABLE = IdealDescriptor.summable()


def within_band(parts):
    """A reference arc's parts inside [1/4, 7/8]."""
    return all(Fraction(1, 4) <= lo and hi <= Fraction(7, 8) for lo, hi in parts)


def report_rows(plan):
    """(checks, blocks, support) of the verify report of the plan's
    certificate, once the reference enclosures are seen to lie within them."""
    ok, report = verify_certificate(build_and_verify(plan))
    assert ok and enclosure_reference.within_rows(plan, report["checks"], report["blocks"])
    return report["checks"], report["blocks"], report["support"]


def reference_arcs(plan):
    """(p, arc) per planned index p: the reference walk's arc of {a_n x}."""
    return [(p, enclosure_reference.arc(head, p.v, P))
            for p, head, P in enclosure_reference.index_heads(plan)]


class TestDecompose:
    def test_examples(self):
        dyadic = ArithmeticSequence.dyadic()
        assert (decompose(dyadic, 24).k, decompose(dyadic, 24).v) == (3, 3)
        assert (decompose(dyadic, 7).k, decompose(dyadic, 7).v) == (0, 7)
        fact = ArithmeticSequence.factorial()
        d = decompose(fact, 12)
        assert (d.k, d.v) == (3, 2)
        assert 2 % fact.q(4) != 0

    def test_oracle_small(self):
        seq = ArithmeticSequence.dyadic()
        for a in range(1, 300):
            d = decompose(seq, a)
            best = max(k for k in range(0, 12) if a % seq.u(k) == 0)
            assert d.k == best and d.v * seq.u(d.k) == a

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            decompose(ArithmeticSequence.dyadic(), 0)


class TestDigitChoice:
    def test_examples(self):
        # (q, v, c) with l = v mod q and m = 2*min(l, q - l): c = q // m
        for q, v, c in [(8, 3, 1), (2, 7, 1), (8, 5, 1), (8, 1, 4), (16, 3, 2), (10, 13, 1)]:
            assert digit_choice(q, v) == c

    def test_divisible_rejected(self):
        with pytest.raises(ValueError):
            digit_choice(8, 16)

    def test_pivot_band_sample(self):
        for q in (2, 3, 5, 9, 64):
            for v in range(1, q):
                c = digit_choice(q, v)
                pivot = Fraction(c * v % q, q)
                assert Fraction(1, 4) <= pivot <= Fraction(3, 4)
                assert 1 <= c < q


class TestPlanning:
    def test_th6_unit_cofactor(self):
        plan = plan_witness("th6", ArithmeticSequence.dyadic(),
                            ScaledGeometric(1, 2), DENSITY, 4)
        assert all(p.v == 1 and p.digit == 1 for p in plan.indices)
        assert [p.k for p in plan.indices] == [2, 8, 16, 32]
        assert plan.closing_k == 64

    def test_th6_gap_constraint(self):
        seq = ArithmeticSequence.dyadic()
        plan = plan_witness("th6", seq, ScaledGeometric(3, 2), DENSITY, 8)
        for prev, cur in zip(plan.indices, plan.indices[1:]):
            a_prev = seq.u(prev.k) * prev.v
            assert seq.u(cur.k) >= 8 * a_prev
        # witness-set membership: every k is a power of two
        assert all(p.k & (p.k - 1) == 0 for p in plan.indices)

    def test_th1_schedule(self):
        plan = plan_witness("th1", ArithmeticSequence.dyadic(),
                            ScaledGeometric(3, 2), SUMMABLE, 6)
        for p in plan.indices:
            assert p.k >= 2 ** p.i

    def test_th2_gap_constraint(self):
        plan = plan_witness("th2", ArithmeticSequence.geometric(3),
                            ScaledGeometric(2, 3), DENSITY, 6)
        for prev, cur in zip(plan.indices, plan.indices[1:]):
            assert cur.k >= prev.k + (2 * prev.n + 1) * prev.v
        assert all(p.digit == 1 for p in plan.indices)

    def test_fin_rejected(self):
        with pytest.raises(UnsupportedIdealError):
            plan_witness("th6", ArithmeticSequence.dyadic(),
                         ScaledGeometric(1, 2), IdealDescriptor.fin(), 2)

    def test_bounded_chain_index_detected(self):
        # a_n = 3*5^n never gains dyadic factors: k_n stays 0
        with pytest.raises(SequenceNotAbsorbingError):
            plan_witness("th6", ArithmeticSequence.dyadic(),
                         ScaledGeometric(3, 5), DENSITY, 2)

    @pytest.mark.parametrize("seq", [ArithmeticSequence.factorial(),
                                     ArithmeticSequence.from_ratios([2, 3, 5])])
    def test_bounded_walk_refused_by_proof(self, seq):
        # 3*2^n: 5 never divides a_n, so k_n <= 4 over n! and <= 2 over
        # [2,3,5]; the valuation walk proves it before any term is walked
        start = time.perf_counter()
        with pytest.raises(SequenceNotAbsorbingError, match="divides no term"):
            plan_witness("th6", seq, ScaledGeometric(3, 2), DENSITY, 2)
        assert time.perf_counter() - start < 0.5

    def test_quasi_linear_refusal_by_proof(self):
        # 2*12^n over dyadic: k_n = 1 + 2n grows but is never a power of two;
        # the residues of k_n and of W's members mod 2 prove it, at once
        start = time.perf_counter()
        with pytest.raises(SequenceNotAbsorbingError, match="witness set") as info:
            plan_witness("th6", ArithmeticSequence.dyadic(),
                         ScaledGeometric(2, 12), DENSITY, 3)
        assert time.perf_counter() - start < 0.01
        assert "window" not in str(info.value)

    def test_cofactor_bound_refusal(self):
        # th2 6^n over dyadic: k_n = n and v_n = 3^n, so the third index is
        # n = 10 + 21*3^10, whose cofactor bound 2*n bits passes
        # _COFACTOR_BITS; arithmetic finds it and refuses before forming v_n
        start = time.perf_counter()
        with pytest.raises(SequenceNotAbsorbingError,
                           match=r"n=1240039, .* more than _COFACTOR_BITS = 2097152"):
            plan_witness("th2", ArithmeticSequence.dyadic(),
                         ScaledGeometric(1, 6), DENSITY, 4)
        assert time.perf_counter() - start < 1
        # the second index is n = 10, with v_n = 3^10 bounded by 20 bits: a
        # bound of 20 admits it and one of 19 does not
        with mock.patch.object(witness, "_COFACTOR_BITS", 20):
            plan = plan_witness("th2", ArithmeticSequence.dyadic(),
                                ScaledGeometric(1, 6), DENSITY, 1)
            assert [p["n"] for p in plan.growth_log] == [1, 10]
        with mock.patch.object(witness, "_COFACTOR_BITS", 19), \
                pytest.raises(SequenceNotAbsorbingError, match="n=10, .* up to 20 bits"):
            plan_witness("th2", ArithmeticSequence.dyadic(), ScaledGeometric(1, 6), DENSITY, 1)

    def test_cut_keeps_the_period_check(self):
        # 5 = q_2 bounds k_n below 2 for 3*2^n, yet q_3 = 1 of the period is
        # refused first, when the chain is built; with q_3 = 3 the cut
        # refuses the request
        with pytest.raises(ValueError, match="q_3 must be >= 2, got 1"):
            ArithmeticSequence.from_ratios([2, 5, 1])
        with pytest.raises(SequenceNotAbsorbingError, match="every chain index k_n is below 2"):
            plan_witness("th6", ArithmeticSequence.from_ratios([2, 5, 3]),
                         ScaledGeometric(3, 2), DENSITY, 2)

    def test_unknown_tag(self):
        with pytest.raises(ValueError):
            plan_witness("th9", ArithmeticSequence.dyadic(),
                         ScaledGeometric(1, 2), DENSITY, 1)

    def test_plan_json_round_trip(self):
        plan = plan_witness("th6", ArithmeticSequence.dyadic(),
                            ScaledGeometric(3, 2), DENSITY, 3)
        back = plan.__class__.from_json(json.loads(json.dumps(plan.to_json())))
        assert back == plan


class TestBuildAndVerify:
    def test_th6_intervals_inside_target(self):
        plan = plan_witness("th6", ArithmeticSequence.dyadic(),
                            ScaledGeometric(1, 2), DENSITY, 4)
        assert build_and_verify(plan).passed
        checks, _, support = report_rows(plan)
        assert len(checks) == 4 and all(c.passed for c in checks)
        for _, parts in reference_arcs(plan):
            assert within_band(parts)
        assert support.outcome is Outcome.MEMBER

    def test_th6_digit_positions(self):
        plan = plan_witness("th6", ArithmeticSequence.dyadic(),
                            ScaledGeometric(3, 2), DENSITY, 4)
        point = witness._assemble_expansion(plan)
        assert set(point.digits) == {p.k + 1 for p in plan.indices}

    def test_th2_norm_floor(self):
        for p in (2, 3):
            plan = plan_witness("th2", ArithmeticSequence.geometric(p),
                                ScaledGeometric(3, p), DENSITY, 5)
            assert build_and_verify(plan).passed
            checks, blocks, _ = report_rows(plan)
            floor = Fraction(p - 1, p * p)
            assert len(checks) == 5 and all(c.passed for c in checks)
            for _, parts in reference_arcs(plan):
                assert enclosure_reference.dist_interval(parts)[0] > floor
            assert blocks and all(b.passed for b in blocks)

    def test_th1_blocks_under_majorant(self):
        plan = plan_witness("th1", ArithmeticSequence.dyadic(),
                            ScaledGeometric(3, 2), SUMMABLE, 5)
        assert build_and_verify(plan).passed
        ks = [p.k for p in plan.indices]
        blocks = report_rows(plan)[1]
        for b, ref in zip(blocks, enclosure_reference.block_checks(plan), strict=True):
            assert b.majorant == 2 * Fraction(22, 7) * Fraction(1, b.j_from)
            assert b.j_from in ks and b.passed
            assert ref.lower_bound <= ref.upper_bound <= b.majorant

    def test_count_zero_vacuous_pass(self):
        plan = plan_witness("th6", ArithmeticSequence.dyadic(),
                            ScaledGeometric(1, 2), DENSITY, 0)
        assert build_and_verify(plan).passed and report_rows(plan)[0] == []


class TestVerifyCertificate:
    def make_cert(self):
        plan = plan_witness("th6", ArithmeticSequence.dyadic(),
                            ScaledGeometric(3, 2), DENSITY, 4)
        return build_and_verify(plan)

    def test_round_trip_passes(self):
        cert = self.make_cert()
        doc = json.loads(json.dumps(cert.to_json()))
        assert list(doc) == ["theorem", "plan", "pass"]
        back = WitnessCertificate.from_json(doc)
        ok, report = verify_certificate(back)
        assert ok and report["recomputed_pass"]

    def test_malformed_rejected(self):
        with pytest.raises(CertificateFormatError):
            WitnessCertificate.from_json({"theorem": "th6"})
        doc = json.loads(json.dumps(self.make_cert().to_json()))
        doc["plan"]["indices"][0]["v"] = "oops"
        with pytest.raises(CertificateFormatError):
            WitnessCertificate.from_json(doc)
        # a sequence that is not a chain, as geometric base 1
        for sequence, text in (({"kind": "ratios", "ratios": ["2", "1"]}, "q_2 must be >= 2"),
                               ({"kind": "geometric", "base": "1"}, "base must be >= 2")):
            doc = json.loads(json.dumps(self.make_cert().to_json()))
            doc["plan"]["sequence"] = sequence
            with pytest.raises(CertificateFormatError, match=text):
                WitnessCertificate.from_json(doc)


# these edit claims, which every document holds
CLAIM_MUTATIONS = ("flip-pass", "relabel-terms", "renumber-first-index")
MUTATIONS = {
    "flip-pass": lambda d: d.update({"pass": False}),
    "relabel-terms": lambda d: d["plan"].update(
        terms={"kind": "scaled-geometric", "scale": "5", "base": "7"}),
    "renumber-first-index": lambda d: d["plan"]["indices"][0].update(n=999),
}


@pytest.fixture(scope="module")
def th1_cert():
    plan = plan_witness("th1", ArithmeticSequence.dyadic(),
                        ScaledGeometric(3, 2), SUMMABLE, 6)
    return build_and_verify(plan)


@pytest.fixture(scope="module")
def th1_doc(th1_cert):
    return full_document(th1_cert)


def _assert_rejected(original, mutation):
    doc = json.loads(json.dumps(original))
    ok, _ = verify_certificate(WitnessCertificate.from_json(doc))
    assert ok
    mutation(doc)
    ok, report = verify_certificate(WitnessCertificate.from_json(doc))
    assert not ok and report["mismatches"]


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_verify_rejects_mutated_certificate(name, th1_doc):
    _assert_rejected(th1_doc, MUTATIONS[name])


@pytest.mark.parametrize("name", CLAIM_MUTATIONS)
def test_verify_rejects_mutated_claims(name, th1_cert):
    _assert_rejected(th1_cert.to_json(), MUTATIONS[name])


def test_verify_rejects_th6_forgeries():
    plan = plan_witness("th6", ArithmeticSequence.dyadic(),
                        ScaledGeometric(3, 2), DENSITY, 6)
    cert = build_and_verify(plan)
    for doc, name in itertools.product((cert.to_json(), full_document(cert)),
                                       ("relabel-terms", "renumber-first-index")):
        forged = json.loads(json.dumps(doc))
        MUTATIONS[name](forged)
        ok, report = verify_certificate(WitnessCertificate.from_json(forged))
        assert not ok and report["mismatches"][0].startswith("plan")


# edits of the derived keys that a full document stores beside its claims,
# and malformed values there: no document's derived keys are read
DERIVED_MUTATIONS = {
    "narrow-norm-interval": lambda d: d["checks"][0].update(norm_interval=["1/2", "1/2"]),
    "drop-all-blocks": lambda d: d.update(blocks=[]),
    "drop-some-blocks": lambda d: d.update(blocks=d["blocks"][:2]),
    "narrow-block-lower": lambda d: d["blocks"][0].update(
        lower_bound=d["blocks"][0]["upper_bound"]),
    "narrow-block-upper": lambda d: d["blocks"][-1].update(
        upper_bound=d["blocks"][-1]["lower_bound"]),
    "relabel-block": lambda d: d["blocks"][1].update({"from": 3}),
    "flip-support": lambda d: d["support"].update(outcome="Inconclusive"),
    "retag-support": lambda d: d["support"].update(certificate="definitional"),
    "null-support": lambda d: d.update(support=None),
    "retarget-check": lambda d: d["checks"][1].update(target=["1/8", "7/8"]),
    "malformed-checks": lambda d: d.update(checks="oops"),
    "malformed-wraparound": lambda d: d["checks"][0].update(wraparound="no"),
}


def fixture_certificates() -> list:
    """The full documents of tests/fixtures/regression.json."""
    path = pathlib.Path(__file__).parent / "fixtures" / "regression.json"
    return [e["doc"] for e in json.loads(path.read_text())["certificates"]]


@functools.cache
def verify_output(text):
    """(exit code, stdout) of `thinset verify` on a document's text."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "c.json"
        path.write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["verify", "--json-in", str(path)])
    return code, out.getvalue()


@pytest.mark.parametrize("name", ["unedited"] + sorted(DERIVED_MUTATIONS))
def test_derived_keys_are_never_read(name):
    # a full document and its claims decode equal and verify to the same
    # bytes; an edit that names a field the document lacks (th6 stores no
    # blocks, th2 no support) does not apply to it
    edit = DERIVED_MUTATIONS.get(name, lambda d: None)
    docs = fixture_certificates() + [json.loads(passing_certificate(tag, True))
                                     for tag in ("th6", "th1", "th2")]
    edited = 0
    for full in docs:
        claims = {key: full[key] for key in ("theorem", "plan", "pass")}
        doc = json.loads(json.dumps(full))
        try:
            edit(doc)
        except (IndexError, TypeError, AttributeError):
            continue
        edited += doc != full
        cert = WitnessCertificate.from_json(doc)
        assert cert == WitnessCertificate.from_json(claims)
        assert [f.name for f in fields(cert)] == ["plan", "passed"]
        code, out = verify_output(json.dumps(claims))
        assert code == 0 and json.loads(out)["ok"]
        assert verify_output(json.dumps(doc)) == (code, out)
    assert edited or name == "unedited"


@pytest.mark.parametrize("tag", ["th6", "th1", "th2"])
def test_a_written_plan_holds_only_its_claims(tag):
    # l, l_prime, m and the witness set follow from the claims, and neither
    # the plan nor its document holds them
    doc = json.loads(passing_certificate(tag))
    assert list(doc["plan"]) == ["tag", "sequence", "terms", "ideal", "indices", "closing_k"]
    assert all(list(p) == ["i", "n", "k", "v", "digit"] for p in doc["plan"]["indices"])
    assert [f.name for f in fields(witness.PlannedIndex)] == ["i", "n", "k", "v", "digit"]
    assert [f.name for f in fields(witness.WitnessPlan)] == [
        "tag", "seq", "terms", "ideal", "indices", "closing_k", "growth_log"]


# edits of the copies that a plan written before stored beside its claims:
# per key, a forged value, a malformed one, and the key deleted
STORED_COPIES = {"l": "4", "l_prime": "4", "m": "4",
                 "witness_set": {"type": "geometric", "base": "4"}}


@pytest.mark.parametrize("edit", ["forged", "malformed", "deleted"])
@pytest.mark.parametrize("key", sorted(STORED_COPIES))
def test_stored_copies_are_never_read(key, edit):
    # every fixture document verifies to the bytes and exit code of its claims
    # projection, whatever its l, l_prime, m or witness_set holds; an index
    # key is edited at every index, and added where a th2 index lacks it
    value = {"forged": STORED_COPIES[key], "malformed": ["x"], "deleted": DELETE}[edit]
    for full in fixture_certificates():
        claims = {k: full[k] for k in ("theorem", "plan", "pass")}
        doc = json.loads(json.dumps(full))
        for part in doc["plan"]["indices"] if key != "witness_set" else [doc["plan"]]:
            if value is not DELETE:
                part[key] = value
            elif key in part:
                del part[key]
        assert doc != full or value is DELETE
        expected = verify_output(json.dumps(claims))
        assert expected[0] == 0 and verify_output(json.dumps(doc)) == expected


@pytest.mark.parametrize("seq_text,terms_text", [
    ("dyadic", "3*2^n"), ("[2,3,5]", "u_n"), ("dyadic", "n!"),
    ("dyadic", "[" + ",".join(str(3 << j) for j in range(19)) + "]")],
    ids=["scaled-geometric", "u_n", "n!", "explicit"])
def test_certificate_equals_its_round_trip(seq_text, terms_text):
    # one case per term kind: scaled geometric, u_n, n! and an explicit list
    seq = parse_sequence(seq_text)
    cert = build_and_verify(plan_witness("th6", seq, parse_terms(terms_text, seq), DENSITY, 2))
    back = WitnessCertificate.from_json(json.loads(json.dumps(cert.to_json())))
    assert back == cert and repr(back.plan.terms) == repr(cert.plan.terms)
    assert ExplicitTerms([3, 6]) == ExplicitTerms([3, 6]) != ExplicitTerms([3, 7])
    assert ExplicitTerms([3, 6]) != ScaledGeometric(3, 2)


# ---------------------------------------------------------------------------
# The claims checker: one forgery per lemma, valid certificates the planner
# would not pick, faulty builders, and no planner or enclosure code reached
# ---------------------------------------------------------------------------

@functools.cache
def claims_text(tag, seq_text, terms_text, count, ideal=DENSITY):
    seq = parse_sequence(seq_text)
    plan = plan_witness(tag, seq, parse_terms(terms_text, seq), ideal, count)
    return json.dumps(build_and_verify(plan).to_json())


def claims(*request) -> dict:
    return json.loads(claims_text(*request))


def _index(doc, position, **fields):
    doc["plan"]["indices"][position].update(fields)


# (request, edit, lemma, text): each edit fails the named lemma, with text in
# its mismatch; the first request's indices are (n, k, v) = (2, 2, 3), (8,
# 8, 3), (16, 16, 3), (32, 32, 3), closing_k 64
TH6 = ("th6", "dyadic", "3*2^n", 4)
FORGERIES = {
    # a sequence that is not a chain no longer decodes (test_malformed_rejected),
    # so a th6 plan fails the chain lemma only by its tag
    "chain": (TH6, lambda d: d.update(theorem="th9") or d["plan"].update(tag="th9"), "chain",
              "unknown certificate tag 'th9'"),
    "th2 over a cycled list": (("th2", "geometric:3", "2*3^n", 3), lambda d: d["plan"].update(
        sequence={"kind": "ratios", "ratios": ["3", "9"]}), "chain", "constant-ratio"),
    "renumbered": (TH6, lambda d: _index(d, 0, i=2), "index order", "numbered"),
    "closing below": (TH6, lambda d: d["plan"].update(closing_k=32), "index order",
                      "up to closing_k"),
    "zero v": (TH6, lambda d: _index(d, 1, v="0"), "index order", ">= 1"),
    "next term": (TH6, lambda d: _index(d, 1, n=9), "term identity", "index 2"),
    "other v": (TH6, lambda d: _index(d, 1, v="5"), "term identity", "index 2"),
    "v on its own chain": (("th6", "[2,3,5]", "u_n", 3), lambda d: _index(d, 2, v="6"),
                           "term identity", "own chain"),
    "n!/v is not u_k": (("th6", "dyadic", "n!", 3), lambda d: _index(d, 0, v="15"),
                        "term identity", "index 1"),
    "v absorbs q_(k+1)": (TH6, lambda d: _index(d, 1, k=7, v="6"), "cofactor", "index 2"),
    # a stored witness_set is ignored: W is the ideal's, and k_4 = 33 is not in it
    "other witness set": (TH6, lambda d: d["plan"].update(
        witness_set={"type": "progression", "start": "1", "step": "1"}) or _index(
            d, 3, n=33, k=33), "witness set", "k_4 = 33 is not in it"),
    "fin": (TH6, lambda d: d["plan"].update(ideal={"type": "fin"}), "witness set",
            "'fin' has no infinite"),
    "k outside W": (("th1", "dyadic", "3*2^n", 3, SUMMABLE), lambda d: _index(d, 1, n=3, k=3),
                    "witness set", "k_2 = 3 is below 2^2"),
    # a stored l is ignored: the digit 1 chosen for l = 5 has pivot 3/16, as l = v mod 16 = 3
    "l": (("th6", "geometric:16", "3*16^n", 3), lambda d: _index(
        d, 0, l="5", l_prime="11", m="10", digit="1"), "digit", "outside [1/4, 3/4]"),
    "pivot": (("th6", "[2,3,5]", "u_n", 3), lambda d: _index(d, 0, digit="1"), "digit",
              "outside [1/4, 3/4]"),
    "gap": (("th6", "dyadic", "2^n", 4), lambda d: _index(d, 1, n=4, k=4), "gap", "index 1"),
    "th2 digit": (("th2", "geometric:3", "2*3^n", 3), lambda d: _index(d, 0, digit="2"),
                  "th2 digit", "index 1"),
    "th2 gap": (("th2", "geometric:3", "2*3^n", 3), lambda d: d["plan"].update(closing_k=186),
                "th2 gap", "index 3: the next k is below k + (2n + 1)*v"),
    # 3*2^33 = u_33*3, so the last index moves to k = 33 with every other
    # lemma but the witness set holding, and its digit leaves W + 1
    "support": (TH6, lambda d: _index(d, 3, n=33, k=33), "support",
                "digit index 34 outside the declared support"),
}


@pytest.mark.parametrize("name", sorted(FORGERIES))
def test_each_lemma_rejects_its_forgery(name):
    # no forgery fails the block majorants, which hold by lemma once the
    # indices increase and the digits are below their ratios; nor n's order
    # alone, nor th2's u_k'/u_k > v*p^2 alone: the gap and identity give
    # a_n' > a_n, and k' >= k + (2n + 1)*v gives p^(k' - k) > v*p^2
    request, edit, lemma, text = FORGERIES[name]
    doc = claims(*request)
    assert verify_certificate(WitnessCertificate.from_json(doc))[0]
    edit(doc)
    ok, report = verify_certificate(WitnessCertificate.from_json(doc))
    assert not ok and not report["recomputed_pass"]
    assert all(m.startswith("plan") for m in report["mismatches"][:-1])
    assert any(m.startswith(f"plan: {lemma}: ") and text in m for m in report["mismatches"]), \
        report["mismatches"]


def test_gap_forgery_fails_the_gap_alone():
    # k = 4 at n = 4 is in W and 2^4 = u_4*1, yet u_4/u_2 = 4 < 8*v
    doc = claims("th6", "dyadic", "2^n", 4)
    _index(doc, 1, n=4, k=4)
    _, report = verify_certificate(WitnessCertificate.from_json(doc))
    assert report["mismatches"] == [
        "plan: gap: index 1: u_k'/u_k < 8*v for the next index k'",
        "overall pass stored=True, recomputed=False"]


def test_a_certificate_the_planner_would_not_pick_verifies():
    # th6 3*2^n over the dyadic chain, skipping the power of two k = 8
    doc = claims(*TH6[:3], 5)
    indices = doc["plan"]["indices"]
    doc["plan"]["indices"] = [dict(p, i=i) for i, p in
                              enumerate(indices[:1] + indices[2:], start=1)]
    cert = WitnessCertificate.from_json(doc)
    assert [p.k for p in cert.plan.indices] == [2, 16, 32, 64] and cert.plan.closing_k == 128
    ok, report = verify_certificate(cert)
    assert ok and report["recomputed_pass"] and report["mismatches"] == []
    assert build_and_verify(cert.plan) == cert      # the builder agrees
    checks, blocks, support = report["checks"], report["blocks"], report["support"]
    assert all(c.passed for c in checks + blocks) and support.outcome is Outcome.MEMBER
    # and so do the reference enclosures
    assert enclosure_reference.within_rows(cert.plan, checks, blocks)


def _forged_pass(cert):
    """The certificate's document with `pass` set to true by hand, decoded."""
    doc = json.loads(json.dumps(cert.to_json()))
    doc["pass"] = True
    return WitnessCertificate.from_json(doc)


def test_verify_rejects_the_certificates_of_faulty_builders():
    # gap threshold 2*v': th6 2^n picks k = 2, 4, 8, 16, and {a_n x} of the
    # first index is in [1/2, 3/4], so its enclosure passes; the gap lemma
    # does not, and the builder writes pass: false
    reach = ArithmeticSequence.reach
    with mock.patch.object(ArithmeticSequence, "reach",
                           lambda seq, lo, bound: reach(seq, lo, bound // 4)):
        cert = build_and_verify(plan_witness("th6", ArithmeticSequence.dyadic(),
                                             ScaledGeometric(1, 2), DENSITY, 4))
    assert not cert.passed and [p.k for p in cert.plan.indices] == [2, 4, 8, 16]
    ok, report = verify_certificate(_forged_pass(cert))
    assert not ok and report["mismatches"][0].startswith("plan: gap: index 1:")
    # digit 1 wherever q_(k+1) = 5, a pivot of 1/5
    seq = parse_sequence("[2,3,5]")
    with mock.patch.object(witness, "digit_choice", lambda q, v: 1):
        cert = build_and_verify(plan_witness("th6", seq, parse_terms("u_n", seq), DENSITY, 3))
    assert not cert.passed and [p.digit for p in cert.plan.indices] == [1, 1, 1]
    ok, report = verify_certificate(_forged_pass(cert))
    assert not ok and [m for m in report["mismatches"] if m.startswith("plan: digit")] == [
        "plan: digit: index 1: c*v/q_(k+1) mod 1 is outside [1/4, 3/4]",
        "plan: digit: index 3: c*v/q_(k+1) mod 1 is outside [1/4, 3/4]"]


# the certificates the certify benchmark writes, one per slot kind
CERTIFY_REQUESTS = [
    ("th6", "dyadic", "3*2^n", 16, DENSITY), ("th6", "dyadic", "7*2^n", 17, SUMMABLE),
    ("th6", "factorial", "n!", 14, DENSITY), ("th6", "[2,3,5]", "u_n", 12, SUMMABLE),
    ("th1", "dyadic", "5*2^n", 8, SUMMABLE), ("th2", "geometric:2", "9*2^n", 12, DENSITY),
    ("th2", "geometric:3", "17*3^n", 20, SUMMABLE), ("th2", "geometric:5", "23*5^n", 40, DENSITY),
]


def certify_and_fixture_claims() -> list:
    """The claims of the certify requests' certificates and of the fixtures."""
    return [claims(*request) for request in CERTIFY_REQUESTS] + [
        {key: doc[key] for key in ("theorem", "plan", "pass")} for doc in fixture_certificates()]


def unreachable(*args, **kwargs):
    raise AssertionError("reached planner or enclosure code")


# the enclosure kernel that once explained a pass: no module holds it now,
# so neither the builder nor verify can walk an enclosure
ENCLOSURE_CODE = [(witness, "enclosure_report"), (witness, "shared_heads"),
                  (core, "shared_heads"), (core, "enclosure_heads"), (core, "norm_bounds")]


def test_verify_reaches_no_planner_or_enclosure_code(monkeypatch):
    docs = certify_and_fixture_claims()
    assert not any(hasattr(module, name) for module, name in ENCLOSURE_CODE)
    for module, name in [(witness, "plan_witness"), (witness, "_seek"),
                         (witness, "_chain_index"), (witness, "_valuations"),
                         (ArithmeticSequence, "reach")]:
        monkeypatch.setattr(module, name, unreachable)
    for doc in docs:
        ok, report = verify_certificate(WitnessCertificate.from_json(doc))
        assert ok and report["recomputed_pass"], (doc["plan"]["tag"], report["mismatches"])


def test_build_reaches_no_enclosure_code():
    # the fixtures' pass flags were written by a builder that walked enclosures
    certs = [WitnessCertificate.from_json(doc) for doc in certify_and_fixture_claims()]
    assert not any(hasattr(module, name) for module, name in ENCLOSURE_CODE)
    for cert in certs:
        assert cert.passed and build_and_verify(cert.plan) == cert


# th6 10^n over geometric:10 with the first digit 5 made 8: a pivot of 4/5
DIGIT_8 = (("th6", "geometric:10", "10^n", 3), lambda d: _index(d, 0, digit="8"))
AGREEMENT = {**{" ".join(map(str, r[:4])): (r, None) for r in CERTIFY_REQUESTS},
             **{f"forged {name}": (r, edit) for name, (r, edit, _, _) in FORGERIES.items()},
             "forged digit 8": DIGIT_8}


@pytest.mark.parametrize("name", sorted(AGREEMENT))
def test_builder_and_verify_agree(name):
    request, edit = AGREEMENT[name]
    doc = claims(*request)
    if edit is not None:
        edit(doc)
    plan = WitnessCertificate.from_json(doc).plan
    cert = build_and_verify(plan)
    assert cert.passed == verify_certificate(cert)[1]["recomputed_pass"] == (edit is None)


def test_enclosures_that_hold_decide_no_pass():
    # {a_n x} of the forged digit 8 lies near 4/5, inside [1/4, 7/8], and
    # every reference enclosure holds; the digit lemma does not, and neither
    # does pass: its row's arc [4/5, 37/40] leaves the band
    request, edit = DIGIT_8
    doc = claims(*request)
    edit(doc)
    plan = WitnessCertificate.from_json(doc).plan
    assert all(within_band(parts) for _, parts in reference_arcs(plan))
    found = witness._check_claims(plan)
    assert found.support.outcome is Outcome.MEMBER
    assert found.fails == ["plan: digit: index 1: c*v/q_(k+1) mod 1 is outside [1/4, 3/4]"]
    assert found.checks[0].to_json()["interval"] == ["4/5", "37/40"]
    assert not found.checks[0].passed and all(c.passed for c in found.checks[1:])
    assert not build_and_verify(plan).passed


HUGE = "1" + "0" * 699


@pytest.mark.parametrize("request_", [TH6, ("th2", "geometric:3", "2*3^n", 3),
                                      ("th6", "dyadic", "n!", 3)], ids=lambda r: r[0] + r[2])
@pytest.mark.parametrize("position", [0, -1])
@pytest.mark.parametrize("key", ["n", "k", "v", "closing_k"])
def test_verify_is_bounded_by_the_claims(request_, position, key):
    # a 700-digit n, k, v or closing_k: no u_k, a_n or ratio product past
    # _COFACTOR_BITS is formed, so the answer comes at once
    doc = claims(*request_)
    if key == "closing_k":
        doc["plan"]["closing_k"] = HUGE if position else "1" + HUGE
    else:
        _index(doc, position, **{key: HUGE})
    start = time.perf_counter()
    ok, report = verify_certificate(WitnessCertificate.from_json(doc))
    assert time.perf_counter() - start < 1
    if key == "closing_k" and request_[0] == "th2":
        assert ok       # true: a later next digit only shrinks the tail
    else:
        assert not ok and report["mismatches"][0].startswith("plan")


# ---------------------------------------------------------------------------
# Jump planner against a term-by-term scan
# ---------------------------------------------------------------------------

WINDOW = 300


def reference_scan(tag, seq, terms, ideal, count, window=WINDOW):
    """Greedy scan over n = 1, 2, ... checking the construction's conditions
    on (k_n, v_n) from `decompose` as stated: k in the witness set, k >= 2^i
    (th1), u_k >= 8*a_{n_prev} (th6/th1), k >= k' + (2n'+1)v' (th2).
    Returns the selected (n, k, v) and the class of the error that stopped
    it, if any."""
    witness = non_snt_witness(ideal) if tag != "th2" else None
    if tag == "th2" and seq.geometric_base is None:
        return [], ValueError
    selected, n = [], 0
    while len(selected) < count + 1:
        n += 1
        if n - (selected[-1][0] if selected else 0) > window:
            return selected, SequenceNotAbsorbingError
        try:
            d = decompose(seq, terms.term(n))
        except ValueError:
            return selected, ValueError
        k, v, i = d.k, d.v, len(selected) + 1
        if selected:
            pn, pk, pv = selected[-1]
        if tag == "th2":
            if selected and k < pk + (2 * pn + 1) * pv:
                continue
        elif (not witness.contains(k) or (tag == "th1" and k < 2 ** i)
              or (selected and seq.u(k) < 8 * seq.u(pk) * pv)):
            continue
        selected.append((n, k, v))
    return selected, None


def planned(plan):
    return [(e["n"], e["k"], int(e["v"])) for e in plan.growth_log]


def assert_matches_reference(tag, seq_text, terms_text, count):
    seq = parse_sequence(seq_text)
    terms = parse_terms(terms_text, seq)
    ideal = SUMMABLE if tag == "th1" else DENSITY
    expected, error = reference_scan(tag, seq, terms, ideal, count)
    if error is None:
        plan = plan_witness(tag, seq, terms, ideal, count)
        assert planned(plan) == expected
        assert [(p.n, p.k, p.v) for p in plan.indices] == expected[:count]
        assert plan.closing_k == expected[count][1]
        return
    if expected:
        # the planner agrees on every index the scan reached ...
        plan = plan_witness(tag, seq, terms, ideal, len(expected) - 1)
        assert planned(plan) == expected
    try:
        plan = plan_witness(tag, seq, terms, ideal, count)
    except error:
        return
    # ... and may only go on where the next index lies beyond the scan window
    assert error is SequenceNotAbsorbingError
    got = planned(plan)
    assert got[:len(expected)] == expected
    assert got[len(expected)][0] > (expected[-1][0] if expected else 0) + WINDOW


CHAINS = ["dyadic", "geometric:3", "geometric:4", "geometric:5", "geometric:6",
          "factorial", "[2,3,5]"]
TERMS = st.one_of(st.just("u_n"), st.builds("{}*{}^n".format, st.integers(1, 40),
                                              st.sampled_from([2, 3, 4, 6, 8, 12, 36])))


@settings(max_examples=150, deadline=None)
@given(tag=st.sampled_from(["th6", "th1", "th2"]), seq_text=st.sampled_from(CHAINS),
       terms_text=TERMS, count=st.integers(0, 5))
@example("th2", "geometric:4", "3*2^n", 3)     # composite p, b not a power of p
@example("th2", "geometric:4", "3*8^n", 3)
@example("th6", "geometric:6", "5*36^n", 3)    # b = p^2
@example("th6", "dyadic", "2*4^n", 2)          # k_n = 1 + 2n is never a power of 2
@example("th1", "geometric:5", "10*3^n", 2)    # k_n = 1 for every n
@example("th6", "factorial", "u_n", 5)
@example("th2", "geometric:3", "2*6^n", 3)     # a refusal naming a 133 177-digit n
def test_jump_planner_matches_scan(tag, seq_text, terms_text, count):
    assert_matches_reference(tag, seq_text, terms_text, count)


class TestWalkedPairs:
    def test_factorial_terms_over_dyadic(self):
        assert_matches_reference("th6", "dyadic", "n!", 3)
        plan = plan_witness("th6", ArithmeticSequence.dyadic(),
                            parse_terms("n!"), DENSITY, 3)
        assert [(p.n, p.k) for p in plan.indices] == [(6, 4), (18, 16), (66, 64)]
        assert plan.closing_k == 512

    def test_composite_base_pins(self):
        plan = plan_witness("th2", ArithmeticSequence.geometric(4),
                            ScaledGeometric(3, 2), DENSITY, 3)
        assert [p.k for p in plan.indices] == [0, 18, 237]
        assert plan.closing_k == 3084
        plan = plan_witness("th2", ArithmeticSequence.geometric(4),
                            ScaledGeometric(3, 8), DENSITY, 3)
        assert [p.k for p in plan.indices] == [1, 19, 181]
        assert plan.closing_k == 1639

    def test_explicit_terms(self):
        # k_n = 0, 2, 1, 3, 0, 4, 8, 1, 16, 0, 32: not monotone
        values = [3, 4, 6, 8, 9, 48, 768, 770, 5 << 16, 5 << 16 | 1, 3 << 32]
        for tag, count in (("th6", 3), ("th1", 2)):
            seq_terms = ("dyadic", "[" + ",".join(map(str, values)) + "]")
            assert_matches_reference(tag, *seq_terms, count)
        plan = plan_witness("th6", ArithmeticSequence.dyadic(),
                            ExplicitTerms(values), DENSITY, 3)
        assert [(p.n, p.k) for p in plan.indices] == [(2, 2), (7, 8), (9, 16)]
        assert plan.closing_k == 32
        with pytest.raises(ValueError, match="outside explicit list"):
            plan_witness("th6", ArithmeticSequence.dyadic(),
                         ExplicitTerms(values), DENSITY, 4)


# ---------------------------------------------------------------------------
# Chain-index kernel against decompose and a brute scan
# ---------------------------------------------------------------------------

KERNEL_CHAINS = ["dyadic", "geometric:3", "geometric:4", "geometric:6", "factorial",
                 "[2,3,5]", "[4,6]", "[2,2,3]"]
KERNEL_TERMS = st.one_of(
    st.builds(ScaledGeometric, st.integers(1, 40), st.sampled_from([2, 3, 4, 6, 8, 12, 36])),
    st.just(parse_terms("n!")),
    st.sampled_from(KERNEL_CHAINS).map(lambda text: ArithmeticTerms(parse_sequence(text))))


FINITE = ArithmeticSequence.from_ratios([2, 3, 2, 2, 5, 2, 2, 3, 2, 2, 2, 2], cycle=False)


def kernel_chain(text):
    return FINITE if text == "finite" else parse_sequence(text)


@settings(max_examples=200, deadline=None)
@given(seq_text=st.sampled_from(KERNEL_CHAINS + ["finite"]), terms=KERNEL_TERMS,
       ns=st.lists(st.integers(1, 300), min_size=1, max_size=4), L=st.integers(0, 30))
@example("geometric:6", ArithmeticTerms(parse_sequence("[2,3,5]")), [1, 2, 3, 300], 7)
@example("factorial", ScaledGeometric(3, 2), [1, 2, 3], 5)         # k_n <= 4: proof
@example("dyadic", ScaledGeometric(2, 12), [1, 100], 30)
@example("[4,6]", ScaledGeometric(5, 36), [1, 2, 3, 4], 9)          # uneven slopes
@example("geometric:6", ScaledGeometric(3 ** 10, 12), [1, 9, 10], 12)  # k_n = 2n, then n + 10
@example("finite", parse_terms("n!"), [5, 20], 13)                # u_12 | 20!: past the end
@example("finite", ArithmeticTerms(parse_sequence("dyadic")), [1], 13)  # cut at q_2, u_13 past the end
def test_chain_index_matches_reference(seq_text, terms, ns, L):
    seq = kernel_chain(seq_text)
    index = witness._chain_index(seq, terms)
    for n in ns:
        try:
            d = decompose(seq, terms.term(n))
        except ValueError as exc:           # k_n reaches the end of a finite chain
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                index.index(n)
            continue
        k, a = index.index(n)
        assert (k, index.cofactor(n, k, a)) == (d.k, d.v)
    try:
        u = seq.u(L)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            index.least(L, 0)
        return
    # least(L) is the first n a brute scan finds; a proof that there is none
    # is checked up to one period per bit of u_L, by which v_b(a_n) >= v_b(u_L)
    # for every b that the multipliers carry at all
    least = index.least(L, 0)
    limit = least or terms.chain.period * (u.bit_length() + 1) + 1
    first = next((n for n in range(1, limit + 1) if terms.term(n) % u == 0), None)
    assert first == least
    if least is not None:                   # every n past the least one qualifies
        assert index.least(L, least + 5) == least + 6
    quasi = index.quasi()
    if quasi and quasi[2] + 3 * quasi[0] < 1500:
        T, S, n0, R = quasi
        ks = [decompose(seq, terms.term(n)).k for n in range(n0, n0 + 3 * T)]
        assert all(b == a + S for a, b in zip(ks, ks[T:]))
        assert {k % S for k in ks} == R


def first_primes(count):
    sieve, primes = [True] * 20000, []       # the 2000th prime is 17389
    for p in range(2, len(sieve)):
        if sieve[p]:
            primes.append(p)
            sieve[p * p::p] = [False] * len(range(p * p, len(sieve), p))
    return primes[:count]


@pytest.mark.parametrize("ratios,terms", [
    (first_primes(2000), ArithmeticTerms(parse_sequence("[6]"))),    # q_3 = 5: cut at 2
    ([2, 3, 6, 4, 9] * 400, ScaledGeometric(5, 6)),                 # every ratio supplied
])
def test_chain_index_on_2000_ratios(ratios, terms):
    # only the ratios before the first one that no term supplies enter the
    # basis, and it has one element per prime of the terms
    seq = ArithmeticSequence.from_ratios(ratios)
    start = time.perf_counter()
    index = witness._chain_index(seq, terms)
    assert time.perf_counter() - start < 0.02
    for n in (1, 2, 7, 50, 300):
        d = decompose(seq, terms.term(n))
        k, a = index.index(n)
        assert (k, index.cofactor(n, k, a)) == (d.k, d.v)


def test_chain_index_on_a_huge_prime_power():
    # the basis of 2 and 2^16000 is {2}, found in one split, not 16000
    seq = ArithmeticSequence.from_ratios([2 ** 16000])
    start = time.perf_counter()
    index = witness._chain_index(seq, parse_terms("2^n", seq))
    assert time.perf_counter() - start < 0.005
    assert [index.index(n)[0] for n in (1, 15999, 16000, 48000)] == [0, 0, 1, 3]


@settings(max_examples=150, deadline=None)
@given(seq_text=st.sampled_from(KERNEL_CHAINS + ["finite"]), lo=st.integers(0, 150),
       bits=st.integers(1, 600), salt=st.integers(0, 1 << 600))
@example("finite", 150, 50, 0)      # bits(bound) ratios pass the list's end, the answer does not
def test_gap_threshold_matches_definition(seq_text, lo, bits, salt):
    seq = (ArithmeticSequence.from_ratios([2, 3, 5, 7, 11, 13] * 30, cycle=False)
           if seq_text == "finite" else parse_sequence(seq_text))
    bound = max(2, (1 << (bits - 1)) + salt % (1 << (bits - 1)))
    k, prod = lo, 1
    try:
        while prod < bound:
            k += 1
            prod *= seq.q(k)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            seq.reach(lo, bound)
        return
    assert seq.reach(lo, bound) == k


def test_gap_threshold_at_factorial_count_6_size():
    # th6 n! over dyadic: after k = 65536 at n = 65538 the gap asks for
    # 8*v with v the odd part of 65538!, about 890 000 bits
    f = math.factorial(65538)
    bound = 8 * (f >> (f & -f).bit_length() - 1)
    start = time.perf_counter()
    k = ArithmeticSequence.dyadic().reach(65536, bound)
    assert time.perf_counter() - start < 0.1
    assert k == 65536 + (bound - 1).bit_length()


def test_factorial_terms_at_count_5_and_6():
    dyadic, terms = ArithmeticSequence.dyadic(), parse_terms("n!")
    start = time.perf_counter()
    plan = plan_witness("th6", dyadic, terms, DENSITY, 5)
    assert time.perf_counter() - start < 5
    assert [p.n for p in plan.indices] == [6, 18, 66, 514, 4098]
    assert plan.closing_k == 65536
    # the next hit is n = 2**20 + 2, and bits(n!) <= n*bits(n) passes the bound
    start = time.perf_counter()
    with pytest.raises(SequenceNotAbsorbingError,
                       match=r"n=1048578, .* up to 22020138 bits, more than _COFACTOR_BITS"):
        plan_witness("th6", dyadic, terms, DENSITY, 6)
    assert time.perf_counter() - start < 5


class Late(Exception):
    pass


@contextlib.contextmanager
def deadline(seconds):
    """Raise Late in the body once `seconds` of wall time have passed."""
    def late(signum, frame):
        raise Late(f"no answer within {seconds} s")
    previous = signal.signal(signal.SIGALRM, late)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


DEADLINE_CHAINS = ["dyadic", "geometric:3", "[2,3]", "[6,4]", "[2,5,3]", "factorial"]
DEADLINE_TERMS = st.one_of(
    st.sampled_from(["n!", "u_n"]),
    st.builds("{}*{}^n".format, st.integers(1, 40), st.sampled_from([2, 3, 4, 5, 6, 12])),
    st.lists(st.integers(1, 10 ** 6), min_size=1, max_size=6, unique=True).map(
        lambda values: "[" + ",".join(map(str, sorted(values))) + "]"))


@settings(max_examples=150, deadline=None)
@given(tag=st.sampled_from(witness.TAGS), seq_text=st.sampled_from(DEADLINE_CHAINS),
       terms_text=DEADLINE_TERMS, count=st.integers(0, 4))
@example("th6", "[2,3]", "n!", 1)       # k_n = 2*v_3(n!) + 1 is odd, never in W
@example("th6", "[6,4]", "n!", 3)       # k_n = 2^j needs v_2(n!) = 3*2^(j-1): skipped
@example("th1", "[2,3]", "n!", 3)
def test_every_planner_request_ends(tag, seq_text, terms_text, count):
    # a plan, or a refusal by proof or by size, and never no answer
    seq = parse_sequence(seq_text)
    with deadline(2):
        try:
            plan_witness(tag, seq, parse_terms(terms_text, seq),
                         SUMMABLE if tag == "th1" else DENSITY, count)
        except (SequenceNotAbsorbingError, ValueError):
            pass


@settings(max_examples=400, deadline=None)
@given(tag=st.sampled_from(witness.TAGS), seq_text=st.sampled_from(DEADLINE_CHAINS),
       terms_text=DEADLINE_TERMS, count=st.integers(0, 4))
@example("th2", "geometric:3", "2*3^n", 4)
@example("th1", "dyadic", "n!", 4)
def test_lemmas_imply_the_enclosures(tag, seq_text, terms_text, count):
    # every planner plan meets the lemmas, each lemma row of its verify
    # report passes, and the reference enclosures, walked apart from the
    # lemmas, lie within the rows
    seq = parse_sequence(seq_text)
    with deadline(2):
        try:
            plan = plan_witness(tag, seq, parse_terms(terms_text, seq),
                                SUMMABLE if tag == "th1" else DENSITY, count)
        except (SequenceNotAbsorbingError, ValueError):
            return
    assert witness._check_claims(plan).fails == []
    checks, blocks, support = report_rows(plan)
    assert len(checks) == count and all(c.passed for c in checks + blocks)
    assert len(blocks) == (0 if tag == "th6" else max(count - 1, 0))
    assert (support is None if tag == "th2" else support.outcome is Outcome.MEMBER)


def test_factorial_refusal_comes_before_the_bisection():
    # th2 n! over 4^n: the third index needs v_2(n!) >= 2*K with K of about
    # 270 000 bits, so n > 2*K passes _COFACTOR_BITS; refused before
    # Legendre's bisection over such an exponent is tried
    start = time.perf_counter()
    with pytest.raises(SequenceNotAbsorbingError, match="at or past n="):
        plan_witness("th2", ArithmeticSequence.geometric(4), parse_terms("n!"), DENSITY, 3)
    assert time.perf_counter() - start < 1


def test_each_hit_reads_the_terms_valuations_once(monkeypatch):
    # per selected index: v_b(u_L) for `least`, v_b(a_n) for `index`, handed
    # on to `cofactor`, and v_b(u_k) there: three kernel reads, not four
    reads = []
    kernel = sequences._Divisibility.vals
    monkeypatch.setattr(sequences._Divisibility, "vals",
                        lambda self, n, bs: reads.append(n) or kernel(self, n, bs))
    plan = plan_witness("th2", ArithmeticSequence.geometric(5), ScaledGeometric(23, 5),
                        DENSITY, 20)
    assert len(plan.growth_log) == 21 and len(reads) == 3 * 21


@pytest.mark.parametrize("tag,ideal", [("th6", DENSITY), ("th1", SUMMABLE)])
def test_count_40_plans_builds_and_verifies(tag, ideal):
    plan = plan_witness(tag, ArithmeticSequence.dyadic(), ScaledGeometric(3, 2),
                        ideal, 40)
    assert plan.indices[-1].k == 2 ** 41 and plan.closing_k == 2 ** 42
    cert = build_and_verify(plan)
    assert cert.passed
    back = WitnessCertificate.from_json(json.loads(json.dumps(cert.to_json())))
    ok, report = verify_certificate(back)
    assert ok and report["recomputed_pass"]


def test_count_40_th2_certificate_holds_each_fact_once():
    # the selection log stays in memory and is not written; a certificate
    # written with it still decodes, to the same certificate
    seq = ArithmeticSequence.geometric(5)
    plan = plan_witness("th2", seq, ScaledGeometric(23, 5), DENSITY, 40)
    *log, closing = plan.growth_log
    assert [(e["i"], e["n"], e["k"], e["v"]) for e in log] == [
        (p.i, p.n, p.k, p.v) for p in plan.indices]
    assert (closing["i"], closing["k"]) == (41, plan.closing_k)
    cert = build_and_verify(plan)
    doc = cert.to_json()
    assert "growth_log" not in doc["plan"] and len(json.dumps(doc)) < 8192
    old = dict(doc, plan=dict(doc["plan"], growth_log=[{"i": 1, "satisfied": []}]))
    assert WitnessCertificate.from_json(old) == WitnessCertificate.from_json(doc)


# ---------------------------------------------------------------------------
# Single-field mutations of passing certificates
# ---------------------------------------------------------------------------

def meets_reference_conditions(plan) -> bool:
    """Whether the plan's own indices meet the conditions `reference_scan`
    selects on, with (k, v) from `decompose` of a_n and closing_k as the
    next k: n and k increase, k in the witness set and k >= 2^i (th1),
    u_k' >= 8*u_k*v (th6/th1) or k' >= k + (2n+1)v (th2); plus the digit,
    {c*v/q_(k+1)} in [1/4, 3/4] with 1 <= c < q_(k+1), or 1 for th2.  Every
    number is formed, so the plan must be small."""
    tag, seq, rows = plan.tag, plan.seq, plan.indices
    ks = [p.k for p in rows] + [plan.closing_k]
    if ([p.i for p in rows] != list(range(1, len(rows) + 1))
            or any(a >= b for a, b in zip(ks, ks[1:]))
            or any(a.n >= b.n for a, b in zip(rows, rows[1:]))):
        return False
    for p in rows:
        d = decompose(seq, plan.terms.term(p.n))
        if (d.k, d.v) != (p.k, p.v):
            return False
    if tag == "th2":
        return (seq.geometric_base is not None
                and all(p.digit == 1 and k >= p.k + (2 * p.n + 1) * p.v
                        for p, k in zip(rows, ks[1:])))
    witness = non_snt_witness(plan.ideal)
    if witness is None:
        return False
    for i, k in enumerate(ks, start=1):
        if not witness.contains(k) or (tag == "th1" and k < 2 ** i):
            return False
    for p, k in zip(rows, ks[1:]):
        q = seq.q(p.k + 1)
        if (seq.u(k) < 8 * seq.u(p.k) * p.v or not 1 <= p.digit < q
                or not Fraction(1, 4) <= Fraction(p.digit * p.v % q, q) <= Fraction(3, 4)):
            return False
    return True


def document(cert, full: bool) -> dict:
    return full_document(cert) if full else cert.to_json()


@functools.cache
def passing_certificate(tag, full=False):
    seq, terms, ideal = {"th6": ("dyadic", "3*2^n", DENSITY),
                         "th1": ("dyadic", "3*2^n", SUMMABLE),
                         "th2": ("geometric:3", "2*3^n", DENSITY)}[tag]
    plan = plan_witness(tag, parse_sequence(seq), parse_terms(terms), ideal, 3)
    return json.dumps(document(build_and_verify(plan), full))


@settings(max_examples=200, deadline=None)
@given(tag=st.sampled_from(["th6", "th1", "th2"]), full=st.booleans(), data=st.data())
def test_single_field_mutation_is_rejected_or_true(tag, full, data):
    original = json.loads(passing_certificate(tag, full))
    path = data.draw(st.sampled_from(list(json_paths(original))))
    doc = mutate(original, path, data.draw(st.sampled_from(VALUES + [DELETE])))
    try:
        cert = WitnessCertificate.from_json(doc)
    except CertificateFormatError:
        return
    ok, report = verify_certificate(cert)
    if not ok:
        assert report["mismatches"]
        return
    # a mutation that verifies is true: its claims meet the conditions the
    # reference scan selects on, whether or not the planner would pick them
    assert cert.passed and meets_reference_conditions(cert.plan)


@pytest.mark.parametrize("tag", ["th6", "th2"])
def test_claims_decode_forms_no_fraction(tag, monkeypatch):
    # both plans are over the density ideal, which has no exponent to decode
    claims, full = (json.loads(passing_certificate(tag, f)) for f in (False, True))
    calls = []
    assert not hasattr(witness, "exact_fraction")   # only these modules decode rationals
    for module in (core, convergence, ideals):
        monkeypatch.setattr(module, "exact_fraction", lambda text, kernel=exact_fraction:
                            calls.append(text) or kernel(text))
    for doc in (claims, full):      # the enclosures of a full document are not read
        cert = WitnessCertificate.from_json(doc)
        assert calls == [] and cert.passed
        assert [f.name for f in fields(cert)] == ["plan", "passed"]


@pytest.mark.parametrize("edit", [
    {"theorem": "th1"},
    {"pass": "false"},
    {"theorem": "th1", "pass": "false"},
])
def test_theorem_and_pass_edits_are_rejected(edit):
    doc = json.loads(passing_certificate("th6"))
    doc.update(edit)
    with pytest.raises(CertificateFormatError):
        WitnessCertificate.from_json(doc)


@pytest.mark.parametrize("path", [("pass",)])
@pytest.mark.parametrize("value", [1, 0, "true", None])
def test_pass_flags_must_be_json_booleans(path, value):
    original = json.loads(passing_certificate("th1", full=True))
    assert WitnessCertificate.from_json(original).passed
    with pytest.raises(CertificateFormatError, match="JSON boolean"):
        WitnessCertificate.from_json(mutate(original, path, value))


# ---------------------------------------------------------------------------
# Lemma rows against Fraction arithmetic and the reference walk
# ---------------------------------------------------------------------------

@st.composite
def block_requests(draw):
    """th1/th2 requests whose planner jumps, or walks only a few terms."""
    seq_text = draw(st.sampled_from(["geometric:2", "geometric:3", "geometric:4",
                                     "geometric:5", "geometric:7", "dyadic",
                                     "[2,3,5]"]))
    if seq_text == "[2,3,5]":
        return "th1", seq_text, "u_n", draw(st.integers(2, 5))
    p = 2 if seq_text == "dyadic" else int(seq_text.split(":")[1])
    tag = draw(st.sampled_from(["th1", "th2"]))
    # th1 needs k_n in {2, 4, 8, ...}, which k_n = t + 2n may never reach
    bases = [p] if tag == "th1" else [p, p * p]
    terms = draw(st.one_of(st.just("u_n"), st.builds(
        "{}*{}^n".format, st.integers(1, 40), st.sampled_from(bases))))
    return tag, seq_text, terms, draw(st.integers(2, 6))


@settings(max_examples=60, deadline=None)
@given(block_requests())
@example(("th2", "geometric:4", "3*2^n", 3))    # first index at k = 0
@example(("th1", "[2,3,5]", "u_n", 5))          # ratios trimmed as k steps down
@example(("th1", "dyadic", "3*2^n", 8))
@example(("th2", "geometric:2", "5*2^n", 10))
@example(("th2", "geometric:3", "2*3^n", 16))
@example(("th2", "geometric:5", "23*5^n", 40))   # j near 10**75, 48-term heads
def test_block_sums_match_fraction_reference(request):
    """Each block row has the reference block's index, range, majorant and
    `pass`, and its majorant bounds the reference's enclosure of the block's
    sum, whose head terms are exact."""
    tag, seq_text, terms_text, count = request
    seq = parse_sequence(seq_text)
    plan = plan_witness(tag, seq, parse_terms(terms_text, seq),
                        SUMMABLE if tag == "th1" else DENSITY, count)
    _, blocks, _ = report_rows(plan)
    exact = enclosure_reference.block_checks(plan)
    assert len(blocks) == len(exact) == count - 1
    for row, ref in zip(blocks, exact):
        assert (row.index, row.j_from, row.j_to, row.majorant, row.passed) == (
            ref.index, ref.j_from, ref.j_to, ref.majorant, ref.passed)
        assert ref.lower_bound <= ref.upper_bound <= row.majorant


def claimed_plan(tag, seq_text, ks, vs, digits):
    """A plan that claims (k, v, digit) per index, with closing_k = ks[-1]."""
    indices = tuple(witness.PlannedIndex(i, i, k, v, c) for i, (k, v, c)
                    in enumerate(zip(ks, vs, digits), start=1))
    return witness.WitnessPlan(tag, parse_sequence(seq_text), ScaledGeometric(1, 2),
                               DENSITY, indices, ks[-1])


@st.composite
def claimed_plans(draw):
    """Plans with any increasing chain indices, cofactors and digits, so
    that their index checks may fail as well as pass."""
    tag = draw(st.sampled_from(["th6", "th1", "th2"]))
    seq_text = draw(st.sampled_from(["dyadic", "geometric:3", "geometric:5"] if tag == "th2"
                                    else ["dyadic", "geometric:3", "[2,3,5]", "factorial"]))
    seq = parse_sequence(seq_text)
    ks = sorted(draw(st.sets(st.integers(0, 150), min_size=2, max_size=5)))
    vs = [draw(st.one_of(st.integers(1, 40), st.integers(1, 10 ** 30))) for _ in ks[1:]]
    return claimed_plan(tag, seq_text, ks, vs,
                        [draw(st.integers(0, seq.q(k + 1) - 1)) for k in ks[:-1]])


@settings(max_examples=200, deadline=None)
@given(claimed_plans())
@example(claimed_plan("th6", "geometric:3", [0, 1], [1], [2]))     # [2/3, 1]: the edge
@example(claimed_plan("th6", "geometric:3", [0, 2], [7], [2]))     # [2/3, 13/9]: wraps
@example(claimed_plan("th2", "geometric:3", [0, 2], [7], [2]))
@example(claimed_plan("th6", "geometric:4", [0, 2], [1], [1]))     # [1/4, 5/16]: the band's edges
@example(claimed_plan("th6", "geometric:8", [0, 1], [1], [6]))     # [3/4, 7/8]
@example(claimed_plan("th2", "geometric:3", [0, 2], [1], [2]))     # least norm 2/9, the floor
def test_index_checks_match_fraction_reference(plan):
    """Each index row's document, `pass` included, is what Fraction
    arithmetic gives on its lemmas: the pivot {c*v/q}, q = q_(k+1), and the
    gap lemma's tail bound 1/8 (th6/th1), or 1/p**2 and the floor
    min(pivot, 1 - pivot) - 1/p**2 (th2).  A passing row holds the
    reference's enclosure."""
    seq, indices = plan.seq, plan.indices
    ks = [p.k for p in indices] + [plan.closing_k]
    checks = witness._check_claims(plan).checks
    assert [row.i for row in checks] == [p.i for p in indices]
    for row, (p, parts), k in zip(checks, reference_arcs(plan), ks[1:]):
        q = seq.q(p.k + 1)
        pivot, rise = Fraction(p.digit * p.v % q, q), Fraction(seq.u(k), seq.u(p.k))
        doc = {"i": p.i, "n": p.n, "pivot": str(pivot)}
        if plan.tag == "th2":
            floor, target = min(pivot, 1 - pivot) - Fraction(1, q * q), Fraction(q - 1, q * q)
            passed = (k >= p.k + (2 * p.n + 1) * p.v and rise > p.v * q * q
                      and floor >= target)
            doc.update(norm_floor=str(floor), target_min=str(target))
            held = enclosure_reference.dist_interval(parts)[0] > floor
        else:
            lo, hi = pivot, pivot + Fraction(1, 8)
            passed = rise >= 8 * p.v and Fraction(1, 4) <= lo and hi <= Fraction(7, 8)
            doc.update(interval=[str(lo), str(hi)], target=["1/4", "7/8"])
            held = all(lo <= a and b <= hi for a, b in parts)
        assert row.to_json() == dict(doc, **{"pass": passed})
        assert held or not passed


@pytest.mark.parametrize("tag,seq_text,ratio", [("th1", "dyadic", 2), ("th2", "geometric:3", 3)])
def test_block_rows_need_every_digit_below_its_ratio(tag, seq_text, ratio):
    # the block lemma's premise: one digit at its ratio fails every block row
    for digit, passed in ((1, True), (ratio, False)):
        plan = claimed_plan(tag, seq_text, [2, 4, 8, 16], [1, 1, 1], [1, digit, 1])
        blocks = witness._check_claims(plan).blocks
        assert [(b.index, b.j_from, b.j_to, b.passed) for b in blocks] == [
            (2, 2, 4, passed), (3, 4, 8, passed)]

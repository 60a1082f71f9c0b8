"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All comparisons are exact rational arithmetic; tolerances stated inline are
part of the criteria, not numerical slack.
"""

import json
import random
from fractions import Fraction

import pytest

from enclosure_reference import arc, block_checks, dist_interval, index_heads, within_rows
from thinset.convergence import WeightRule, ideal_convergence, \
    membership_by_support, nset_partial_sums
from thinset.core import (CircleRational, expand, reconstruct)
from thinset.ideals import Geometric, IdealDescriptor, Outcome, Shifted
from thinset.sequences import ArithmeticSequence, ScaledGeometric
from thinset.witness import (WitnessCertificate, _assemble_expansion,
                             build_and_verify, decompose, digit_choice,
                             plan_witness, verify_certificate)

DENSITY = IdealDescriptor.density()
TARGET = (Fraction(1, 4), Fraction(7, 8))


def report(name, ok):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def certificates():
    """Certificates shared by criteria 3, 4, 5 and round-tripped in 9."""
    certs = {}
    plan = plan_witness("th6", ArithmeticSequence.dyadic(),
                        ScaledGeometric(3, 2), DENSITY, 16)
    certs["th6"] = build_and_verify(plan)
    for p in (2, 3, 5):
        plan = plan_witness("th2", ArithmeticSequence.geometric(p),
                            ScaledGeometric(2, p), DENSITY, 12)
        certs[f"th2-p{p}"] = build_and_verify(plan)
    plan = plan_witness("th1", ArithmeticSequence.dyadic(),
                        ScaledGeometric(3, 2), IdealDescriptor.summable(), 8)
    certs["th1"] = build_and_verify(plan)
    return certs


def test_1_expansion_round_trip():
    rng = random.Random(20260823)
    sequences = [ArithmeticSequence.dyadic(), ArithmeticSequence.factorial(),
                 ArithmeticSequence.from_ratios(
                     [rng.randint(2, 9) for _ in range(30)])]
    ok = True
    for _ in range(1000):
        seq = rng.choice(sequences)
        k = rng.randint(1, 30)
        uk = seq.u(k)
        x = CircleRational.from_fraction(Fraction(rng.randrange(uk), uk))
        if reconstruct(expand(x, seq, k), k) != x:
            ok = False
            break
    report("1 expansion-round-trip", ok)


def test_2_digit_choice_inequality():
    lo, hi = Fraction(1, 4), Fraction(3, 4)
    ok = all(
        lo <= Fraction(digit_choice(q, v) * v % q, q) <= hi
        for q in range(2, 65) for v in range(1, q))
    report("2 digit-choice-inequality", ok)


def rows(cert):
    """The lemma rows of the certificate's verify report, and whether the
    reference enclosures lie within them."""
    _, rep = verify_certificate(cert)
    return rep["checks"], rep["blocks"], within_rows(cert.plan, rep["checks"], rep["blocks"])


def test_3_th6_reproduction(certificates):
    cert = certificates["th6"]
    checks, _, within = rows(cert)
    point = _assemble_expansion(cert.plan)
    ok = cert.passed and len(checks) == 16 and within
    ok = ok and all(c.passed for c in checks)
    ok = ok and all(TARGET[0] <= lo and hi <= TARGET[1]
                    for p, head, P in index_heads(cert.plan) for lo, hi in arc(head, p.v, P))
    ok = ok and membership_by_support(
        point, DENSITY).outcome is Outcome.MEMBER
    v = ideal_convergence(point, ScaledGeometric(3, 2), DENSITY,
                          depth=100_000, eps=Fraction(1, 8))
    ok = ok and v.outcome is not Outcome.NOT_MEMBER
    density = v.diagnostics["exceptional_prefix_density"]
    ok = ok and density <= Fraction(2, 100)
    report("3 th6-reproduction", ok)


def test_4_th2_reproduction(certificates):
    ok = True
    for p in (2, 3, 5):
        cert = certificates[f"th2-p{p}"]
        checks, _, within = rows(cert)
        floor = Fraction(p - 1, p * p)
        ok = ok and cert.passed and len(checks) == 12 and within
        ok = ok and all(c.passed for c in checks)
        ok = ok and all(dist_interval(arc(head, q.v, P))[0] > floor
                        for q, head, P in index_heads(cert.plan))
    report("4 th2-norm-floor", ok)


def test_5_th1_block_bounds(certificates):
    cert = certificates["th1"]
    _, blocks, within = rows(cert)
    ok = cert.passed and len(blocks) > 0 and within
    for b, ref in zip(blocks, block_checks(cert.plan)):
        majorant = 2 * Fraction(22, 7) * Fraction(1, b.j_from)
        ok = ok and b.passed and ref.upper_bound <= majorant and b.majorant == majorant
    report("5 th1-block-bounds", ok)


def test_6_decompose_oracle():
    ok = True
    for seq in (ArithmeticSequence.dyadic(), ArithmeticSequence.factorial()):
        values = []
        k = 0
        while seq.u(k) <= 10 ** 4:
            values.append(seq.u(k))
            k += 1
        for a in range(1, 10 ** 4 + 1):
            best = max(i for i, u in enumerate(values) if a % u == 0)
            d = decompose(seq, a)
            if d.k != best or d.v * seq.u(d.k) != a:
                ok = False
                break
    report("6 decompose-oracle", ok)


def test_7_nset_divergence():
    rep = nset_partial_sums(CircleRational.parse("1/3"), ScaledGeometric(1, 2),
                            WeightRule.harmonic(), depth=10 ** 4)
    harmonic = sum(Fraction(1, n) for n in range(1, 10 ** 4 + 1))
    ok = rep.norm_sum == harmonic / 3
    ok = ok and rep.norm_sum > 3
    ok = ok and rep.classification == "divergent-evidence"
    report("7 nset-divergence", ok)


def test_8_verdict_soundness():
    rng = random.Random(7)
    seq = ArithmeticSequence.dyadic()
    from thinset.core import DigitExpansion
    from thinset.sequences import ArithmeticTerms
    witness_family = Shifted(Geometric(2), 1)   # supports {2^k + 1}
    ok = True
    for _ in range(100):
        picks = sorted(rng.sample(range(1, 15), rng.randint(1, 6)))
        digits = {2 ** k + 1: 1 for k in picks}
        e = DigitExpansion(seq, digits, None, symbolic_support=witness_family)
        if membership_by_support(e, DENSITY).outcome is not Outcome.MEMBER:
            ok = False
            break
        depth = rng.choice([1000, 10_000, 100_000])
        v = ideal_convergence(e, ArithmeticTerms(seq), DENSITY, depth=depth)
        if v.outcome is Outcome.NOT_MEMBER:
            ok = False
            break
    report("8 verdict-soundness", ok)


def test_9_certificate_round_trip(certificates):
    ok = True
    for name, cert in certificates.items():
        doc = json.loads(json.dumps(cert.to_json()))
        back = WitnessCertificate.from_json(doc)
        verified, rep = verify_certificate(back)
        ok = ok and verified and rep["recomputed_pass"] is True
        ok = ok and back.to_json() == cert.to_json()
    report("9 certificate-round-trip", ok)

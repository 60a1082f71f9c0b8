import contextlib
import itertools
import json
import sys
from fractions import Fraction

import pytest

import cycle_reference
from thinset import convergence
from thinset._exact_text import exact_str
from thinset.convergence import (WeightRule, classical_convergence,
                                 ideal_convergence, membership_by_support,
                                 nset_partial_sums, weight_ideal_link)
from thinset.core import CircleRational, DigitExpansion
from thinset.ideals import (Geometric, IdealDescriptor, Outcome, Progression,
                            Shifted, descriptor_from_json)
from thinset.sequences import ArithmeticSequence, ArithmeticTerms, parse_terms

DENSITY = IdealDescriptor.density()


@contextlib.contextmanager
def int_digit_limit(digits):
    """Run the block under a given int-to-string digit limit (0: none)."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


class TestClassical:
    def test_one_third_recurs(self):
        report = classical_convergence(CircleRational.parse("1/3"),
                                       parse_terms("2^n"), depth=500)
        assert report.verdict.outcome is Outcome.NOT_MEMBER
        assert report.verdict.certificate == "periodic-recurrence"
        # ||2^n/3|| = 1/3 at every index
        top = report.stats[0]
        assert top.eps <= Fraction(1, 3)
        assert report.stats[-1].exceptional_count == 500

    def test_terminating(self):
        report = classical_convergence(CircleRational.parse("1/1024"),
                                       parse_terms("2^n"), depth=100)
        assert report.verdict.outcome is Outcome.MEMBER
        assert report.verdict.certificate == "terminating"
        assert report.stats[-1].last_exceptional is not None
        assert report.stats[-1].last_exceptional < 11

    def test_zero(self):
        report = classical_convergence(CircleRational.parse("0"),
                                       parse_terms("2^n"), depth=10)
        assert report.verdict.outcome is Outcome.MEMBER

    def test_truncated_expansion_definite_evidence(self):
        # x = sum 2^-k^2 truncated at k=6: exceptional indices cluster just
        # below each square
        seq = ArithmeticSequence.dyadic()
        digits = {k * k: 1 for k in range(1, 7)}
        e = DigitExpansion(seq, digits, depth=36)
        report = classical_convergence(e, parse_terms("2^n"), depth=400)
        assert report.verdict.outcome is Outcome.INCONCLUSIVE
        top = report.stats[0]
        assert top.definite_only
        assert top.exceptional_count > 0
        # each definite exceedance at eps=1/4 sits right below a square
        assert top.last_exceptional in {k * k - 1 for k in range(2, 7)} | \
            {k * k - 2 for k in range(2, 7)}

    def test_nested_exceptional_sets(self):
        report = classical_convergence(CircleRational.parse("7/17"),
                                       parse_terms("2^n"), depth=200)
        counts = [s.exceptional_count for s in report.stats]
        assert counts == sorted(counts)


@pytest.mark.parametrize("eps", [Fraction(-1), Fraction(-1, 10 ** 9), Fraction(0)])
def test_negative_eps_is_refused(eps):
    # ||a_n x|| >= eps holds for every n once eps <= 0, so it witnesses
    # nothing; at eps = 0 this case would be NotMember by periodic-recurrence
    # with a witness_eps of 0
    x, terms = CircleRational.parse("5/7"), parse_terms("3*2^n")
    with pytest.raises(ValueError, match="eps must be > 0"):
        classical_convergence(x, terms, 100, [Fraction(1, 4), eps])
    with pytest.raises(ValueError, match="eps must be > 0"):
        ideal_convergence(x, terms, DENSITY, 100, eps)


class TestIdealConvergence:
    def test_periodic_not_member(self):
        v = ideal_convergence(CircleRational.parse("1/3"), parse_terms("2^n"),
                              DENSITY, depth=1000, eps=Fraction(1, 4))
        assert v.outcome is Outcome.NOT_MEMBER
        assert v.diagnostics["exceptional_prefix_density"] == 1

    def test_zero_member(self):
        v = ideal_convergence(CircleRational.parse("0"), parse_terms("2^n"),
                              DENSITY, depth=10)
        assert v.outcome is Outcome.MEMBER

    def test_terminating_member_keeps_trace(self):
        v = ideal_convergence(CircleRational.parse("1/64"), parse_terms("2^n"),
                              DENSITY, depth=100)
        assert v.outcome is Outcome.MEMBER
        assert "exceptional_prefix_density" in v.diagnostics

    def test_support_rule_fast_path(self):
        seq = ArithmeticSequence.dyadic()
        e = DigitExpansion(seq, {4: 1, 16: 1}, None,
                           symbolic_support=Geometric(2))
        v = ideal_convergence(e, ArithmeticTerms(seq), DENSITY, depth=100)
        assert v.outcome is Outcome.MEMBER
        assert v.certificate == "support-rule"


    def test_cycle_resume_walks_once(self, monkeypatch):
        # 7 has order 252 mod 1009, so the depth-10 walk stops before the
        # period, and the cycle comes from one resumed walk
        walks = []
        real = convergence._Residues.blocks
        monkeypatch.setattr(convergence._Residues, "blocks",
                            lambda walk: walks.append(walk.start) or real(walk))
        terms = parse_terms("7^n")
        v = ideal_convergence(CircleRational(1, 1009), terms, DENSITY, depth=10)
        assert v.certificate == "periodic-recurrence"
        assert walks == [None, (10, 7 ** 10 % 1009)]    # the eps walk, then the resume
        mu, period, cycle = cycle_reference.detect_cycle(1, 1009, terms)
        s = descriptor_from_json(v.diagnostics["exceptional_set"])
        assert s.step == period
        assert list(itertools.takewhile(lambda n: n < mu + period, s.iter_members())) == \
            [mu + j for j, m in enumerate(cycle) if m >= v.diagnostics["witness_eps"]]


class TestMembershipBySupport:
    def test_shifted_geometric_support(self):
        seq = ArithmeticSequence.dyadic()
        e = DigitExpansion(seq, {3: 1, 5: 1}, None,
                           symbolic_support=Shifted(Geometric(2), 1))
        v = membership_by_support(e, DENSITY)
        assert v.outcome is Outcome.MEMBER

    def test_finite_support_member(self):
        seq = ArithmeticSequence.dyadic()
        e = DigitExpansion(seq, {2: 1, 7: 1}, None)
        assert membership_by_support(e, DENSITY).outcome is Outcome.MEMBER
        assert membership_by_support(e, IdealDescriptor.fin()).outcome \
            is Outcome.MEMBER

    def test_heavy_support_inconclusive(self):
        seq = ArithmeticSequence.dyadic()
        e = DigitExpansion(seq, {2: 1}, None,
                           symbolic_support=Progression(2, 2))
        v = membership_by_support(e, DENSITY)
        assert v.outcome is Outcome.INCONCLUSIVE


class TestNset:
    def test_zero_point(self):
        rep = nset_partial_sums(CircleRational.parse("0"), parse_terms("2^n"),
                                WeightRule.harmonic(), depth=100)
        assert rep.norm_sum == 0
        assert rep.classification == "bounded-evidence"

    def test_harmonic_third(self):
        rep = nset_partial_sums(CircleRational.parse("1/3"), parse_terms("2^n"),
                                WeightRule.harmonic(), depth=1000)
        harmonic = sum(Fraction(1, n) for n in range(1, 1001))
        assert rep.norm_sum == harmonic / 3
        assert rep.sin_lower == 2 * rep.norm_sum
        assert rep.sin_upper == Fraction(22, 7) * rep.norm_sum

    def test_checkpoints_nondecreasing(self):
        rep = nset_partial_sums(CircleRational.parse("5/7"), parse_terms("2^n"),
                                WeightRule.harmonic(), depth=1000)
        sums = [s for _, s in rep.checkpoints]
        assert sums == sorted(sums)

    def test_to_json_beyond_default_digit_limit(self):
        rep = nset_partial_sums(CircleRational.parse("1/3"), parse_terms("2^n"),
                                WeightRule.power(2), depth=10_000)
        with int_digit_limit(sys.int_info.default_max_str_digits):
            doc = json.loads(json.dumps(rep.to_json()))
        assert len(doc["norm_sum"]) > sys.int_info.default_max_str_digits
        with int_digit_limit(0):     # the wire text is what str() writes
            assert doc["norm_sum"] == str(rep.norm_sum)
            assert doc["checkpoints"] == [[n, str(s)] for n, s in rep.checkpoints]
            assert doc["sin_envelope"] == [str(rep.sin_lower), str(rep.sin_upper)]

    def test_exact_str_matches_str(self):
        values = [0, -7, 10 ** 5000, -(3 ** 20000), 2 ** 131073 + 1,
                  Fraction(-(2 ** 20000) - 1, 3 ** 9000), Fraction(5, 1), True]
        with int_digit_limit(sys.int_info.default_max_str_digits):
            texts = [exact_str(v) for v in values]
        with int_digit_limit(0):
            assert texts == [str(v) for v in values]

    @pytest.mark.parametrize("x,terms,weights,depth,label", [
        # 2^n*x is an integer from n = 20 on: the whole sum is the partial one
        ("349525/1048576", "2^n", "1", 10_000, "bounded-evidence"),
        ("1/3", "2^n", "1/n^2", 10_000, "bounded-evidence"),
        ("1/3", "2^n", "[1,1,1,1,1]", 5, "bounded-evidence"),
        # the residues repeat without a zero, so ||a_n x|| >= 1/den for ever
        ("1/3", "2^n", "1/n", 100, "divergent-evidence"),
        ("5/7", "3*2^n", "1", 10, "divergent-evidence"),
        # 2 has order 100 mod 101: the walk reaches depth 50 before it repeats
        ("1/101", "2^n", "1/n", 50, "inconclusive"),
        ("1/3", "[1,2,4,8]", "1/n", 4, "inconclusive"),
    ])
    def test_classification_is_a_proof(self, x, terms, weights, depth, label):
        rep = nset_partial_sums(CircleRational.parse(x), parse_terms(terms),
                                WeightRule.parse(weights), depth)
        assert rep.classification == label
        if x == "349525/1048576":
            assert rep.norm_sum == Fraction(3378745, 524288)

    def test_truncated_point_rejected(self):
        seq = ArithmeticSequence.dyadic()
        from thinset.core import expand
        e = expand(CircleRational.parse("1/3"), seq, 8)
        with pytest.raises(ValueError):
            nset_partial_sums(e, parse_terms("2^n"), WeightRule.harmonic())


class TestWeightRule:
    def test_parse(self):
        assert WeightRule.parse("1").value(5) == 1
        assert WeightRule.parse("1/n").value(4) == Fraction(1, 4)
        assert WeightRule.parse("1/n^2").value(3) == Fraction(1, 9)
        assert WeightRule.parse("[1/2,1/3]").value(2) == Fraction(1, 3)

    def test_negative_weight_refused(self):
        # weights 1, -1, 1, ... cancel the sum at 1/3 under 2^n to 0
        for values in ([1, -1] * 6, [-1, -1, -1], [Fraction(0), Fraction(-1, 7)]):
            with pytest.raises(ValueError, match="explicit weights must be >= 0"):
                WeightRule.explicit(values)
        with pytest.raises(ValueError, match="explicit weights must be >= 0"):
            WeightRule.parse("[1/2,-1/3]")
        assert WeightRule.explicit([0, 1]).values == (0, 1)

    def test_json_round_trip(self):
        for w in (WeightRule.harmonic(), WeightRule.power(2),
                  WeightRule.explicit([Fraction(1, 2)])):
            doc = w.to_json()
            assert WeightRule(doc["kind"],
                              exponent=doc.get("exponent"),
                              values=doc.get("values")) == w


class TestWeightIdealLink:
    def test_table(self):
        harmonic = WeightRule.harmonic()
        assert weight_ideal_link(harmonic, DENSITY).outcome is Outcome.MEMBER
        assert weight_ideal_link(
            harmonic, IdealDescriptor.summable()).outcome is Outcome.MEMBER
        assert weight_ideal_link(
            WeightRule.power(2), DENSITY).outcome is Outcome.NOT_MEMBER
        assert weight_ideal_link(
            harmonic, IdealDescriptor.fin()).outcome is Outcome.NOT_MEMBER
        assert weight_ideal_link(
            WeightRule.explicit([Fraction(1)]), DENSITY).outcome \
            is Outcome.INCONCLUSIVE

    def test_counterexample_attached(self):
        v = weight_ideal_link(WeightRule.power(2), DENSITY)
        assert "counterexample" in v.diagnostics

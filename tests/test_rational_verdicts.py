"""Closed-form verdicts for rational points and exact nset sums, checked
against brute-force oracles on small cases."""

import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import cycle_reference
import thinset
from thinset import convergence, witness
from thinset._exact_text import exact_str
from thinset.convergence import (_FACTOR_BOUND, DEFAULT_EPS_GRID, WeightRule,
                                 classical_convergence, ideal_convergence,
                                 nset_partial_sums)
from thinset.core import CircleRational, DigitExpansion, reconstruct_exact
from thinset.ideals import IdealDescriptor, Outcome, Progression, descriptor_from_json
from thinset.sequences import (ArithmeticSequence, ArithmeticTerms,
                               ExplicitTerms, ScaledGeometric, _Divisibility,
                               _divisibility_of, multiplier_chain, multipliers,
                               parse_sequence, parse_terms, phase_period)

IDEALS = (IdealDescriptor.fin(), IdealDescriptor.density(),
          IdealDescriptor.summable())

scaled = st.builds(ScaledGeometric, st.integers(1, 12), st.integers(2, 12))
# a cycled list repeats q_1, so every ratio is >= 2; n! is the chain with q_1 = 1
ratio_chains = st.lists(st.integers(2, 9), min_size=1, max_size=4).map(
    lambda ratios: ArithmeticTerms(ArithmeticSequence.from_ratios(ratios)))
factorial = st.just(ArithmeticTerms(ArithmeticSequence.factorial()))


def brute_zero_from(terms, den: int):
    """Least n with den | a_n by a direct scan of a_n mod den, or None when no
    residue is 0 over one full cycle: the states (a_n mod den, phase) repeat
    within den*period steps, and n! is divisible by den from n = den on."""
    if isinstance(terms, ScaledGeometric):
        t, horizon = terms.scale * terms.base, den + 1
        mult = lambda n: terms.base
    elif terms.seq.spec == ("factorial",):
        t, horizon = 1, den
        mult = lambda n: n + 1
    else:
        ratios = terms.seq.spec[1]
        t, horizon = ratios[0], den * len(ratios) + 1
        mult = lambda n: ratios[n % len(ratios)]
    t %= den
    for n in range(1, horizon + 1):
        if t == 0:
            return n
        t = t * mult(n) % den
    return None


@settings(max_examples=200, deadline=None)
@given(terms=st.one_of(scaled, ratio_chains, factorial),
       num=st.integers(1, 10 ** 6), den=st.integers(2, 300))
def test_valuation_walk_matches_scan(terms, num, den):
    x = CircleRational.from_fraction(Fraction(num, den))
    assume(x.num != 0)
    expected = brute_zero_from(terms, x.den)
    verdict = classical_convergence(x, terms, depth=5).verdict
    if expected is not None:
        assert verdict.outcome is Outcome.MEMBER
        assert verdict.certificate == "terminating"
        assert verdict.diagnostics["zero_from"] == expected
        return
    assert verdict.outcome is Outcome.NOT_MEMBER
    assert verdict.certificate == "periodic-recurrence"
    # with no room for the cycle walk, the valuation walk alone decides
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(convergence, "_CYCLE_STATE_CAP", 0)
        verdict = classical_convergence(x, terms, depth=5).verdict
    assert verdict.outcome is Outcome.NOT_MEMBER
    assert verdict.certificate == "never-integral"
    assert verdict.diagnostics["norm_floor"] == Fraction(1, x.den)


@settings(max_examples=100, deadline=None)
@given(ratios=st.lists(st.integers(2, 9), min_size=1, max_size=8),
       den=st.integers(2, 3000))
def test_finite_ratio_list_walk_matches_scan(ratios, den):
    terms = ArithmeticTerms(ArithmeticSequence.from_ratios(ratios, cycle=False))
    expected = next((n for n in range(1, len(ratios) + 1)
                     if math.prod(ratios[:n]) % den == 0), None)
    verdict = classical_convergence(CircleRational(1, den), terms, depth=1).verdict
    if expected is None:
        assert verdict.outcome is Outcome.INCONCLUSIVE
        assert "finite ratio list" in verdict.diagnostics["note"]
    else:
        assert verdict.outcome is Outcome.MEMBER
        assert verdict.diagnostics["zero_from"] == expected


def test_beyond_cycle_cap_never_integral():
    x = CircleRational(1, 1_000_003)
    terms = parse_terms("2^n")
    report = classical_convergence(x, terms, depth=100)
    assert report.verdict.outcome is Outcome.NOT_MEMBER
    assert report.verdict.certificate == "never-integral"
    for ideal in IDEALS:
        v = ideal_convergence(x, terms, ideal, depth=100)
        assert v.outcome is Outcome.NOT_MEMBER
        assert v.certificate == "never-integral"
        assert v.diagnostics["witness_eps"] == Fraction(1, 1_000_003)
        assert v.diagnostics["exceptional_set"] == Progression(1, 1).to_json()


def test_beyond_cycle_cap_factorial_member():
    report = classical_convergence(CircleRational(1, 1_000_003), parse_terms("n!"),
                                   depth=100)
    assert report.verdict.outcome is Outcome.MEMBER
    assert report.verdict.diagnostics["zero_from"] == 1_000_003


def test_th6_count_16_point_zero_from():
    ks = [2] + [2 ** (i + 1) for i in range(2, 17)]
    point = DigitExpansion(ArithmeticSequence.dyadic(), {k + 1: 1 for k in ks})
    v = ideal_convergence(point, ScaledGeometric(3, 2), IdealDescriptor.density(),
                          depth=50)
    assert v.outcome is Outcome.MEMBER and v.certificate == "terminating"
    assert v.diagnostics["zero_from"] == 131_073


def test_th6_count_20_point_reduces_in_linear_time():
    # x = N/2**2097153: the reduction and the coprimality check of a dyadic
    # denominator are shifts, where two quadratic gcds took about 15 s
    ks = [2] + [2 ** i for i in range(3, 22)]
    point = DigitExpansion(ArithmeticSequence.dyadic(), {k + 1: 1 for k in ks})
    start = time.perf_counter()
    x = reconstruct_exact(point)
    assert time.perf_counter() - start < 1.0
    assert x.den == 1 << 2_097_153
    v = ideal_convergence(point, ScaledGeometric(3, 2), IdealDescriptor.density(),
                          depth=100_000)
    assert v.outcome is Outcome.MEMBER and v.certificate == "terminating"
    assert v.diagnostics["zero_from"] == 2_097_153


MERSENNE_61 = 2 ** 61 - 1
# small primes and primes far past any trial-division bound
PRIMES = (2, 3, 5, 1_000_003, 2 ** 31 - 1, MERSENNE_61)
def exponents(top):
    return st.lists(st.integers(0, top), min_size=len(PRIMES), max_size=len(PRIMES))


@settings(max_examples=300, deadline=None)
@given(r_exps=exponents(9), mult_exps=st.lists(exponents(4), min_size=1, max_size=4))
def test_divisibility_matches_prime_valuations(r_exps, mult_exps):
    """The coprime-basis kernel against the same question answered from
    known prime exponents, for a_1 = 1: rest is r's part at the primes no
    multiplier has, and the index is one past the least k with v_p(r) <=
    sum of v_p over m(1..k) at every other prime."""
    r = math.prod(p ** e for p, e in zip(PRIMES, r_exps))
    mults = [math.prod(p ** e for p, e in zip(PRIMES, exps)) for exps in mult_exps]
    period = len(mults)
    covered = [any(exps[i] for exps in mult_exps) for i in range(len(PRIMES))]
    rest = math.prod(p ** e for p, e, c in zip(PRIMES, r_exps, covered) if not c)
    need = [e if c else 0 for e, c in zip(r_exps, covered)]
    have, k = [0] * len(PRIMES), 0
    while any(h < e for h, e in zip(have, need)):
        have = [h + v for h, v in zip(have, mult_exps[k % period])]
        k += 1
    assert _Divisibility(1, mults).zero_from(r, _FACTOR_BOUND) == (k + 1, rest)


def test_divisibility_splits_shared_factors():
    # 8 and 4 share the prime 2: only the refined basis {2} counts 2^8 right
    assert _Divisibility(1, [8, 4]).zero_from(2 ** 8, _FACTOR_BOUND) == (4, 1)
    assert _Divisibility(1, [12, 18, 8]).zero_from(2 ** 7 * 3, _FACTOR_BOUND) == (5, 1)
    # 7 divides no multiplier: it is the rest, and 2^8 still sets the start
    assert _Divisibility(1, [8, 4]).zero_from(2 ** 8 * 7 ** 2, _FACTOR_BOUND) == (4, 49)


CHAINS = (ArithmeticSequence.dyadic(), ArithmeticSequence.geometric(3),
          ArithmeticSequence.from_ratios([2, 3, 5]))
finite_lists = st.lists(st.integers(2, 9), min_size=1, max_size=8).map(
    lambda ratios: ArithmeticSequence.from_ratios(ratios, cycle=False))
kernel_terms = st.one_of(scaled, factorial, st.sampled_from(CHAINS).map(ArithmeticTerms),
                         finite_lists.map(ArithmeticTerms))


def scan_least(terms, D: int):
    """Least n with D | a_n by a walk of a_n mod D: a periodic chain's states
    (a_n mod D, phase) repeat within D*period steps, D | n! from n = D on,
    and a finite list ends with its terms."""
    first, mult = multiplier_chain(terms)
    if period := phase_period(terms):
        horizon = D * period + 1
    elif terms.seq.spec[0] == "ratios-finite":
        horizon = len(terms.seq.spec[1])
    else:
        horizon = D
    t = first % D
    for n in range(1, horizon + 1):
        if t == 0:
            return n
        if n < horizon:
            t = t * mult(n) % D
    return None


def kernel_least(terms, D: int):
    """The kernel's least n with D | a_n, None where it proves there is none."""
    n, rest = _divisibility_of(terms).zero_from(D, _FACTOR_BOUND)
    return n if rest == 1 else None


@settings(max_examples=300, deadline=None)
@given(terms=kernel_terms, D=st.integers(1, 400))
def test_divisibility_kernel_matches_scan(terms, D):
    assert kernel_least(terms, D) == scan_least(terms, D)


@settings(max_examples=300, deadline=None)
@given(seq=st.one_of(st.sampled_from(CHAINS + (ArithmeticSequence.factorial(),)),
                     finite_lists),
       terms=kernel_terms, L=st.integers(0, 12))
def test_divisibility_kernel_matches_planner_least(seq, terms, L):
    """For D = u_L the verdict's kernel and the planner's seek give the same
    least n, on every pair whose chain index comes from valuations."""
    assume(terms != ArithmeticTerms(seq) and not (
        isinstance(terms, ArithmeticTerms) and terms.seq.spec[0] == "ratios-finite"))
    if seq.spec[0] == "ratios-finite":
        L = min(L, len(seq.spec[1]))
    assert witness._chain_index(seq, terms).least(L, 0) == kernel_least(terms, seq.u(L))


def test_large_prime_base_keeps_parent_verdict():
    terms = parse_terms(f"{MERSENNE_61}^n")
    v = classical_convergence(CircleRational(1, 3), terms, depth=10).verdict
    assert v.outcome is Outcome.NOT_MEMBER
    assert v.certificate == "periodic-recurrence"
    assert v.diagnostics == {"cycle_start": 1, "period": 1,
                             "recurring_norm": Fraction(1, 3)}
    v = classical_convergence(CircleRational(1, MERSENNE_61 ** 2), terms,
                              depth=10).verdict
    assert v.outcome is Outcome.MEMBER
    assert v.diagnostics["zero_from"] == 2


def test_inconclusive_names_its_limit():
    v = classical_convergence(CircleRational(1, 7), ExplicitTerms([2, 3, 5]),
                              depth=3).verdict
    assert v.outcome is Outcome.INCONCLUSIVE
    assert "multiplicative" in v.diagnostics["note"]
    # two primes past the trial-division bound: n! is reached, but where
    # cannot be proven without factoring
    v = ideal_convergence(CircleRational(1, 400_009 * 400_031), parse_terms("n!"),
                          IdealDescriptor.density(), depth=3)
    assert v.outcome is Outcome.INCONCLUSIVE
    assert "trial division up to 400000" in v.diagnostics["note"]


# ---------------------------------------------------------------------------
# The residue-cycle walk against a term-by-term scan
# ---------------------------------------------------------------------------

WALK_TERMS = {
    "dyadic": ArithmeticTerms(parse_sequence("dyadic")),
    "geometric:3": ArithmeticTerms(parse_sequence("geometric:3")),
    "[2,3,5]": ArithmeticTerms(parse_sequence("[2,3,5]")),
    "[4,9]": ArithmeticTerms(parse_sequence("[4,9]")),
    "5*6^n": ScaledGeometric(5, 6),
    "n!": ArithmeticTerms(ArithmeticSequence.factorial()),
    # consecutive integers: a zero residue at n = d*k is followed by 1/d
    "explicit": ExplicitTerms(range(2, 402)),
}


def block_edges(top: int) -> list[int]:
    """The last position of each block of a stopping walk from n = 1 with no
    quiet run, up to past top: the start alone, then each time the first
    save point (a power of two) at least _FIRST_BLOCK positions on, or
    _BLOCK_CAP positions on if that is nearer."""
    edges, save = [1], 2
    while edges[-1] < top:
        while save < edges[-1] + convergence._FIRST_BLOCK:
            save *= 2
        edges.append(min(edges[-1] + convergence._BLOCK_CAP, save))
    return edges


def landmark_depths(terms, num: int, den: int, top: int) -> list[int]:
    """Depths just before the cycle's start, at its first repeat, next to
    powers of two (where the walk saves its state) and next to block edges,
    up to top."""
    if phase_period(terms) is not None:
        mu, period, _ = cycle_reference.detect_cycle(num, den, terms)
        marks = [mu - 1, mu + period - 1, mu + period, mu + period + 1]
    else:   # n! and the list: the first zero residue
        zero = next((n for n in range(1, top + 1) if terms.term(n) * num % den == 0), top)
        marks = [zero - 1, zero, zero + 1]
    marks += [2 ** j + s for j in range(1, top.bit_length()) for s in (-1, 1)]
    marks += [e + s for e in block_edges(top) for s in (-1, 0, 1)]
    return sorted({d for d in marks if 1 <= d <= top})


def brute_norms(terms, num: int, den: int, depth: int) -> list[int]:
    """den*||a_n x|| for n = 1..depth from a_n itself: no chain, no stop."""
    return [min(r, den - r) for r in (terms.term(n) * num % den
                                      for n in range(1, depth + 1))]


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(WALK_TERMS)), num=st.integers(0, 10 ** 6),
       den=st.integers(1, 400), data=st.data())
@example(name="explicit", num=1, den=2, data=None)
def test_eps_stats_match_brute_walk(name, num, den, data):
    terms = WALK_TERMS[name]
    x = CircleRational.from_fraction(Fraction(num, den))
    top = 300 if name in ("n!", "explicit") else 2000
    depths = landmark_depths(terms, x.num, x.den, top)
    depth = depths[-1] if data is None else data.draw(st.sampled_from(depths))
    norms = brute_norms(terms, x.num, x.den, depth)

    def expected(eps):
        hits = [n for n, m in enumerate(norms, 1)
                if m * eps.denominator >= eps.numerator * x.den]
        return len(hits), hits[-1] if hits else None, Fraction(len(hits), depth)

    stats = classical_convergence(x, terms, depth).stats
    assert [s.eps for s in stats] == sorted(DEFAULT_EPS_GRID, reverse=True)
    for s in stats:
        assert (s.exceptional_count, s.last_exceptional, s.prefix_density) == expected(s.eps)
    for eps in DEFAULT_EPS_GRID:
        v = ideal_convergence(x, terms, IdealDescriptor.density(), depth, eps)
        if x.num == 0:
            assert v.certificate == "zero"
            continue
        d = v.diagnostics
        assert (d["exceptional_count"], d["last_exceptional"],
                d["exceptional_prefix_density"]) == expected(eps)
        if v.certificate == "periodic-recurrence":
            # the positions from the cycle's start on whose norm reaches the
            # witness eps, against the brute walk to the depth and one period
            mu, period, cycle = cycle_reference.detect_cycle(x.num, x.den, terms)
            witness = min(eps, max(cycle))
            assert d["witness_eps"] == witness
            s = descriptor_from_json(d["exceptional_set"])
            top = max(depth, mu + period)
            walk = brute_norms(terms, x.num, x.den, top)
            assert s.step == period
            assert list(itertools.takewhile(lambda m: m <= top, s.iter_members())) == \
                [n for n in range(mu, top + 1) if walk[n - 1] >= witness * x.den]


def test_zero_residue_followed_by_nonzero_is_walked():
    # [2, 3, 4] at x = 1/2: norms 0, 1/2, 0, so the list has no zero stop
    stats = classical_convergence(CircleRational(1, 2), ExplicitTerms([2, 3, 4]),
                                  3, [Fraction(1, 4)]).stats
    assert (stats[0].exceptional_count, stats[0].last_exceptional) == (1, 2)


def test_zero_stop_ends_the_walk():
    # 720 | 6!, so n! reaches the zero residue at n = 6, whatever the depth
    walk = convergence._Residues(1, 720, parse_terms("n!"), 10 ** 9, stop=True)
    assert [n for n, _ in walk] == [1, 2, 3, 4, 5, 6]
    assert walk.repeat == (6, 0, 1)
    # the multipliers a full walk asks for still raise: a finite list has to
    # reach the depth, and a cycled list with a ratio below 2 is refused even
    # at x = 0, whose residues are all zero
    finite = ArithmeticTerms(ArithmeticSequence.from_ratios([2, 3], cycle=False))
    with pytest.raises(ValueError, match="only 2 ratios"):
        classical_convergence(CircleRational(1, 2), finite, 3)
    cycled = ArithmeticTerms(ArithmeticSequence.from_ratios([2, 1]))
    with pytest.raises(ValueError, match="q_2 must be >= 2"):
        classical_convergence(CircleRational(0, 1), cycled, 5)


def rational_pass(x, terms, depth):
    """The verdict and cycle of one classical call's ε-walk pass."""
    _, walked = convergence._eps_stats(x, terms, depth, DEFAULT_EPS_GRID)
    return convergence._rational_verdict(x, terms, walked)


@settings(max_examples=200, deadline=None)
@given(terms=st.one_of(scaled, ratio_chains), num=st.integers(0, 10 ** 6),
       den=st.integers(1, 3000))
def test_brent_cycle_matches_state_dict(terms, num, den):
    """The cycle from the ε-walk's repeat and the start from valuations,
    against the state dict: from a walk that repeats within its depth, and
    from one that reaches depth 1 first and walks on."""
    assume(den * phase_period(terms) <= convergence._CYCLE_STATE_CAP)
    mu, period, norms = cycle_reference.detect_cycle(num % den, den, terms)
    x = CircleRational.from_fraction(Fraction(num, den))
    for depth in (1, 3 * den * phase_period(terms)):
        verdict, cycle = rational_pass(x, terms, depth)
        if cycle is not None:
            assert verdict.certificate == "periodic-recurrence"
            assert (cycle.mu, cycle.period) == (mu, period)
            assert tuple(Fraction(m, x.den) for m in cycle.norms) == norms
        else:   # the states enter (0, phase) at the first zero residue
            assert verdict.certificate in ("zero", "terminating")
            assert verdict.diagnostics.get("zero_from", 1) == mu
            assert period == phase_period(terms) and not any(norms)


def test_period_beyond_depth_under_the_cap():
    # 2 has order 10036 mod the prime 10037: the ε-walk at depth 50 ends long
    # before the states repeat, though den*period is under the cap
    x, terms = CircleRational(1, 10_037), parse_terms("2^n")
    _, (h, lam, _) = convergence._eps_stats(x, terms, 50, DEFAULT_EPS_GRID)
    assert (h, lam) == (50, None)
    verdict, cycle = rational_pass(x, terms, 50)
    mu, period, norms = cycle_reference.detect_cycle(1, 10_037, terms)
    assert (cycle.mu, cycle.period) == (mu, period)
    assert tuple(Fraction(m, x.den) for m in cycle.norms) == norms
    # 2^n runs through every nonzero residue, 5018 = (10037 - 1)/2 included
    assert verdict.diagnostics == {"cycle_start": 1, "period": 10_036,
                                   "recurring_norm": Fraction(5018, 10_037)}


def test_one_walk_pass_per_call(monkeypatch):
    """A classical or an ideal call walks the residues at most twice: the
    ε-walk and its one-period re-walk.  The cycle's start takes no walk."""
    starts = []
    walk = convergence._Residues.blocks

    def counted(self):
        starts.append(self.start)
        return walk(self)
    monkeypatch.setattr(convergence._Residues, "blocks", counted)
    terms = ArithmeticTerms(parse_sequence("[2,3,5]"))
    x = CircleRational(640, 699)
    report = classical_convergence(x, terms, 10 ** 4)
    assert report.verdict.certificate == "periodic-recurrence"
    assert len(starts) == 2 and starts[0] is None
    starts.clear()
    v = ideal_convergence(x, terms, IdealDescriptor.density(), 10 ** 4)
    assert v.certificate == "periodic-recurrence"
    assert len(starts) == 2 and starts[0] is None
    # the re-walk starts past the cycle's start, so no walk looked for it
    mu = report.verdict.diagnostics["cycle_start"]
    assert mu > 1 and starts[1][0] >= mu


# first repeats next to block edges (see block_edges): with the states saved
# at 16, 32, 64 and 128, each x = 1/d repeats first at the position keyed
EDGE_REPEATS = {32: (257, "2^n"), 33: (2 * 3 ** 17, "3^n"),
                64: (65537, "2^n"), 65: (2 * 3 ** 33, "3^n"),
                128: (641, "2^n"), 129: (2 * 3 ** 65, "3^n"),
                192: (2 ** 70 * 641, "2^n"), 193: (145295143558111, "2^n")}
# eps >= 1/2 puts floors at and past d/2, and eps = 2 a floor past d
EDGE_GRIDS = (DEFAULT_EPS_GRID, (Fraction(1, 2),), (Fraction(1, 64), Fraction(3, 4), Fraction(2)))


@pytest.mark.parametrize("cap", [convergence._BLOCK_CAP, 64])
def test_walk_at_block_edges(monkeypatch, cap):
    """Zero residues and first repeats on either side of each block edge up
    to 250, the cap's own edge included (1, 32, 64, 128, 192, ... under a
    cap of 64): the stats on EDGE_GRIDS against the brute walk, and the
    repeat's period and the cycle against the state dict."""
    monkeypatch.setattr(convergence, "_BLOCK_CAP", cap)
    edges = [e for e in block_edges(250)[1:] if e < 250]
    # 1/2^k under 2^n and 1/k! under n! reach the zero residue at n = k
    points = [(d, spec) for e in edges for k in (e, e + 1)
              for d, spec in ((2 ** k, "2^n"), (math.factorial(k), "n!"))]
    points += EDGE_REPEATS.values()
    depth, zeros, repeats = 260, set(), set()
    for den, spec in points:
        x, terms = CircleRational(1, den), parse_terms(spec)
        norms = brute_norms(terms, 1, den, depth)
        for grid in EDGE_GRIDS:
            for s in classical_convergence(x, terms, depth, grid).stats:
                hits = [n for n, m in enumerate(norms, 1)
                        if m * s.eps.denominator >= s.eps.numerator * den]
                assert (s.exceptional_count, s.last_exceptional) == \
                    (len(hits), hits[-1] if hits else None), (den, spec, s.eps)
        walk = convergence._Residues(1, den, terms, depth, stop=True)
        for _ in walk:
            pass
        h, t, lam = walk.repeat
        if t == 0:
            assert (h, lam) == (norms.index(0) + 1, 1)
            zeros.add(h)
            continue
        mu, period, cycle = cycle_reference.detect_cycle(1, den, terms)
        assert lam == period
        repeats.add(h + lam)
        _, found = rational_pass(x, terms, depth)
        if found is not None:   # den*period within the cycle cap
            assert (found.mu, found.period) == (mu, period)
            assert tuple(Fraction(m, den) for m in found.norms) == cycle
    sides = {e + s for e in edges for s in (0, 1)}
    assert sides <= zeros and sides <= repeats


# the call of test_long_walk_memory_is_one_block, run in a fresh interpreter:
# it prints the outcome, the certificate and how far the call raised the
# process's peak resident set, VmHWM in kB.  Unlike ru_maxrss, which keeps
# the peak of the process that exec'd it, VmHWM starts afresh at exec.
LONG_WALK = """
import json, re
from thinset.convergence import ideal_convergence
from thinset.core import CircleRational
from thinset.ideals import IdealDescriptor
from thinset.sequences import parse_terms
def peak():
    with open("/proc/self/status") as status:
        return int(re.search(r"VmHWM:\\s*(\\d+) kB", status.read()).group(1))
x, terms, ideal = CircleRational(749957, 1162729), parse_terms("2^n"), IdealDescriptor.density()
ideal_convergence(x, terms, ideal, depth=100)
before = peak()
v = ideal_convergence(x, terms, ideal, depth=10 ** 7)
print(json.dumps([v.outcome.value, v.certificate, peak() - before]))
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="the peak resident set is read from Linux's /proc")
def test_long_walk_memory_is_one_block():
    # the residues of 749957*2^n mod 1162729 repeat with period 290682, and
    # den*period is past the cycle cap: the eps-walk at depth 10^7 walks
    # 817 034 positions and re-walks one period, about 1.1 M in all, and
    # holds one block of residues at a time.  A walk that held every
    # residue would raise the peak by about 40 MiB (28-byte ints and list
    # slots); one block at a time raises it by less than 4 MiB
    src = pathlib.Path(thinset.__file__).parents[1]
    path = [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    run = subprocess.run([sys.executable, "-c", LONG_WALK], env=env, capture_output=True,
                         text=True, timeout=60, check=True)
    outcome, certificate, grown = json.loads(run.stdout)
    assert (outcome, certificate) == (Outcome.NOT_MEMBER.value, "never-integral")
    assert grown < 4 * 2 ** 10


def test_cycle_count_is_depth_independent():
    terms = ArithmeticTerms(parse_sequence("[2,3,5]"))
    x, depth, eps = CircleRational(640, 699), 10 ** 8, Fraction(1, 8)
    start = time.perf_counter()
    v = ideal_convergence(x, terms, IdealDescriptor.density(), depth, eps)
    assert time.perf_counter() - start < 1
    assert (v.outcome, v.certificate) == (Outcome.NOT_MEMBER, "periodic-recurrence")
    # the pre-period once, then each cycle position as often as it fits
    mu, period, norms = cycle_reference.detect_cycle(x.num, x.den, terms)
    head = [n for n, m in enumerate(brute_norms(terms, x.num, x.den, mu - 1), 1)
            if m * eps.denominator >= eps.numerator * x.den]
    tail = [mu + j for j, norm in enumerate(norms) if norm >= eps]
    count = len(head) + sum((depth - h) // period + 1 for h in tail)
    last = max(h + (depth - h) // period * period for h in tail)
    assert (v.diagnostics["exceptional_count"], v.diagnostics["last_exceptional"]) \
        == (count, last)


# ---------------------------------------------------------------------------
# The quiet walk: runs of residues below ceil(eps_min*d) are stepped over
# ---------------------------------------------------------------------------

QUIET_TERMS = {name: WALK_TERMS[name]
               for name in ("dyadic", "geometric:3", "[2,3,5]", "5*6^n", "n!")}
QUIET_TERMS["3*2^n"] = ScaledGeometric(3, 2)


@st.composite
def quiet_points(draw):
    """Exact points whose residues run far below d between a few positions:
    sparse expansions over a chain, plus odd dens of 200-3000 bits (d much
    larger than a_depth) and small dens, whose cycles fit in the walk."""
    kind = draw(st.sampled_from(("sparse", "wide", "small")))
    if kind == "sparse":
        seq = parse_sequence(draw(st.sampled_from(("dyadic", "geometric:3", "[2,3,5]"))))
        digits = draw(st.dictionaries(st.integers(1, 1500), st.integers(1, 10 ** 6),
                                      min_size=1, max_size=5))
        digits = {k: c % seq.q(k) or 1 for k, c in digits.items()}
        return reconstruct_exact(DigitExpansion(seq, digits))
    if kind == "wide":
        den = draw(st.integers(2 ** 199, 2 ** 3000)) | 1
    else:
        den = draw(st.integers(1, 5000))
    return CircleRational.from_fraction(Fraction(draw(st.integers(0, den - 1)), den))


def quiet_grid(data, den: int) -> list[Fraction]:
    """A grid holding eps = 0 (nothing is quiet), 1/2, or an eps whose
    ceil(eps*d) is a power of two."""
    kind = data.draw(st.sampled_from(("zero", "half", "power")))
    if kind == "zero":
        return [Fraction(0), Fraction(1, 8)]
    if kind == "half":
        return [Fraction(1, 2)]
    j = data.draw(st.integers(0, max(0, den.bit_length() - 2)))
    return [Fraction(1, 4), Fraction(2 ** j, den)]


# two digits over [2,3,5] (d = u_450, about 2^737): the quiet runs before and
# between them span over a hundred periods under [2,3,5] and under 5*6^n
TWO_DIGIT_POINT = reconstruct_exact(DigitExpansion(parse_sequence("[2,3,5]"),
                                                   {150: 1, 450: 1}))


@settings(max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(QUIET_TERMS)), x=quiet_points(), data=st.data())
@example(name="3*2^n", x=CircleRational(2 ** 40 + 1, 2 ** 41), data=None)
@example(name="[2,3,5]", x=TWO_DIGIT_POINT, data=None)
@example(name="5*6^n", x=TWO_DIGIT_POINT, data=None)
def test_quiet_walk_matches_plain_walk(name, x, data):
    terms = QUIET_TERMS[name]
    num, den = x.num, x.den
    top = 200 if name == "n!" else 600
    if data is None:
        depth, grid = top, [Fraction(1, 8)]
    else:
        depth, grid = data.draw(st.integers(1, top)), quiet_grid(data, den)
    floors = sorted(-(-e.numerator * den // e.denominator) for e in grid)
    quiet = min(floors[0], den)
    walk = convergence._Residues(num, den, terms, depth, stop=True, quiet=quiet)
    got = list(walk)
    plain = convergence._Residues(num, den, terms, depth, stop=True)
    for _ in plain:
        pass
    residues = [terms.term(n) * num % den for n in range(1, depth + 1)]
    # every yielded position lies on the walk, and none at or above quiet
    # before the walk's end is missing
    assert all(residues[n - 1] == t for n, t in got)
    end = depth if walk.repeat is None else walk.repeat[0] + walk.repeat[2] - 1
    assert [(n, t) for n, t in got if t >= quiet] == \
        [(n, t) for n, t in enumerate(residues[:end], 1) if t >= quiet]
    if walk.repeat is not None:
        h, t_h, lam = walk.repeat
        assert residues[h - 1] == t_h
        assert all(residues[p - 1] == residues[p - 1 - lam]
                   for p in range(h + lam, depth + 1))
        if plain.repeat is not None:
            assert lam == plain.repeat[2]
    stats, _ = convergence._eps_stats(x, terms, depth, grid)
    norms = [min(r, den - r) for r in residues]
    for s in stats:
        hits = [n for n, m in enumerate(norms, 1)
                if m * s.eps.denominator >= s.eps.numerator * den]
        assert (s.exceptional_count, s.last_exceptional) == \
            (len(hits), hits[-1] if hits else None)


def test_sparse_point_walk_yields_near_its_digits():
    # the count-16 th6 point over the dyadic chain: one unit digit at each
    # k + 1, and ||3*2^n x|| far below 1/64 between the digits
    ks = [2] + [2 ** i for i in range(3, 18)]
    x = reconstruct_exact(DigitExpansion(ArithmeticSequence.dyadic(),
                                         {k + 1: 1 for k in ks}))
    terms = ScaledGeometric(3, 2)
    quiet = -(-x.den // 64)
    walk = convergence._Residues(x.num, x.den, terms, 10 ** 5, stop=True, quiet=quiet)
    assert sum(1 for _ in walk) <= 40 * 16
    # against a walk of every residue, doubled one at a time
    depth, den = 10 ** 4, x.den
    norms, r = [], 3 * x.num % den
    for _ in range(depth):
        r = 2 * r - den if 2 * r >= den else 2 * r
        norms.append(min(r, den - r))
    for s in classical_convergence(x, terms, depth).stats:
        hits = [n for n, m in enumerate(norms, 1)
                if m * s.eps.denominator >= s.eps.numerator * den]
        assert (s.exceptional_count, s.last_exceptional) == (len(hits), hits[-1])


def test_quiet_walk_keeps_the_least_period():
    # 2^n mod 2^40 - 1 cycles through the powers 2^0 .. 2^39; the runs below
    # d/64 are stepped over, and a landing still meets the saved state
    d = 2 ** 40 - 1
    walk = convergence._Residues(1, d, ScaledGeometric(1, 2), 10 ** 6, stop=True,
                                 quiet=-(-d // 64))
    assert sum(1 for _ in walk) < 40
    assert walk.repeat[2] == 40


@pytest.fixture
def asked(monkeypatch):
    """The positions n of the multipliers m(n) that the residue walks ask
    for, in order: every one that the block API hands out, used or not."""
    seen = []

    def counted(terms, n, k):
        block = multipliers(terms, n, k)
        seen.extend(range(n, n + len(block)))
        return block
    monkeypatch.setattr(convergence, "multipliers", counted)
    return seen


def test_zero_stop_asks_for_few_multipliers(asked):
    # n! reaches the zero residue of 1/720 at n = 6: its multiplier blocks
    # double from one, so the walk asks for at most twice the positions it
    # walked, whatever the depth
    walk = convergence._Residues(1, 720, parse_terms("n!"), 10 ** 9, stop=True)
    walked = [n for n, _ in walk]
    assert walked == [1, 2, 3, 4, 5, 6]
    assert 0 < len(asked) <= 2 * len(walked)


def test_quiet_runs_jump_whole_periods(asked):
    # the count-16 th6 point under 3*2^n: a run between two digits asks for a
    # few multipliers, not one per position
    ks = [2] + [2 ** i for i in range(3, 18)]
    x = reconstruct_exact(DigitExpansion(ArithmeticSequence.dyadic(),
                                         {k + 1: 1 for k in ks}))
    walk = convergence._Residues(x.num, x.den, ScaledGeometric(3, 2), 10 ** 5,
                                 stop=True, quiet=-(-x.den // 64))
    for _ in walk:
        pass
    assert len(asked) <= 200
    # a 5-digit point over [2,3,5] at depth 2*10^4, period 3: the same counts
    # as a plain walk that reduces every residue
    seq = parse_sequence("[2,3,5]")
    terms = ArithmeticTerms(seq)
    x = reconstruct_exact(DigitExpansion(seq, {4: 1, 1000: 1, 4000: 1, 9002: 2,
                                               15000: 1}))
    depth = 2 * 10 ** 4
    asked.clear()
    stats = classical_convergence(x, terms, depth).stats
    assert len(asked) <= 400
    norms = [min(t, x.den - t) for _, t in convergence._Residues(x.num, x.den, terms, depth)]
    for s in stats:
        hits = [n for n, m in enumerate(norms, 1)
                if m * s.eps.denominator >= s.eps.numerator * x.den]
        assert (s.exceptional_count, s.last_exceptional) == (len(hits), hits[-1])


@pytest.mark.parametrize("ratios", [[1, 2], [2, 3, 1]])
def test_quiet_walk_raises_where_a_full_walk_does(ratios):
    # q_3 = 1 is the second multiplier asked, and a run jumps only after it
    # has stepped a whole period, so the walk raises where a full walk does,
    # after yielding only its start
    x = reconstruct_exact(DigitExpansion(ArithmeticSequence.dyadic(), {200: 1, 400: 1}))
    terms = ArithmeticTerms(ArithmeticSequence.from_ratios(ratios))
    prefixes = []
    for quiet in (-(-x.den // 64), 0):
        walk = convergence._Residues(x.num, x.den, terms, 10 ** 4, stop=True, quiet=quiet)
        prefixes.append([])
        with pytest.raises(ValueError, match=r"^q_3 must be >= 2, got 1$"):
            for step in walk:
                prefixes[-1].append(step)
    quiet_prefix, full_prefix = prefixes
    assert quiet_prefix == full_prefix[:1] == [(1, ratios[0] * x.num % x.den)]
    with pytest.raises(ValueError, match=r"^q_3 must be >= 2, got 1$"):
        classical_convergence(x, terms, 10 ** 4)


def test_ideal_convergence_rejects_depth_zero():
    with pytest.raises(ValueError, match="depth must be >= 1"):
        ideal_convergence(CircleRational(1, 3), parse_terms("2^n"),
                          IdealDescriptor.density(), depth=0)


def nearest(f: Fraction) -> Fraction:
    return min(f - math.floor(f), math.ceil(f) - f)


def loop_nset(x, terms, weights, depth):
    """Reference: the term-by-term Fraction sum with checkpoints."""
    marks = {10 ** k for k in range(1, 20) if 10 ** k < depth} | {depth}
    total, checkpoints = Fraction(0), []
    for n in range(1, depth + 1):
        total += weights.value(n) * nearest(terms.term(n) * x.frac())
        if n in marks:
            checkpoints.append((n, total))
    return total, tuple(checkpoints)


NSET_TOP = 250
weight_rules = st.one_of(
    st.sampled_from([WeightRule.power(s) for s in range(4)]),
    st.lists(st.builds(Fraction, st.integers(0, 20), st.integers(1, 50)),
             min_size=NSET_TOP, max_size=NSET_TOP).map(WeightRule.explicit))
nset_terms = st.one_of(
    scaled, ratio_chains, factorial,
    st.sampled_from([WALK_TERMS["dyadic"], WALK_TERMS["[2,3,5]"]]),
    st.lists(st.integers(2, 9), min_size=NSET_TOP, max_size=NSET_TOP).map(
        lambda ratios: ArithmeticTerms(ArithmeticSequence.from_ratios(ratios, cycle=False))),
    st.lists(st.integers(1, 10 ** 4), min_size=NSET_TOP, max_size=NSET_TOP).map(
        lambda gaps: ExplicitTerms(itertools.accumulate(gaps))))


def nset_depths(terms, num: int, den: int) -> list[int]:
    """landmark_depths, the last walked position h + lam - 1 of the stopping
    walk and the first repeated one h + lam, and the marks 10 and 100 with
    their neighbours."""
    walk = convergence._Residues(num, den, terms, NSET_TOP, stop=True)
    for _ in walk:
        pass
    marks = [9, 10, 11, 99, 100, 101]
    if walk.repeat is not None:
        h, _, lam = walk.repeat
        marks += [h + lam - 1, h + lam]
    return sorted({d for d in landmark_depths(terms, num, den, NSET_TOP) + marks
                   if d <= NSET_TOP})


@settings(max_examples=100, deadline=None)
@given(den=st.integers(1, 400), num_seed=st.integers(0, 10 ** 6),
       weights=weight_rules, terms=nset_terms, data=st.data())
# zero stops: 4 | 2^2 and 720 | 6!, summed on to NSET_TOP
@example(den=4, num_seed=1, weights=WeightRule.harmonic(),
         terms=WALK_TERMS["dyadic"], data=None)
@example(den=720, num_seed=7, weights=WeightRule.power(3),
         terms=WALK_TERMS["n!"], data=None)
def test_nset_matches_brute_sum(den, num_seed, weights, terms, data):
    """The floors of one stopping walk, extended by its last period and
    summed in blocks over lcm(1..mark)**s, against the Fraction sum of
    r_n*||a_n x|| from a_n itself; a finite list past its end raises the
    error that a_n raises."""
    x = CircleRational.from_fraction(Fraction(num_seed, den))
    depths = nset_depths(terms, x.num, x.den)
    depth = depths[-1] if data is None else data.draw(st.sampled_from(depths))
    report = nset_partial_sums(x, terms, weights, depth)
    assert (report.norm_sum, report.checkpoints) == loop_nset(x, terms, weights, depth)
    doc = report.to_json()
    assert doc["norm_sum"] == exact_str(report.norm_sum)
    assert doc["sin_envelope"] == [exact_str(report.sin_lower), exact_str(report.sin_upper)]
    assert doc["checkpoints"] == [[n, exact_str(s)] for n, s in report.checkpoints]
    if data is not None and isinstance(terms, ArithmeticTerms) \
            and terms.seq.spec[0] == "ratios-finite":
        past = NSET_TOP + data.draw(st.integers(1, 3))
        with pytest.raises(ValueError) as brute:
            loop_nset(x, terms, WeightRule.harmonic(), past)
        with pytest.raises(ValueError, match=re.escape(str(brute.value))):
            nset_partial_sums(x, terms, WeightRule.harmonic(), past)


def test_lcm_upto_matches_fold():
    # prime powers at n itself (4, 8, 9, 16, 25, ...) included
    for n in range(1, 300):
        assert convergence._lcm_upto(n) == math.lcm(*range(1, n + 1))


def test_nset_rejects_short_weight_list():
    # the missing weights sit at zero-norm indices, and are still refused
    with pytest.raises(ValueError, match="no weight stored for index 3"):
        nset_partial_sums(CircleRational(1, 2), parse_terms("2^n"),
                          WeightRule.explicit([1, 2]), depth=100)


def test_nset_rejects_empty_depth():
    with pytest.raises(ValueError):
        nset_partial_sums(CircleRational(1, 3), parse_terms("2^n"),
                          WeightRule.harmonic(), depth=0)

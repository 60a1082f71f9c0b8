import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from enclosure_reference import arc, dist_interval, step_heads
from thinset.convergence import WeightRule, nset_partial_sums
from thinset.core import (CircleRational, DigitExpansion, DomainError,
                          InsufficientDigitsError, SIN_UPPER, _gcd, expand,
                          reconstruct, reconstruct_exact, support)
from thinset.ideals import FiniteSet, Geometric
from thinset.sequences import ArithmeticSequence, ExplicitTerms, parse_sequence


def digit_list(e, depth):
    return [e.digit(n) for n in range(1, depth + 1)]


class TestCircleRational:
    def test_parse_and_reduce(self):
        x = CircleRational.from_fraction(Fraction(10, 16))
        assert (x.num, x.den) == (5, 8)

    def test_wraps_into_unit_interval(self):
        assert CircleRational.from_fraction(Fraction(7, 3)).frac() == Fraction(1, 3)
        assert CircleRational.from_fraction(Fraction(-1, 4)).frac() == Fraction(3, 4)

    def test_rejects_invalid(self):
        with pytest.raises(DomainError):
            CircleRational(3, 2)
        with pytest.raises(DomainError):
            CircleRational(2, 4)


# 0, small values, and values of about 10**5 bits
operands = st.one_of(st.just(0), st.integers(1, 2 ** 70), st.integers(0, 2 ** 32).map(
    lambda seed: random.Random(seed).getrandbits(100_000)))
odd = st.one_of(st.just(1), operands).map(lambda v: v | 1)


@settings(max_examples=150, deadline=None)
@given(a=operands, t=st.integers(0, 100_000), m=odd, s=st.integers(0, 100_000),
       g=odd)
@example(a=0, t=0, m=1, s=0, g=1)                   # b = 1
@example(a=0, t=0, m=1, s=100_000, g=1)             # a = 0, b = 2**s
@example(a=5, t=3, m=1, s=100_000, g=3)             # dyadic times an odd factor
def test_gcd_kernel_matches_math_gcd(a, t, m, s, g):
    # a = (a*g)*2**t and b = (m*g)*2**s share the odd factor g
    a, b = (a * g) << t, (m * g) << s
    assert _gcd(a, b) == math.gcd(a, b)


@settings(max_examples=150, deadline=None)
@given(k=st.integers(0), m=st.integers(1, 2 ** 200), j=st.integers(0, 300),
       o=st.integers(0, 2 ** 64))
@example(k=1, m=3, j=100_000, o=0)                  # g = 2**100000
@example(k=1, m=2, j=0, o=3 ** 20_000)              # a large odd g
@example(k=0, m=1, j=1, o=0)                        # 0/2
def test_circle_rational_rejects_every_common_factor(k, m, j, o):
    g = (2 * o + 1) << j
    assume(g > 1)
    with pytest.raises(DomainError, match="coprime"):
        CircleRational(k % m * g, m * g)


@settings(max_examples=150, deadline=None)
@given(num=st.integers(0, 2 ** 100), den=st.integers(1, 2 ** 100), s=st.integers(0, 200))
def test_circle_rational_accepts_exactly_the_coprime_pairs(num, den, s):
    den <<= s
    num %= den
    if math.gcd(num, den) == 1:
        CircleRational(num, den)
    else:
        with pytest.raises(DomainError, match="coprime"):
            CircleRational(num, den)


class TestExpand:
    def test_dyadic_five_eighths(self):
        e = expand(CircleRational.parse("5/8"), ArithmeticSequence.dyadic(), 3)
        assert digit_list(e, 3) == [1, 0, 1]

    def test_one_third_dyadic(self):
        e = expand(CircleRational.parse("1/3"), ArithmeticSequence.dyadic(), 6)
        assert digit_list(e, 6) == [0, 1, 0, 1, 0, 1]

    def test_one_half_factorial(self):
        e = expand(CircleRational.parse("1/2"), ArithmeticSequence.factorial(), 4)
        assert digit_list(e, 4) == [0, 1, 0, 0]

    def test_digits_below_ratios(self):
        seq = ArithmeticSequence.from_ratios([2, 3, 5])
        e = expand(CircleRational.parse("29/30"), seq, 3)
        for n, c in e.digits.items():
            assert 0 < c < seq.q(n)

    def test_depth_must_be_positive(self):
        with pytest.raises(DomainError):
            expand(CircleRational.parse("1/2"), ArithmeticSequence.dyadic(), 0)


class TestReconstruct:
    def test_round_trip_examples(self):
        seq = ArithmeticSequence.dyadic()
        for text in ("5/8", "1/1024", "255/256"):
            x = CircleRational.parse(text)
            assert reconstruct(expand(x, seq, 12), 12) == x

    def test_partial_prefix(self):
        e = expand(CircleRational.parse("5/8"), ArithmeticSequence.dyadic(), 3)
        assert reconstruct(e, 1).frac() == Fraction(1, 2)

    def test_exact_needs_untruncated(self):
        e = expand(CircleRational.parse("5/8"), ArithmeticSequence.dyadic(), 3)
        with pytest.raises(InsufficientDigitsError):
            reconstruct_exact(e)
        finite = DigitExpansion(ArithmeticSequence.dyadic(), {1: 1, 3: 1}, None)
        assert reconstruct_exact(finite).frac() == Fraction(5, 8)

    def test_depth_beyond_truncation_rejected(self):
        e = expand(CircleRational.parse("1/3"), ArithmeticSequence.dyadic(), 4)
        with pytest.raises(InsufficientDigitsError):
            reconstruct(e, 5)


@settings(max_examples=200, deadline=None)
@given(num=st.integers(min_value=0), k=st.integers(min_value=1, max_value=20),
       pick=st.integers(min_value=0, max_value=2))
def test_round_trip_property(num, k, pick):
    seq = [ArithmeticSequence.dyadic(), ArithmeticSequence.factorial(),
           ArithmeticSequence.from_ratios([2, 3, 7])][pick]
    uk = seq.u(k)
    x = CircleRational.from_fraction(Fraction(num % uk, uk))
    assert reconstruct(expand(x, seq, k), k) == x


# The remainder walk and Horner's rule against the Fraction loops they
# replace; u_n here is the running product of q_1 .. q_n, so a q_n past a
# finite list raises where the walk over the ratios would.
WALK_CHAINS = [ArithmeticSequence.dyadic(), ArithmeticSequence.factorial(),
               ArithmeticSequence.geometric(6), ArithmeticSequence.from_ratios([2, 3, 5, 7]),
               ArithmeticSequence.from_ratios([1, 3], cycle=False),   # q_1 = 1
               ArithmeticSequence.from_ratios([2, 3, 5], cycle=False)]


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _running_u(seq, n):
    value = 1
    for m in range(1, n + 1):
        value *= seq.q(m)
    return value


def greedy_reference(x, seq, depth):
    """c_n = floor(u_n*rem), rem -= c_n/u_n, over Fractions."""
    rem, digits, un = x.frac(), {}, 1
    for n in range(1, depth + 1):
        un *= seq.q(n)
        c = int(rem * un)
        if c:
            digits[n] = c
            rem -= Fraction(c, un)
    return digits


def sum_reference(e, depth):
    """sum_{n<=depth} c_n/u_n over Fractions, in stored order."""
    total = sum((Fraction(c, _running_u(e.seq, n))
                 for n, c in e.digits.items() if n <= depth), Fraction(0))
    return CircleRational.from_fraction(total)


@settings(max_examples=300, deadline=None)
@given(seq=st.sampled_from(WALK_CHAINS), num=st.integers(min_value=0),
       den=st.one_of(st.integers(1, 10 ** 4), st.integers(1, 2 ** 80),
                     st.tuples(*[st.integers(0, 12)] * 4).map(    # terminating points
                         lambda e: 2 ** e[0] * 3 ** e[1] * 5 ** e[2] * 7 ** e[3])),
       depth=st.integers(1, 40))
def test_expand_matches_greedy_fraction_loop(seq, num, den, depth):
    x = CircleRational.from_fraction(Fraction(num % den, den))
    got, want = _outcome(expand, x, seq, depth), _outcome(greedy_reference, x, seq, depth)
    if isinstance(got, DigitExpansion):
        assert (got.digits, got.depth) == (want, depth)
    else:
        assert got == want


@st.composite
def sparse_expansions(draw):
    """Up to 6 digits in stored order shuffled, with gaps up to 20 (past every
    list's length), finite or truncated up to 20 indices past the last digit."""
    seq = draw(st.sampled_from(WALK_CHAINS))
    n, digits = 0, {}
    for _ in range(draw(st.integers(0, 6))):
        n += draw(st.integers(1, 20))
        qn = _outcome(seq.q, n)
        if isinstance(qn, int) and qn >= 2:
            digits[n] = draw(st.integers(1, qn - 1))
    digits = dict(draw(st.permutations(list(digits.items()))))
    last = max(digits, default=0)
    depth = draw(st.none() | st.integers(max(last, 1), last + 20))
    return DigitExpansion(seq, digits, depth)


@settings(max_examples=300, deadline=None)
@given(sparse_expansions())
def test_reconstruct_matches_fraction_sum(e):
    last = e.last_index
    top = e.depth if e.depth is not None else last + 20
    for depth in sorted({1, last - 1, last, last + 1, top} - {0, -1}):
        if depth <= top:
            assert _outcome(reconstruct, e, depth) == _outcome(sum_reference, e, depth)
    expected = (_outcome(sum_reference, e, max(1, last)) if e.depth is None
                else ("InsufficientDigitsError",
                      "expansion is a truncation, exact value unknown"))
    assert _outcome(reconstruct_exact, e) == expected


@settings(max_examples=200, deadline=None)
@given(seq=st.sampled_from([ArithmeticSequence.dyadic(), ArithmeticSequence.geometric(3),
                            ArithmeticSequence.factorial(),
                            ArithmeticSequence.from_ratios([2, 3, 5, 7])]),
       data=st.data())
@example(seq=ArithmeticSequence.dyadic(), data=None)        # all digits zero
def test_reconstruct_is_the_reduced_fraction(seq, data):
    digits, depth = {}, 1
    if data is not None:
        depth = data.draw(st.integers(1, 60))
        digits = {n: data.draw(st.integers(0, seq.q(n) - 1)) for n in range(1, depth + 1)
                  if data.draw(st.booleans())}
    e = DigitExpansion(seq, digits, depth)
    uK = _running_u(seq, depth)
    want = Fraction(sum(c * uK // _running_u(seq, n) for n, c in digits.items()), uK)
    x = reconstruct(e, depth)
    assert (x.num, x.den) == (want.numerator, want.denominator)


def test_truncation_past_a_finite_list_reconstructs():
    # no ratio past the last digit is asked for, so q_4 .. q_10 never are
    seq = ArithmeticSequence.from_ratios([2, 3, 5], cycle=False)
    e = DigitExpansion(seq, {1: 1, 3: 4}, depth=10)
    assert reconstruct(e, 10).frac() == Fraction(1, 2) + Fraction(4, 30)
    with pytest.raises(ValueError, match="only 3 ratios available, wanted q_4"):
        expand(CircleRational.parse("1/7"), seq, 4)


LONG_LIST = [random.Random(5).randrange(2, 9) for _ in range(8000)]


@pytest.mark.parametrize("seq, depth", [
    (ArithmeticSequence.from_ratios([2, 3, 5, 7]), 30_000),
    (ArithmeticSequence.from_ratios(LONG_LIST), 8000),      # a gap touches only its ratios
    (ArithmeticSequence.from_ratios(LONG_LIST, cycle=False), 8000),
])
def test_dense_round_trip_is_fast(seq, depth):
    # the largest 64-bit prime denominator; a walk that forms a Fraction or
    # u_n per digit, or rotates the whole list per gap, misses the bound
    x = CircleRational(12345678901234567, 2 ** 64 - 59)
    start = time.perf_counter()
    e = expand(x, seq, depth)
    xr = reconstruct(e, depth)
    assert time.perf_counter() - start < 1.0
    uK = _running_u(seq, depth)
    assert xr.frac() == Fraction(x.num * uK // x.den, uK)


def dist_to_int(x: Fraction) -> Fraction:
    """||x|| by the reference's nearest-integer range, on the arc of width 0
    at {x}."""
    f = x - math.floor(x)
    lo, hi = dist_interval(arc(f.numerator, 0, f.denominator))
    assert lo == hi == min(f, 1 - f)
    return lo


def arcs(seq, digits, stop, top, bottom=None, v=1):
    """The reference walk `step_heads` as arcs of Fraction pairs."""
    return [(k, arc(head, v, P))
            for k, head, P in step_heads(seq, digits, stop, top, bottom, v)]


class TestNorm:
    def test_values(self):
        assert dist_to_int(Fraction(1, 3)) == Fraction(1, 3)
        assert dist_to_int(Fraction(2, 3)) == Fraction(1, 3)
        assert dist_to_int(Fraction(7, 2)) == Fraction(1, 2)
        assert dist_to_int(5) == 0

    @settings(max_examples=200, deadline=None)
    @given(st.fractions())
    def test_axioms(self, x):
        d = dist_to_int(x)
        assert 0 <= d <= Fraction(1, 2)
        assert dist_to_int(-x) == d
        assert dist_to_int(x + 1) == d

    @settings(max_examples=100, deadline=None)
    @given(st.fractions(), st.fractions())
    def test_subadditive(self, x, y):
        assert dist_to_int(x + y) <= dist_to_int(x) + dist_to_int(y)


def enclose_ax(a, e, k):
    """{a*x} for x truncated at k: the kernel at k = 0 with v = a."""
    [(_, enclosure)] = arcs(e.seq, e.digits, k, 0, v=a)
    return enclosure


class TestFracScaled:
    def test_wraparound_example(self):
        # a=4, digits 1,0,1 over dyadic, truncated at 3: head {4*5/8} = 1/2,
        # width 4/8 spans through 1
        e = expand(CircleRational.parse("5/8"), ArithmeticSequence.dyadic(), 3)
        enc = enclose_ax(4, e, 3)
        assert enc == ((Fraction(1, 2), Fraction(1)),)     # one part: no wrap

    def test_true_wraparound(self):
        # head {3*5/8} = 7/8 plus width 3/8 crosses the seam
        e = expand(CircleRational.parse("5/8"), ArithmeticSequence.dyadic(), 3)
        enc = enclose_ax(3, e, 3)
        assert enc == ((Fraction(7, 8), Fraction(1)), (Fraction(0), Fraction(1, 4)))

    def test_enclosure_contains_true_value(self):
        seq = ArithmeticSequence.dyadic()
        x = CircleRational.parse("11/64")
        for k in range(1, 6):
            trunc = expand(x, seq, k)
            for a in (1, 3, 5):
                enc = enclose_ax(a, trunc, k)
                true = a * x.frac() % 1
                assert any(lo <= true <= hi for lo, hi in enc)

    def test_whole_circle_when_tail_dominates(self):
        e = expand(CircleRational.parse("1/2"), ArithmeticSequence.dyadic(), 2)
        enc = enclose_ax(8, e, 2)
        assert enc[0] == (Fraction(0), Fraction(1))

    def test_norm_interval(self):
        e = expand(CircleRational.parse("5/8"), ArithmeticSequence.dyadic(), 3)
        [(_, head, P)] = step_heads(e.seq, e.digits, 3, 0)
        lo, hi = dist_interval(arc(head, 1, P))
        assert lo <= Fraction(3, 8) <= hi

    def test_digits_outside_window_rejected(self):
        seq = ArithmeticSequence.dyadic()
        for digits in ({3: 1}, {9: 1}):
            with pytest.raises(DomainError):
                arcs(seq, digits, 8, 3)
        with pytest.raises(DomainError):
            arcs(seq, {4: 1}, 8, 3, v=0)


CHAINS = [ArithmeticSequence.dyadic(), ArithmeticSequence.factorial(),
          ArithmeticSequence.from_ratios([2, 3, 5]), ArithmeticSequence.geometric(3)]


def _digits(draw, seq, lo, hi, size):
    """Up to `size` random digits at distinct indices in (lo, hi]."""
    if hi <= lo:
        return {}
    idx = draw(st.lists(st.integers(lo + 1, hi), max_size=size, unique=True))
    return {n: draw(st.integers(0, seq.q(n) - 1)) for n in idx}


@st.composite
def kernel_cases(draw):
    seq = draw(st.sampled_from(CHAINS))
    top = draw(st.integers(0, 12))
    bottom = draw(st.integers(-1, top - 1))
    stop = top + draw(st.one_of(st.integers(0, 4), st.integers(0, 80)))
    v = draw(st.one_of(st.integers(1, 8), st.integers(1, 2 ** 80)))
    below = _digits(draw, seq, 0, bottom + 1, 3)        # inside the integer part
    given_ = _digits(draw, seq, top, stop, 4)
    beyond = _digits(draw, seq, stop, stop + 12, 4)     # one admissible tail
    return seq, top, bottom, stop, v, below, given_, beyond


def _value(seq, digits):
    return sum((Fraction(c, seq.u(n)) for n, c in digits.items()), Fraction(0))


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
@example((ArithmeticSequence.dyadic(), 2, 1, 3, 8, {}, {3: 1}, {}))      # whole circle
@example((ArithmeticSequence.geometric(3), 0, -1, 2, 7, {}, {1: 2}, {}))  # wraparound
def test_sparse_enclosure_contains_every_completion(case):
    """For every k walked, the enclosure holds {v*u_k*x} for the zero tail,
    the maximal tail (all digits q_n - 1 past stop) and a random tail, and
    equals the enclosure computed afresh at that k."""
    seq, top, bottom, stop, v, below, given_, beyond = case
    head = _value(seq, below) + _value(seq, given_)
    points = [head, head + Fraction(1, seq.u(stop)), head + _value(seq, beyond)]
    walked = arcs(seq, given_, stop, top, bottom, v=v)
    assert [k for k, _ in walked] == list(range(top, bottom, -1))
    for k, enc in walked:
        assert [(k, enc)] == arcs(seq, given_, stop, k, v=v)
        for x in points:
            value = v * seq.u(k) * x % 1    # 0 and 1 are one circle point
            assert any(lo <= value <= hi or lo <= value + 1 <= hi for lo, hi in enc)


def test_sparse_enclosure_branches():
    seq = ArithmeticSequence.geometric(3)
    # tail weight 5/9 >= 1 fails, head {5*2/3} = 1/3: one arc
    [(_, one)] = arcs(seq, {1: 2}, 2, 0, v=5)
    assert one == ((Fraction(1, 3), Fraction(8, 9)),)
    # head {5*(2/3 + 2/9)} = 4/9 with width 5/9 reaches 1 exactly: no wrap
    [(_, edge)] = arcs(seq, {1: 2, 2: 2}, 2, 0, v=5)
    assert edge == ((Fraction(4, 9), Fraction(1)),)
    # v*u_k*x with v = 7: head {7*2/3} = 2/3, width 7/9 wraps past 1
    [(_, wrap)] = arcs(seq, {1: 2}, 2, 0, v=7)
    assert wrap == ((Fraction(2, 3), Fraction(1)), (Fraction(0), Fraction(4, 9)))
    # v >= q_1*q_2: the whole circle
    [(_, whole)] = arcs(seq, {1: 2}, 2, 0, v=9)
    assert whole == ((Fraction(0), Fraction(1)),)
    # the head keeps its digits exact and the tail drops below 2**-64
    [(_, deep)] = arcs(seq, {1: 1}, 10 ** 6, 0)
    [(lo, hi)] = deep
    assert lo == Fraction(1, 3) and hi - lo <= Fraction(1, 2 ** 64)


@pytest.mark.parametrize("head,v,bounds", [
    (1, 2, (2, 6)),     # [1/8, 3/8] inside [0, 1/2]
    (5, 2, (2, 6)),     # [5/8, 7/8] inside [1/2, 1]
    (3, 3, (4, 8)),     # [3/8, 6/8] straddles 1/2
    (7, 3, (0, 4)),     # [7/8, 10/8] wraps past 1
    (3, 6, (0, 8)),     # [3/8, 9/8] wraps past 1 and holds 1/2
    (3, 8, (0, 8)),     # width 1: the whole circle
])
def test_norm_bounds_branches(head, v, bounds):
    # the reference's nearest-integer range on each kind of arc, as
    # numerators over 2P
    P = 8
    lo, hi = bounds
    assert dist_interval(arc(head, v, P)) == (Fraction(lo, 2 * P), Fraction(hi, 2 * P))


def sin_envelope(x: Fraction) -> tuple[Fraction, Fraction]:
    """The [2*||x||, (22/7)*||x||] bracket of a one-term summability report."""
    report = nset_partial_sums(CircleRational.from_fraction(x), ExplicitTerms([1]),
                               WeightRule.power(0), depth=1)
    return report.sin_lower, report.sin_upper


def test_sin_envelope():
    lo, hi = sin_envelope(Fraction(1, 2))
    assert lo == 1
    assert hi == SIN_UPPER / 2
    assert sin_envelope(Fraction(0))[1] == 0
    # the bracket really contains |sin(pi x)| at a spot check
    val = abs(math.sin(math.pi / 3))
    lo, hi = sin_envelope(Fraction(1, 3))
    assert float(lo) <= val <= float(hi)


def test_support():
    e = DigitExpansion(ArithmeticSequence.dyadic(), {2: 1, 5: 1}, None)
    assert support(e) == FiniteSet([2, 5])


def test_digits_outside_symbolic_support_refused():
    seq = ArithmeticSequence.dyadic()
    assert DigitExpansion(seq, {2: 1, 16: 1}, None, symbolic_support=Geometric(2))
    with pytest.raises(ValueError, match="outside the declared support"):
        DigitExpansion(seq, {n: 1 for n in range(1, 21)}, None,
                       symbolic_support=Geometric(2))


def test_expansion_json_round_trip():
    e = expand(CircleRational.parse("5/8"), ArithmeticSequence.dyadic(), 4)
    back = DigitExpansion.from_json(e.to_json())
    assert back.digits == e.digits
    assert back.depth == e.depth


def test_expansion_ratios_must_match_sequence():
    # the count-3 dyadic th6 point in the older format: beside `sequence`,
    # `ratios` is a copy of q_1 .. q_17, and a copy that disagrees is refused
    e = DigitExpansion(ArithmeticSequence.dyadic(), {3: 1, 9: 1, 17: 1})
    doc = dict(e.to_json(), ratios=["2"] * 17)
    assert DigitExpansion.from_json(doc).to_json() == e.to_json()
    ratios = doc["ratios"]
    for edited in (ratios[:5] + ["3"] + ratios[6:], ratios[:-1], ratios + ["2"]):
        with pytest.raises(ValueError, match="ratios disagree with the sequence"):
            DigitExpansion.from_json(dict(doc, ratios=edited))


@settings(max_examples=200, deadline=None)
@given(chain=st.sampled_from(["dyadic", "geometric:3", "[2,3,5]", "factorial"]),
       raw=st.dictionaries(st.integers(1, 60), st.integers(1, 10 ** 6), max_size=8),
       extra=st.none() | st.integers(0, 20), data=st.data())
def test_expansion_documents_round_trip(chain, raw, extra, data):
    # exact (extra None) or truncated `extra` indices past the last digit;
    # older documents copy q_1 .. q_top beside `sequence`, and that copy is
    # checked whole: one ratio edited, dropped or appended is refused, and
    # so is the copy's text run together into one string
    seq = parse_sequence(chain)
    digits = {n: c % (seq.q(n) - 1) + 1 for n, c in raw.items() if seq.q(n) > 1}
    depth = None if extra is None else max(digits, default=0) + extra or None
    e = DigitExpansion(seq, digits, depth)
    doc = e.to_json()
    assert set(doc) == {"sequence", "digits", "depth"}
    assert DigitExpansion.from_json(doc) == e
    top = depth or max(digits, default=0)
    copy = [str(seq.q(n)) for n in range(1, top + 1)]
    assert DigitExpansion.from_json(dict(doc, ratios=copy)) == e
    edits = [copy + [data.draw(st.sampled_from(["2", "3", "7"]))], "".join(copy)]
    if copy:
        at = data.draw(st.integers(0, top - 1))
        edits += [copy[:at] + [str(int(copy[at]) + 1)] + copy[at + 1:],
                  copy[:at] + copy[at + 1:]]
    for edited in edits:
        with pytest.raises(ValueError, match="ratios disagree with the sequence"):
            DigitExpansion.from_json(dict(doc, ratios=edited))


def test_count_20_point_document_is_small():
    # the count-20 th6 point over the dyadic chain, denominator 2^2097153:
    # its document once copied all 2 097 153 ratios
    k = [2] + [2 ** i for i in range(3, 22)]
    e = DigitExpansion(ArithmeticSequence.dyadic(), {j + 1: 1 for j in k})
    text = json.dumps(e.to_json())
    assert len(text) < 4096
    start = time.perf_counter()
    assert DigitExpansion.from_json(json.loads(text)) == e
    assert time.perf_counter() - start < 0.1

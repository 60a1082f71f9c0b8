import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thinset.sequences import (ArithmeticSequence, ArithmeticTerms,
                               ExplicitTerms, ScaledGeometric,
                               _coprime_basis, _strip, multiplier_chain,
                               parse_sequence, parse_terms, phase_period,
                               terms_from_json)


def test_dyadic_values():
    seq = ArithmeticSequence.dyadic()
    assert [seq.u(n) for n in range(6)] == [1, 2, 4, 8, 16, 32]
    assert seq.q(1) == seq.q(7) == 2


def test_factorial_values():
    seq = ArithmeticSequence.factorial()
    assert [seq.u(n) for n in range(6)] == [1, 1, 2, 6, 24, 120]
    assert seq.q(1) == 1
    assert seq.q(5) == 5


def test_geometric_closed_form_matches_walk():
    seq = ArithmeticSequence.geometric(3)
    assert seq.u(10) == 3 ** 10
    assert seq.geometric_base == 3


def test_ratio_list_cycled():
    seq = ArithmeticSequence.from_ratios([2, 3])
    assert [seq.q(n) for n in range(1, 5)] == [2, 3, 2, 3]
    assert seq.u(4) == 36


def test_finite_ratio_list_bounds():
    seq = ArithmeticSequence.from_ratios([2, 3], cycle=False)
    assert seq.u(2) == 6
    with pytest.raises(ValueError):
        seq.q(3)


def test_invalid_ratios_rejected():
    with pytest.raises(ValueError):
        ArithmeticSequence.from_ratios([2, 1]).u(2)
    with pytest.raises(ValueError):
        ArithmeticSequence.from_ratios([0]).u(1)


def test_divisibility_chain_property():
    seq = ArithmeticSequence.from_ratios([2, 3, 5])
    for n in range(1, 12):
        assert seq.u(n) % seq.u(n - 1) == 0


def test_u_far_index_matches_neighbour():
    seq = ArithmeticSequence.from_ratios([2, 3])
    big = seq.u(5000)
    assert big == 2 ** 2500 * 3 ** 2500
    assert seq.u(4999) * seq.q(5000) == big


def test_u_matches_running_product():
    seq = ArithmeticSequence.from_ratios([2, 3, 5, 7])
    value = 1
    for n in range(1, 20_001):
        value *= seq.q(n)
        assert seq.u(n) == value


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 20_000), min_size=1, max_size=60))
def test_u_random_access(indices):
    # u_n = 2**ceil(n/2) * 3**floor(n/2) on the cycled ratios [2, 3]
    seq = ArithmeticSequence.from_ratios([2, 3])
    for n in indices:
        assert seq.u(n) == 2 ** ((n + 1) // 2) * 3 ** (n // 2)


def _walk(seq, a, b):
    """q_{a+1}***q_b as a running product, raising the walk's first error."""
    value = 1
    for n in range(a + 1, b + 1):
        value *= seq.q(n)
    return value


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc).__name__, str(exc)


def _listed(ratios, cycle, n):
    """q_n read off the list (n on the factorial chain, ratios None), or
    None where q_n is invalid: q_1 < 1, a later q_n < 2, or past a finite
    list."""
    if ratios is None:
        return n
    if not cycle and n > len(ratios):
        return None
    r = ratios[(n - 1) % len(ratios)]
    return r if r >= (1 if n == 1 else 2) else None


@settings(max_examples=300, deadline=None)
@given(ratios=st.none() | st.lists(st.integers(2, 12), min_size=1, max_size=5),
       bad=st.none() | st.tuples(st.integers(0, 4), st.integers(-1, 1)),
       cycle=st.booleans(), data=st.data())
@example(ratios=[1, 3], bad=None, cycle=True, data=None)
@example(ratios=[1, 3], bad=None, cycle=False, data=None)
def test_u_and_ratio_product_match_running_product(ratios, bad, cycle, data):
    if ratios is None:
        seq, top = ArithmeticSequence.factorial(), 20
    else:
        if bad is not None:
            ratios[bad[0] % len(ratios)] = bad[1]
        seq, top = ArithmeticSequence.from_ratios(ratios, cycle=cycle), 3 * len(ratios) + 2
    # each q_n raises at its own index and no earlier: q_1 = 1 is allowed, a
    # later 1 (q_3 = q_1 = 1 on the cycled [1, 3]) or a q_n past a finite list
    # raises when it is asked for
    listed = [_listed(ratios, cycle, n) for n in range(1, top + 1)]
    for n, r in enumerate(listed, 1):
        if r is None:
            with pytest.raises(ValueError):
                seq.q(n)
        else:
            assert seq.q(n) == r
    for n in range(top + 1):
        assert _outcome(seq.u, n) == _outcome(_walk, seq, 0, n)
    a = data.draw(st.integers(0, top)) if data else 0
    b = data.draw(st.integers(a, top)) if data else top
    assert _outcome(seq.ratio_product, a, b) == _outcome(_walk, seq, a, b)
    # u_n = b**n for every n only on a valid constant chain
    base = listed[0] if ratios and cycle and len(set(listed)) == 1 else None
    assert seq.geometric_base == base
    # the multipliers q_{n+1} of u_n repeat with the period, when there is one
    period = phase_period(ArithmeticTerms(seq))
    assert period == (len(ratios) if ratios and cycle else None)
    if period:
        assert listed[period + 1:] == listed[1:-period]


@pytest.mark.parametrize("seq", [ArithmeticSequence.dyadic(), ArithmeticSequence.factorial(),
                                 ArithmeticSequence.geometric(6),
                                 ArithmeticSequence.from_ratios([5, 5, 5])])
def test_closed_form_ratio_products(seq):
    for a in range(0, 40, 3):
        for b in range(a, 45, 4):
            assert seq.ratio_product(a, b) == _walk(seq, a, b)
    with pytest.raises(ValueError, match="need 0 <= a <= b"):
        seq.ratio_product(5, 3)


@pytest.mark.parametrize("seq, n, message", [
    (ArithmeticSequence.from_ratios([1, 3]), 3, "q_3 must be >= 2, got 1"),
    (ArithmeticSequence.from_ratios([2, 3], cycle=False), 3,
     "only 2 ratios available, wanted q_3"),
    (ArithmeticSequence.from_ratios([2, 1]), 5, "q_2 must be >= 2, got 1"),
])
def test_u_raises_the_walks_first_error(seq, n, message):
    with pytest.raises(ValueError) as info:
        seq.u(n)
    assert str(info.value) == message


def test_sequence_json_round_trip():
    for seq in (ArithmeticSequence.dyadic(), ArithmeticSequence.factorial(),
                ArithmeticSequence.geometric(5),
                ArithmeticSequence.from_ratios([2, 3, 4])):
        assert ArithmeticSequence.from_json(seq.to_json()) == seq


def test_parse_sequence():
    assert parse_sequence("dyadic") == ArithmeticSequence.dyadic()
    assert parse_sequence("factorial") == ArithmeticSequence.factorial()
    assert parse_sequence("geometric:7") == ArithmeticSequence.geometric(7)
    assert parse_sequence("[2,3]") == ArithmeticSequence.from_ratios([2, 3])
    with pytest.raises(ValueError):
        parse_sequence("nope")


def test_scaled_geometric_terms():
    t = ScaledGeometric(3, 2)
    assert [t.term(n) for n in (1, 2, 3)] == [6, 12, 24]
    first, mult = multiplier_chain(t)
    assert first == 6 and mult(1) == 2
    assert phase_period(t) == 1


def test_arithmetic_terms_chain():
    t = ArithmeticTerms(ArithmeticSequence.factorial())
    first, mult = multiplier_chain(t)
    assert first == 1 and mult(3) == 4
    assert phase_period(t) is None


def test_explicit_terms():
    t = ExplicitTerms([2, 5, 9])
    assert t.term(2) == 5
    assert multiplier_chain(t) is None
    with pytest.raises(ValueError):
        t.term(4)
    with pytest.raises(ValueError):
        ExplicitTerms([3, 3])


def test_parse_terms():
    assert parse_terms("2^n") == ScaledGeometric(1, 2)
    assert parse_terms("3*2^n") == ScaledGeometric(3, 2)
    assert parse_terms("n!").term(4) == 24
    seq = ArithmeticSequence.dyadic()
    assert parse_terms("u_n", seq).term(3) == 8
    assert parse_terms("[1,2,4]").term(3) == 4
    with pytest.raises(ValueError):
        parse_terms("u_n")


def test_terms_json_round_trip():
    for t in (ScaledGeometric(3, 2),
              ArithmeticTerms(ArithmeticSequence.factorial()),
              ExplicitTerms([1, 4, 9])):
        back = terms_from_json(t.to_json())
        assert [back.term(n) for n in (1, 2, 3)] == [t.term(n) for n in (1, 2, 3)]


SMALL_PRIMES = (2, 3, 5, 7, 11)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 40), min_size=len(SMALL_PRIMES),
                         max_size=len(SMALL_PRIMES)), min_size=1, max_size=6))
def test_coprime_basis_of_prime_power_products(exponents):
    nums = [math.prod(p ** e for p, e in zip(SMALL_PRIMES, es)) for es in exponents]
    basis = _coprime_basis(nums)
    assert all(b > 1 for b in basis)
    assert all(math.gcd(a, b) == 1 for a, b in itertools.combinations(basis, 2))
    for n in nums:
        for b in basis:
            n = _strip(n, b)[1]
        assert n == 1

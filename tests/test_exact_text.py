"""The text boundary: exact numbers of any length under any int-to-string
digit limit, and decoders that raise nothing but their documented error."""

import contextlib
import json
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from thinset import cli
from thinset._exact_text import (_SAFE_DIGITS, _SPLIT_BITS, decoder,
                                 exact_fraction, exact_int, exact_str)
from thinset.ideals import IdealDescriptor
from thinset.sequences import ArithmeticSequence, parse_terms
from json_mutation import json_paths, mutate
from thinset.sequences import parse_sequence
from thinset.witness import (CertificateFormatError, WitnessCertificate,
                             build_and_verify, plan_witness, verify_certificate)

LOWEST = sys.int_info.str_digits_check_threshold


@contextlib.contextmanager
def int_digit_limit(digits):
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(digits)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def test_safe_length_is_the_lowest_limit():
    assert _SAFE_DIGITS == LOWEST


@settings(max_examples=40, deadline=None)
@given(digits=st.integers(1, 100_000), seed=st.integers(0, 2 ** 32),
       negative=st.booleans())
@example(digits=100_000, seed=1, negative=True)
def test_int_round_trip_under_lowest_limit(digits, seed, negative):
    rng = random.Random(seed)
    v = rng.randrange(10 ** (digits - 1) if digits > 1 else 0, 10 ** digits)
    v = -v if negative else v
    with int_digit_limit(LOWEST):
        text = exact_str(v)
        assert exact_int(text) == v
        assert exact_fraction(text) == v
    with int_digit_limit(0):
        assert text == str(v)


@settings(max_examples=60, deadline=None)
@given(bits=st.integers(1, 166_100),
       shape=st.sampled_from(["random", "2^b", "2^b-1", "sparse"]),
       seed=st.integers(0, 2 ** 32), negative=st.booleans())
@example(bits=_SPLIT_BITS + 1, shape="2^b", seed=0, negative=False)
@example(bits=166_100, shape="2^b-1", seed=0, negative=True)
def test_int_text_matches_str(bits, shape, seed, negative):
    # up to 5*10**4 digits, across the bit sizes where exact_str splits an
    # integer, and on values whose low parts are runs of zeros or of ones
    rng = random.Random(seed)
    v = {"random": rng.getrandbits(bits) | 1 << bits - 1, "2^b": 1 << bits - 1,
         "2^b-1": (1 << bits) - 1,
         "sparse": sum(1 << rng.randrange(bits) for _ in range(5)) | 1 << bits - 1}[shape]
    v = -v if negative else v
    with int_digit_limit(LOWEST):
        text = exact_str(v)
    with int_digit_limit(0):
        assert text == str(v)


def test_long_int_text_round_trip_is_fast():
    # about 630 000 digits, the size of the count-20 th6 point's denominator
    v = random.Random(5).getrandbits(2_093_000) | 1 << 2_092_999
    with int_digit_limit(LOWEST):
        start = time.perf_counter()
        assert exact_int(exact_str(v)) == v
        assert time.perf_counter() - start < 2


@settings(max_examples=20, deadline=None)
@given(bits=st.integers(1, 40_000), seed=st.integers(0, 2 ** 32))
def test_fraction_round_trip_under_lowest_limit(bits, seed):
    rng = random.Random(seed)
    f = Fraction(rng.getrandbits(bits) - rng.getrandbits(bits), rng.getrandbits(bits) + 1)
    with int_digit_limit(LOWEST):
        assert exact_fraction(exact_str(f)) == f


def test_long_text_must_be_plain_digits():
    long = "1" * (_SAFE_DIGITS + 1)
    assert exact_int("+" + long) == int(long)
    assert exact_fraction(f"-{long}/{long}7") == Fraction(-int(long), int(long + "7"))
    for bad in (long + "x", " " + long, long + ".5", "1_" + long, long + "/"):
        with pytest.raises(ValueError):
            exact_fraction(bad)
    with pytest.raises(ZeroDivisionError):
        exact_fraction(long + "/0")


def test_bools_and_floats_are_not_integers():
    for value in (1.5, 1.9, 2.0, -0.0, True, False):
        with pytest.raises(ValueError, match="not an integer"):
            exact_int(value)
    assert exact_int(7) == exact_int("7") == 7


def test_bools_and_floats_are_not_rationals():
    for value in (0.5, 0.1, 2.0, -0.0, True, False):
        with pytest.raises(ValueError, match="not a rational"):
            exact_fraction(value)
    assert exact_fraction(3) == exact_fraction("3") == 3


@pytest.fixture(scope="module")
def th1_claims():
    s = parse_sequence("dyadic")
    plan = plan_witness("th1", s, parse_terms("3*2^n", s),
                        IdealDescriptor.summable(), 3)
    return build_and_verify(plan).to_json()


# the rational field of the claims, which once decoded false as 0 and true
# as 1, and verified
@pytest.mark.parametrize("path, value", [
    (("plan", "ideal", "exponent"), True),
    (("plan", "ideal", "exponent"), False),
    (("plan", "ideal", "exponent"), 1.0),
    (("plan", "ideal", "exponent"), 0.25),
], ids=repr)
def test_rational_fields_refuse_bools_and_floats(th1_claims, path, value, tmp_path,
                                                 capsys):
    doc = mutate(th1_claims, path, value)
    with pytest.raises(CertificateFormatError, match="not a rational"):
        WitnessCertificate.from_json(doc)
    file = tmp_path / "c.json"
    file.write_text(json.dumps(doc))
    assert cli.main(["verify", "--json-in", str(file)]) == cli.EXIT_USAGE == 64
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


# the keys of the claims that hold integers
INT_KEYS = {"i", "n", "k", "v", "digit", "closing_k", "scale", "base"}


def integer_paths(doc):
    return [path for path in json_paths(doc) if path[-1] in INT_KEYS]


@pytest.fixture(scope="module", params=[("th1", "dyadic", "3*2^n", "summable"),
                                        ("th2", "geometric:3", "2*3^n", "density")],
                ids=lambda p: p[0])
def certificate_doc(request):
    tag, seq, terms, ideal = request.param
    s = parse_sequence(seq)
    plan = plan_witness(tag, s, parse_terms(terms, s), IdealDescriptor.from_json(
        {"type": ideal}), 3)
    return build_and_verify(plan).to_json()


@pytest.mark.parametrize("value", [1.5, 2.0, True], ids=repr)
def test_every_integer_field_refuses_non_integers(certificate_doc, value, tmp_path,
                                                  capsys):
    paths = integer_paths(certificate_doc)
    assert {p[-1] for p in paths} == INT_KEYS
    file = tmp_path / "c.json"
    for path in paths:
        doc = mutate(certificate_doc, path, value)
        with pytest.raises(CertificateFormatError, match="not an integer"):
            WitnessCertificate.from_json(doc)
        file.write_text(json.dumps(doc))
        assert cli.main(["verify", "--json-in", str(file)]) == cli.EXIT_USAGE, path
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")


def test_decoder_maps_every_malformed_document():
    class Oops(ValueError):
        pass

    @decoder("thing", Oops)
    def decode(exc):
        raise exc

    for exc in (KeyError("k"), IndexError(), TypeError(), AttributeError(),
                OverflowError(), ZeroDivisionError(), RecursionError(),
                ValueError("stray")):
        with pytest.raises(Oops, match=f"^bad thing: {type(exc).__name__}"):
            decode(exc)
    own = Oops("already ours")
    with pytest.raises(Oops, match="^already ours$"):
        decode(own)
    with pytest.raises(RuntimeError):
        decode(RuntimeError("not a document fault"))


def test_factorial_certificate_under_lowest_limit():
    # the closing cofactor of count 4 has 11 794 digits; the library used to
    # need the CLI's raised limit to write it
    with int_digit_limit(LOWEST):
        plan = plan_witness("th6", ArithmeticSequence.dyadic(), parse_terms("n!"),
                            IdealDescriptor.density(), 4)
        assert len(exact_str(plan.growth_log[-1]["v"])) == 11794
        cert = build_and_verify(plan)
        assert cert.passed
        back = WitnessCertificate.from_json(json.loads(json.dumps(cert.to_json())))
        assert back == cert
        ok, report = verify_certificate(back)
        assert ok and report["recomputed_pass"]


def test_cli_leaves_the_limit_alone(tmp_path, capsys):
    out = tmp_path / "c.json"
    with int_digit_limit(LOWEST):
        code = cli.main(["witness", "th6", "--seq", "dyadic", "--a", "n!",
                         "--ideal", "density", "--count", "4", "--out", str(out)])
        assert code == cli.EXIT_PASS
        assert sys.get_int_max_str_digits() == LOWEST
        assert cli.main(["verify", "--json-in", str(out)]) == cli.EXIT_PASS
    printed = capsys.readouterr().out
    assert printed.startswith(out.read_text())

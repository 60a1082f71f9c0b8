import itertools
import json
import time
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from enclosure_reference import arc, block_checks, dist_interval, index_heads
from full_certificate import full_document
from json_mutation import DELETE, VALUES, json_paths, mutate
from thinset import cli, witness
from thinset.cli import (EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_PASS, EXIT_USAGE,
                         main)
from thinset.core import DigitExpansion
from thinset.ideals import IdealDescriptor, Progression, descriptor_from_json
from thinset.sequences import (ArithmeticSequence, ScaledGeometric, parse_sequence,
                               parse_terms)
from thinset.witness import WitnessCertificate, build_and_verify, plan_witness


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
    return code, doc, captured.err


def test_parser_serves_successive_calls(capsys):
    """The parser is built once per process: calls on it, with usage errors
    among them, print and exit as calls on freshly built parsers do."""
    calls = [
        ("expand", "--x", "5/8", "--seq", "dyadic", "--depth", "3"),
        ("converge", "--x", "1/3", "--a", "2^n", "--depth", "50", "--ideal", "density"),
        ("converge", "--x", "1/3", "--depth", "50"),
        ("density", "--set", "progression:2,2", "--cutoff", "100"),
        ("no-such-command", "--x", "1/3"),
        ("converge", "--x", "1/3", "--a", "2^n", "--depth", "50"),
        ("nset", "--x", "1/3", "--a", "2^n", "--depth", "20"),
    ]
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run_cli(capsys, *argv))
    assert [code for code, _, _ in fresh] == [EXIT_PASS, EXIT_FAIL, EXIT_USAGE, EXIT_PASS,
                                              EXIT_USAGE, EXIT_FAIL, EXIT_FAIL]
    assert [run_cli(capsys, *argv) for argv in calls] == fresh
    assert cli.build_parser() is cli.build_parser()


def test_expand(capsys):
    code, doc, _ = run_cli(capsys, "expand", "--x", "5/8", "--seq", "dyadic",
                           "--depth", "3")
    assert code == EXIT_PASS
    assert doc["digit_list"] == [1, 0, 1]
    assert doc["digits"] == {"1": "1", "3": "1"}


def test_expand_reconstruct_round_trip(tmp_path, capsys):
    code, doc, _ = run_cli(capsys, "expand", "--x", "7/12", "--seq", "[2,3,2]",
                           "--depth", "6")
    assert code == EXIT_PASS
    path = tmp_path / "e.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "reconstruct", "--json-in", str(path))
    assert code == EXIT_PASS
    assert out["x"] == "7/12"


def test_density(capsys):
    code, doc, _ = run_cli(capsys, "density", "--set", "progression:2,2",
                           "--cutoff", "100")
    assert code == EXIT_PASS
    assert doc["exact"] == "1/2"


def test_cutoff_below_one_is_usage_error(capsys):
    code, doc, err = run_cli(capsys, "density", "--set", "progression:1,2", "--cutoff", "0")
    assert (code, doc) == (EXIT_USAGE, None)
    assert "cutoff must be >= 1" in err


def test_ideal_member_exit_codes(capsys):
    code, doc, _ = run_cli(capsys, "ideal-member", "--ideal", "density",
                           "--set", "geometric:2")
    assert code == EXIT_PASS and doc["outcome"] == "Member"
    code, doc, _ = run_cli(capsys, "ideal-member", "--ideal", "density",
                           "--set", "progression:2,2")
    assert code == EXIT_FAIL and doc["outcome"] == "NotMember"
    code, doc, _ = run_cli(capsys, "ideal-member", "--ideal", "fin",
                           "--set", '{"type": "geometric", "base": 2}')
    assert code == EXIT_FAIL


def test_converge_ideal(capsys):
    code, doc, _ = run_cli(capsys, "converge", "--x", "1/3", "--a", "2^n",
                           "--ideal", "density", "--depth", "1000")
    assert code == EXIT_FAIL
    assert doc["outcome"] == "NotMember"


def test_converge_ideal_writes_json_native_diagnostics(capsys):
    # no position up to depth 1 reaches 1/8 (7/1009 is the first norm), yet
    # the cycle of 7^n mod 1009 does: the set is an object, the last position null
    code, doc, _ = run_cli(capsys, "converge", "--x", "1/1009", "--a", "7^n",
                           "--ideal", "density", "--depth", "1")
    assert (code, doc["outcome"]) == (EXIT_FAIL, "NotMember")
    d = doc["diagnostics"]
    assert (d["exceptional_count"], d["last_exceptional"]) == ("0", None)
    s = descriptor_from_json(d["exceptional_set"])
    assert isinstance(s, Progression) and s.step == 252     # the order of 7 mod 1009
    assert s.growth().density == Fraction(len(s.offsets), s.step) > 0


def test_converge_depth_zero_is_usage_error(capsys):
    args = ("converge", "--x", "1/3", "--a", "2^n", "--depth", "0")
    for extra in ((), ("--ideal", "density")):
        code, doc, err = run_cli(capsys, *args, *extra)
        assert (code, doc, err) == (EXIT_USAGE, None, "error: depth must be >= 1\n")


def test_converge_classical(capsys):
    code, doc, _ = run_cli(capsys, "converge", "--x", "1/1024", "--a", "2^n",
                           "--depth", "100")
    assert code == EXIT_PASS
    assert doc["verdict"]["outcome"] == "Member"


def test_nset(capsys):
    code, doc, _ = run_cli(capsys, "nset", "--x", "1/3", "--a", "2^n",
                           "--weights", "1/n", "--depth", "100",
                           "--ideal", "density")
    # the residues of 2^n/3 repeat without a zero: ||a_n x|| = 1/3 for every
    # n, and the sum of 1/n diverges
    assert code == EXIT_FAIL and doc["classification"] == "divergent-evidence"
    assert doc["ideal_link"]["outcome"] == "Member"


def test_witness_and_verify(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code, doc, _ = run_cli(capsys, "witness", "th6", "--seq", "dyadic",
                           "--a", "3*2^n", "--ideal", "density",
                           "--count", "4", "--out", str(out))
    assert code == EXIT_PASS
    assert list(doc) == ["theorem", "plan", "pass"] and doc["pass"] is True
    code, report, _ = run_cli(capsys, "verify", "--json-in", str(out))
    assert code == EXIT_PASS
    assert report["ok"] and report["recomputed_pass"]
    assert list(report) == ["mismatches", "ok", "recomputed_pass", "checks", "blocks",
                            "support"]
    # the report explains the pass with the lemma rows and support verdict
    assert [c["i"] for c in report["checks"]] == [1, 2, 3, 4]
    assert all(c["pass"] and c["target"] == ["1/4", "7/8"] for c in report["checks"])
    assert report["blocks"] == [] and report["support"]["outcome"] == "Member"
    # each row's arc, from the digit's pivot, holds the reference's enclosure
    plan = WitnessCertificate.from_json(doc).plan
    for c, (p, head, P) in zip(report["checks"], index_heads(plan), strict=True):
        lo, hi = map(Fraction, c["interval"])
        assert all(lo <= a and b <= hi for a, b in arc(head, p.v, P))
    # a full document, as written before, verifies with the same report
    out.write_text(json.dumps(full_document(build_and_verify(
        WitnessCertificate.from_json(doc).plan))))
    assert run_cli(capsys, "verify", "--json-in", str(out)) == (code, report, "")


def test_th2_first_index_at_k_zero(tmp_path, capsys):
    # the block from k = 0 takes the majorant 2*(22/7)*r_1
    out = tmp_path / "cert.json"
    code, doc, _ = run_cli(capsys, "witness", "th2", "--seq", "geometric:4",
                           "--a", "3*2^n", "--ideal", "density",
                           "--count", "3", "--out", str(out))
    assert code == EXIT_PASS and doc["pass"] is True
    assert [p["k"] for p in doc["plan"]["indices"]] == [0, 18, 237]
    code, report, _ = run_cli(capsys, "verify", "--json-in", str(out))
    assert code == EXIT_PASS and report["ok"]
    blocks = report["blocks"]
    assert (blocks[0]["from"], blocks[0]["majorant"]) == (0, "44/7")
    assert len(blocks) == 2 and all(b["pass"] for b in blocks)
    assert report["support"] is None
    # the reference's block sums lie below the rows' majorants, and its
    # norms above the rows' floors
    plan = WitnessCertificate.from_json(doc).plan
    for b, ref in zip(blocks, block_checks(plan), strict=True):
        assert ref.upper_bound <= Fraction(b["majorant"])
    for c, (p, head, P) in zip(report["checks"], index_heads(plan), strict=True):
        assert c["pass"] and dist_interval(arc(head, p.v, P))[0] > Fraction(c["norm_floor"])


def test_verify_forms_one_support_verdict(tmp_path, capsys, monkeypatch):
    # the report's support is the verdict of the claims check's support lemma
    out = tmp_path / "cert.json"
    run_cli(capsys, "witness", "th6", "--seq", "dyadic", "--a", "3*2^n",
            "--ideal", "density", "--count", "4", "--out", str(out))
    calls = []
    kernel = witness.membership_by_support
    monkeypatch.setattr(witness, "membership_by_support",
                        lambda *args: calls.append(args) or kernel(*args))
    code, report, _ = run_cli(capsys, "verify", "--json-in", str(out))
    assert code == EXIT_PASS and report["support"]["outcome"] == "Member"
    assert len(calls) == 1


def test_malformed_certificate_is_usage_error(tmp_path, capsys):
    path = tmp_path / "cert.json"
    code, doc, _ = run_cli(capsys, "witness", "th6", "--seq", "dyadic",
                           "--a", "3*2^n", "--ideal", "density",
                           "--count", "3", "--out", str(path))
    assert code == EXIT_PASS
    doc["plan"]["indices"][0] = []          # a list where an object belongs
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--json-in", str(path))
    assert code == EXIT_USAGE and out is None
    assert err.startswith("error:")


def test_witness_fin_usage_error(capsys):
    code, doc, err = run_cli(capsys, "witness", "th6", "--seq", "dyadic",
                             "--a", "2^n", "--ideal", "fin", "--count", "2")
    assert code == EXIT_USAGE and doc is None and "error" in err


def test_witness_refusal_names_a_huge_index(capsys):
    # the next th2 index of 2*6^n over 3^n has 133 177 digits, past the
    # interpreter's int-to-string limit; its refusal still names it
    start = time.perf_counter()
    code, doc, err = run_cli(capsys, "witness", "th2", "--seq", "geometric:3",
                             "--a", "2*6^n", "--ideal", "density", "--count", "3")
    assert time.perf_counter() - start < 1
    assert (code, doc) == (EXIT_USAGE, None)
    assert "_COFACTOR_BITS" in err and "digits" not in err


def test_usage_errors(capsys):
    code, _, err = run_cli(capsys, "expand", "--x", "5/8", "--seq", "bogus")
    assert code == EXIT_USAGE and "bogus" in err
    code, _, err = run_cli(capsys, "converge", "--a", "2^n")
    assert code == EXIT_USAGE
    code, _, err = run_cli(capsys, "density", "--json-in", "/nonexistent.json")
    assert code == EXIT_USAGE


def test_malformed_set_descriptor_is_usage_error(capsys):
    for spec in ('{"type": "progression"}', '{"type": "union", "parts": [{}]}',
                 '{"type": "shifted", "inner": 3, "offset": "1"}', '[1, 2]'):
        code, doc, err = run_cli(capsys, "ideal-member", "--ideal", "density",
                                 "--set", spec)
        assert code == EXIT_USAGE and doc is None
        assert err.startswith("error:")


def test_string_in_place_of_a_list_is_usage_error(capsys):
    # read character by character, "123" would be the set {1, 2, 3} (Member)
    for spec in ('{"type": "finite", "elements": "123"}',
                 '{"type": "progression", "start": "1", "step": "3", "offsets": "01"}'):
        code, doc, err = run_cli(capsys, "ideal-member", "--ideal", "density",
                                 "--set", spec)
        assert code == EXIT_USAGE and doc is None
        assert err.startswith("error:") and "must be a list" in err


def test_expand_depth_default_and_flag(capsys):
    code, doc, _ = run_cli(capsys, "expand", "--x", "1/3", "--seq", "dyadic")
    assert code == EXIT_PASS
    assert len(doc["digit_list"]) == 64
    code, doc, _ = run_cli(capsys, "expand", "--x", "1/3", "--seq", "dyadic", "--depth", "12")
    assert code == EXIT_PASS
    assert len(doc["digit_list"]) == 12
    code, _, err = run_cli(capsys, "expand", "--x", "1/3", "--seq", "dyadic", "--depth", "junk")
    assert code == EXIT_USAGE


def test_exit_matches_json_verdict(capsys):
    # contract: emitted outcome field and exit code always agree
    cases = [
        (["ideal-member", "--ideal", "density", "--set", "geometric:2"], "Member"),
        (["ideal-member", "--ideal", "density", "--set", "progression:1,3"],
         "NotMember"),
        (["converge", "--x", "1/3", "--a", "2^n", "--ideal", "density",
          "--depth", "500"], "NotMember"),
    ]
    mapping = {"Member": EXIT_PASS, "NotMember": EXIT_FAIL,
               "Inconclusive": EXIT_INCONCLUSIVE}
    for argv, expected in cases:
        code, doc, _ = run_cli(capsys, *argv)
        assert doc["outcome"] == expected
        assert code == mapping[expected]


def test_malformed_expansion_is_usage_error(tmp_path, capsys):
    good = {"sequence": {"kind": "dyadic"}, "digits": {"1": "1"}, "depth": 3}
    for doc in ([], dict(good, digits=[]), dict(good, depth=float("inf"))):
        path = tmp_path / "e.json"
        path.write_text(json.dumps(doc))
        for argv in (["reconstruct", "--json-in", str(path)],
                     ["converge", "--json-in", str(path), "--a", "2^n",
                      "--depth", "10"]):
            code, out, err = run_cli(capsys, *argv)
            assert code == EXIT_USAGE and out is None
            assert err.startswith("error:")


@pytest.mark.parametrize("depth", [10 ** 700, 10 ** 19, None])
def test_huge_truncation_depth_is_usage_error(tmp_path, capsys, depth):
    # the dyadic 1/3 point truncated at `depth`: u_depth = 2**depth, so
    # the walk is refused by the size bound before any integer is formed;
    # with no depth, the exact point 2**-(10**19) is refused the same way
    # by reconstruct and converge, before u_(10**19) is formed
    digits = {"2": "1", "4": "1"} if depth else {str(10 ** 19): "1"}
    doc = {"sequence": {"kind": "dyadic"}, "digits": digits, "depth": depth}
    path = tmp_path / "e.json"
    path.write_text(json.dumps(doc))
    converge = ["converge", "--json-in", str(path), "--a", "2^n", "--depth", "100"]
    calls = [converge, converge + ["--ideal", "density"]]
    if depth is None:
        calls.append(["reconstruct", "--json-in", str(path)])
    for argv in calls:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == EXIT_USAGE and out is None
        assert err.startswith("error:") and "_TRUNCATION_BITS" in err


def test_edited_ratio_is_usage_error(tmp_path, capsys):
    # the count-3 dyadic th6 point in the older format, which copies q_1 ..
    # q_17 beside `sequence`, with q_6 = 2 rewritten as 3
    doc = DigitExpansion(ArithmeticSequence.dyadic(), {3: 1, 9: 1, 17: 1}).to_json()
    doc["ratios"] = ["2"] * 17
    path = tmp_path / "p.json"
    argv = ["converge", "--json-in", str(path), "--a", "3*2^n", "--depth", "40",
            "--ideal", "density"]
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_PASS and out["certificate"] == "terminating"
    doc["ratios"][5] = "3"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out is None
    assert err.startswith("error:") and "ratios disagree" in err


@pytest.fixture(scope="module")
def th6_cert():
    plan = plan_witness("th6", ArithmeticSequence.dyadic(), ScaledGeometric(3, 2),
                        IdealDescriptor.density(), 3)
    return build_and_verify(plan)


@pytest.fixture(scope="module")
def th6_doc(th6_cert):
    return full_document(th6_cert)


def test_pinned_malformed_inputs_are_usage_errors(tmp_path, capsys, th6_cert):
    # "0" where the list of indices belongs, a summable ideal's exponent 1/0,
    # and a document nested too deeply to parse (RecursionError)
    zero = json.loads(json.dumps(th6_cert.to_json()))
    zero["plan"]["indices"] = "0"
    pole = json.loads(json.dumps(th6_cert.to_json()))
    pole["plan"]["ideal"] = {"type": "summable", "exponent": "1/0"}
    texts = [json.dumps(zero), json.dumps(pole), "[" * 100_000 + "]" * 100_000]
    for text in texts:
        path = tmp_path / "c.json"
        path.write_text(text)
        code, out, err = run_cli(capsys, "verify", "--json-in", str(path))
        assert code == EXIT_USAGE and out is None
        assert err.startswith("error:")
    # signed weights: 1, -1, ... cancel the sum to "0", which would read as
    # bounded-evidence (exit 0), and -1s invert the envelope to ["-2", "-22/7"]
    for weights, depth in (("[1,-1,1,-1,1,-1,1,-1,1,-1,1,-1]", "12"), ("[-1,-1,-1]", "3")):
        code, out, err = run_cli(capsys, "nset", "--x", "1/3", "--a", "2^n",
                                 "--weights", weights, "--depth", depth)
        assert code == EXIT_USAGE and out is None
        assert err == "error: explicit weights must be >= 0\n"
    # every norm is >= 0, so a NotMember witness at eps <= 0 would be vacuous
    for eps in ("0", "-1"):
        for ideal in (["--ideal", "density"], []):
            code, out, err = run_cli(capsys, "converge", "--x", "1/3", "--a", "2^n",
                                     "--eps", eps, *ideal, "--depth", "100")
            assert code == EXIT_USAGE and out is None
            assert err == "error: eps must be > 0\n"


def test_retagged_certificate_is_usage_error(tmp_path, capsys, th6_doc):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(dict(th6_doc, theorem="th1", **{"pass": "false"})))
    code, out, err = run_cli(capsys, "verify", "--json-in", str(path))
    assert code == EXIT_USAGE and out is None
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# In-process fuzzing of the JSON inputs
# ---------------------------------------------------------------------------

EXPANSION = {"sequence": {"kind": "ratios", "ratios": ["2", "3", "2"]},
             "ratios": ["2", "3", "2", "2", "3", "2"],
             "digits": {"1": "1", "2": "0", "4": "1", "6": "1"}, "depth": 6}
SET = {"type": "union", "parts": [
    {"type": "progression", "start": "1", "step": "4"},
    {"type": "shifted", "inner": {"type": "geometric", "base": "2"}, "offset": "1"},
    {"type": "finite", "elements": ["3", "5"]}]}


# claims-only documents with a 700-digit n, k or v: each is a mismatch at
# once, and the fuzzer mutates them too
HUGE = "1" + "0" * 699


def huge_documents() -> dict:
    requests = [("th6", "dyadic", "3*2^n"), ("th2", "geometric:3", "2*3^n"),
                ("th6", "dyadic", "n!")]
    docs = {}
    for (tag, seq, terms), key in itertools.product(requests, ["n", "k", "v"]):
        plan = plan_witness(tag, parse_sequence(seq), parse_terms(terms),
                            IdealDescriptor.density(), 3)
        doc = build_and_verify(plan).to_json()
        doc["plan"]["indices"][-1][key] = HUGE
        docs[f"{tag} {terms} {key}"] = doc
    return docs


HUGE_DOCUMENTS = huge_documents()


@pytest.mark.parametrize("argv", [
    ("witness", "th6", "--seq", "[2,3]", "--a", "n!", "--ideal", "density", "--count", "1"),
    ("witness", "th6", "--seq", "[6,4]", "--a", "n!", "--ideal", "density", "--count", "3"),
    ("witness", "th1", "--seq", "[2,3]", "--a", "n!", "--ideal", "density", "--count", "3"),
] + [pytest.param(("verify", doc), id=f"verify {name}") for name, doc in HUGE_DOCUMENTS.items()])
def test_pinned_inputs_answer_within_a_second(tmp_path, capsys, argv):
    # n! terms whose k_n never meet W are refused by size (64), not walked
    # forever; a 700-digit claim is a mismatch (1)
    if argv[0] == "verify":
        path = tmp_path / "c.json"
        path.write_text(json.dumps(argv[1]))
        argv = ("verify", "--json-in", str(path))
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    if argv[0] == "witness":
        assert (code, out) == (EXIT_USAGE, None)
        assert "at or past n=" in err and "_COFACTOR_BITS" in err
    else:
        assert code == EXIT_FAIL and not out["ok"] and out["mismatches"][0].startswith("plan")
        assert "checks" not in out


def fail_document(command, doc):
    if command == "verify":
        return not (doc["ok"] and doc["recomputed_pass"])
    if command == "converge" and "verdict" in doc:
        doc = doc["verdict"]
    return command != "reconstruct" and doc["outcome"] == "NotMember"


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_json_inputs_keep_the_exit_contract(tmp_path, capsys, th6_cert, th6_doc,
                                                   data):
    command, extra, doc = data.draw(st.sampled_from([
        ("verify", [], th6_doc),
        ("verify", [], th6_cert.to_json()),
        ("verify", [], HUGE_DOCUMENTS["th6 3*2^n n"]),
        ("verify", [], HUGE_DOCUMENTS["th6 n! v"]),
        ("reconstruct", [], EXPANSION),
        ("converge", ["--a", "2^n", "--depth", "40"], EXPANSION),
        ("converge", ["--a", "2^n", "--depth", "40", "--ideal", "density"], EXPANSION),
        ("ideal-member", ["--ideal", "density"], SET),
        ("ideal-member", ["--ideal", "summable"], SET),
    ]))
    path = data.draw(st.sampled_from(list(json_paths(doc))))
    value = data.draw(st.sampled_from(VALUES + [DELETE]))
    file = tmp_path / "in.json"
    file.write_text(json.dumps(mutate(doc, path, value)))
    code, out, err = run_cli(capsys, command, "--json-in", str(file), *extra)
    assert code in (EXIT_PASS, EXIT_FAIL, EXIT_INCONCLUSIVE, EXIT_USAGE)
    if code == EXIT_USAGE:
        assert out is None and err.startswith("error:")
    if code == EXIT_FAIL:
        assert fail_document(command, out)


# each list is refused when its chain is built, whatever the command or depth
CHAIN_PROBES = [
    (("expand", "--x", "1/3", "--seq", "[2,1]", "--depth", "1"), "q_2 must be >= 2, got 1"),
    (("expand", "--x", "1/3", "--seq", "[2,1]", "--depth", "3"), "q_2 must be >= 2, got 1"),
    (("nset", "--x", "1/3", "--a", "u_n", "--seq", "[2,1]", "--depth", "1"),
     "q_2 must be >= 2, got 1"),
    (("nset", "--x", "1/3", "--a", "u_n", "--seq", "[1,3]", "--depth", "2"),
     "q_3 must be >= 2, got 1"),
    (("converge", "--x", "1/3", "--a", "u_n", "--seq", "[2,1]", "--depth", "1"),
     "q_2 must be >= 2, got 1"),
    (("converge", "--x", "1/3", "--a", "u_n", "--seq", "[1,3]", "--depth", "2"),
     "q_3 must be >= 2, got 1"),
    (("witness", "th6", "--seq", "[2,5,1]", "--a", "3*2^n", "--ideal", "density",
      "--count", "2"), "q_3 must be >= 2, got 1"),
]


@pytest.mark.parametrize("argv, text", CHAIN_PROBES,
                         ids=[" ".join(argv) for argv, _ in CHAIN_PROBES])
def test_a_list_that_is_not_a_chain_is_a_usage_error(argv, text, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, None) and text in err


def test_a_certificate_over_a_list_that_is_not_a_chain_is_malformed(tmp_path, capsys):
    path = tmp_path / "cert.json"
    code, doc, _ = run_cli(capsys, "witness", "th6", "--seq", "dyadic", "--a", "3*2^n",
                           "--ideal", "density", "--count", "3", "--out", str(path))
    assert code == EXIT_PASS
    cert = json.loads(path.read_text())
    cert["plan"]["sequence"] = {"kind": "ratios", "ratios": ["2", "1"]}
    path.write_text(json.dumps(cert))
    code, out, err = run_cli(capsys, "verify", "--json-in", str(path))
    assert (code, out) == (EXIT_USAGE, None) and "q_2 must be >= 2, got 1" in err

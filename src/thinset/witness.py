"""Certificate-producing counterexample constructions.

Given a divisibility chain (u_n), an increasing term sequence (a_n) and a
suitable ideal, these routines pick a subsequence of the terms, place one
digit per selected index, and verify exactly that the resulting point keeps
||a_{n_i} x|| bounded away from zero on the selected indices while its digit
support stays small in the ideal.

Three certificate families are produced, identified by wire tags:

* ``th6`` - digit-choice construction, targets {a_{n_i} x} in [1/4, 7/8];
* ``th1`` - same targets plus a summability schedule (k_{n_i} >= 2**i) and
  harmonic block bounds;
* ``th2`` - prime-power chain u_n = p**n with unit digits, targets
  ||a_{n_i} x|| > (p-1)/p**2, plus harmonic block bounds.

Each check is an exact rational interval computation: head value from the
planned digits plus an explicit tail enclosure, so a passing certificate is
rigorous for the infinite continuation of the digit pattern, not just for
the finite truncation it stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .convergence import BlockCheck, WeightRule, membership_by_support
from .core import (CircleInterval, DigitExpansion, RatInterval, SIN_UPPER,
                   sparse_enclosures)
from .ideals import (IdealDescriptor, Outcome, SetDescriptor, Shifted, Verdict,
                     descriptor_from_json, non_snt_witness)
from .sequences import (ArithmeticSequence, ScaledGeometric, TermSequence,
                        multiplier_chain, terms_from_json)

TAGS = ("th6", "th1", "th2")
TARGET_BAND = RatInterval(Fraction(1, 4), Fraction(7, 8))
DEFAULT_SCAN_WINDOW = 200_000
_BLOCK_WINDOW = 48     # exact head terms per block; the rest goes in a tail bound


class UnsupportedIdealError(ValueError):
    """The ideal admits no infinite shift-invariant member to build on."""


class SequenceNotAbsorbingError(RuntimeError):
    """The term decompositions never reached the required indices in the
    scan window, so the construction's divergence hypothesis has no evidence."""


class CertificateFormatError(ValueError):
    """Malformed certificate document."""


# ---------------------------------------------------------------------------
# Decomposition and digit choice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Decomposition:
    """a = u_k * v with k maximal (hence q_{k+1} does not divide v)."""

    k: int
    v: int


def decompose(seq: ArithmeticSequence, a: int) -> Decomposition:
    if a < 1:
        raise ValueError("need a >= 1")
    k = 0
    v = a
    while v % seq.q(k + 1) == 0:
        v //= seq.q(k + 1)
        k += 1
    assert v % seq.q(k + 1) != 0
    return Decomposition(k, v)


@dataclass(frozen=True)
class DigitChoice:
    l: int
    l_prime: int
    m: int
    c: int


def digit_choice(q: int, v: int) -> DigitChoice:
    """Digit c = floor(q/m) with m = 2*min(l, q-l), l = v mod q.

    Guarantees 1 <= c < q and {c*l/q} in [1/4, 3/4]; both are asserted.
    """
    if q < 2:
        raise ValueError("need q >= 2")
    l = v % q
    if l == 0:
        raise ValueError(f"{q} divides {v}, no digit choice exists")
    l_prime = q - l
    m = 2 * l if 2 * l <= q else 2 * l_prime
    c = q // m
    assert 1 <= c < q and 1 < m <= q
    pivot = Fraction(c * l % q, q)
    assert Fraction(1, 4) <= pivot <= Fraction(3, 4)
    return DigitChoice(l, l_prime, m, c)


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlannedIndex:
    i: int                 # 1-based position in the subsequence
    n: int                 # index into the original term sequence
    k: int                 # chain index with u_k | a_n maximal
    v: int                 # cofactor a_n / u_k
    digit: int             # digit placed at chain index k+1
    choice: Optional[DigitChoice] = None    # th6/th1 only

    def a(self, seq: ArithmeticSequence) -> int:
        return seq.u(self.k) * self.v

    def to_json(self) -> dict:
        doc = {"i": self.i, "n": self.n, "k": self.k, "v": str(self.v),
               "digit": str(self.digit)}
        if self.choice is not None:
            doc.update({"l": str(self.choice.l), "l_prime": str(self.choice.l_prime),
                        "m": str(self.choice.m)})
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "PlannedIndex":
        choice = None
        if "m" in doc:
            choice = DigitChoice(int(doc["l"]), int(doc["l_prime"]),
                                 int(doc["m"]), int(doc["digit"]))
        return cls(int(doc["i"]), int(doc["n"]), int(doc["k"]), int(doc["v"]),
                   int(doc["digit"]), choice)


@dataclass(frozen=True)
class WitnessPlan:
    tag: str
    seq: ArithmeticSequence
    terms: TermSequence
    ideal: IdealDescriptor
    indices: tuple[PlannedIndex, ...]
    closing_k: int          # chain index where the next digit would go; the
                            # tail enclosure of the last check starts here
    witness_set: Optional[SetDescriptor]
    growth_log: tuple[dict, ...] = field(compare=False, default=())

    def to_json(self) -> dict:
        return {
            "tag": self.tag,
            "sequence": self.seq.to_json(),
            "terms": self.terms.to_json(),
            "ideal": self.ideal.to_json(),
            "indices": [p.to_json() for p in self.indices],
            "closing_k": self.closing_k,
            "witness_set": (self.witness_set.to_json()
                            if self.witness_set is not None else None),
            "growth_log": list(self.growth_log),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "WitnessPlan":
        return cls(
            tag=doc["tag"],
            seq=ArithmeticSequence.from_json(doc["sequence"]),
            terms=terms_from_json(doc["terms"]),
            ideal=IdealDescriptor.from_json(doc["ideal"]),
            indices=tuple(PlannedIndex.from_json(p) for p in doc["indices"]),
            closing_k=int(doc["closing_k"]),
            witness_set=(descriptor_from_json(doc["witness_set"])
                         if doc.get("witness_set") else None),
            growth_log=tuple(doc.get("growth_log", ())),
        )


def _gap_ratio_product_at_least(seq: ArithmeticSequence, lo: int, hi: int,
                                bound: int) -> bool:
    """Whether q_{lo+1} * ... * q_hi >= bound, without forming huge products."""
    prod = 1
    for r in range(lo + 1, hi + 1):
        prod *= seq.q(r)
        if prod >= bound:
            return True
    return prod >= bound


def _decompositions(seq: ArithmeticSequence, terms: TermSequence):
    """Yield (n, k_n, v_n) for n = 1, 2, ...; incremental for term chains."""
    chain = multiplier_chain(terms)
    if chain is None:
        n = 1
        while True:
            d = decompose(seq, terms.term(n))
            yield n, d.k, d.v
            n += 1
        return
    first, mult = chain
    d = decompose(seq, first)
    k, v = d.k, d.v
    n = 1
    while True:
        yield n, k, v
        v *= mult(n)
        while v % seq.q(k + 1) == 0:
            v //= seq.q(k + 1)
            k += 1
        n += 1


def plan_witness(tag: str, seq: ArithmeticSequence, terms: TermSequence,
                 ideal: IdealDescriptor, count: int,
                 scan_window: int = DEFAULT_SCAN_WINDOW) -> WitnessPlan:
    """Greedy minimal-index subsequence selection for the given certificate
    family.  One extra index beyond `count` is selected to close off the
    final tail enclosure."""
    if tag not in TAGS:
        raise ValueError(f"unknown certificate tag {tag!r}")
    if count < 0:
        raise ValueError("count must be >= 0")

    witness_set: Optional[SetDescriptor] = None
    base_p: Optional[int] = None
    if tag in ("th6", "th1"):
        witness_set = non_snt_witness(ideal)
        if witness_set is None:
            raise UnsupportedIdealError(
                f"ideal {ideal.kind!r} has no infinite shift-invariant member")
    else:
        base_p = seq.geometric_base
        if base_p is None:
            raise ValueError("th2 needs a constant-ratio chain u_n = p**n")

    selected: list[tuple[int, int, int]] = []    # (n, k, v)
    log: list[dict] = []
    last_hit_n = 0

    def admissible(n: int, k: int, v: int) -> Optional[list[str]]:
        satisfied: list[str] = []
        i = len(selected) + 1
        if tag in ("th6", "th1"):
            if witness_set.contains(k) is not True:
                return None
            satisfied.append(f"k={k} in witness set")
            if tag == "th1":
                if k < 2 ** i:
                    return None
                satisfied.append(f"k={k} >= 2^{i}")
            if selected:
                pk, pv = selected[-1][1], selected[-1][2]
                if not _gap_ratio_product_at_least(seq, pk, k, 8 * pv):
                    return None
                satisfied.append(f"u_{k} >= 8*a (previous index)")
        else:
            if selected:
                pn, pk, pv = selected[-1]
                if k < pk + (2 * pn + 1) * pv:
                    return None
                satisfied.append(f"k={k} >= {pk} + (2*{pn}+1)*{pv}")
        return satisfied

    if (tag == "th2" and isinstance(terms, ScaledGeometric)
            and terms.base == base_p):
        # closed form: a_n = v * p**(n+off) with p not dividing v, so the
        # decomposition is k_n = n + off with constant cofactor v and the
        # greedy minimum can be jumped to directly instead of scanned
        off, v = 0, terms.scale
        while v % base_p == 0:
            v //= base_p
            off += 1
        n = 1
        while len(selected) < count + 1:
            if selected:
                pn, pk, pv = selected[-1]
                n = max(n + 1, pk + (2 * pn + 1) * pv - off)
            k = n + off
            selected.append((n, k, v))
            log.append({"i": len(selected), "n": n, "k": k, "v": str(v),
                        "satisfied": [f"k={k} >= gap constraint"]})
    else:
        for n, k, v in _decompositions(seq, terms):
            if len(selected) == count + 1:
                break
            if n - last_hit_n > scan_window:
                raise SequenceNotAbsorbingError(
                    f"no admissible index within {scan_window} terms after "
                    f"n={last_hit_n}; chain indices k_n may be bounded for "
                    f"these terms")
            satisfied = admissible(n, k, v)
            if satisfied is None:
                continue
            selected.append((n, k, v))
            last_hit_n = n
            log.append({"i": len(selected), "n": n, "k": k, "v": str(v),
                        "satisfied": satisfied})
        if len(selected) < count + 1:
            raise SequenceNotAbsorbingError("term sequence exhausted during planning")

    closing_k = selected[count][1]
    planned = []
    for i, (n, k, v) in enumerate(selected[:count], start=1):
        if tag in ("th6", "th1"):
            choice = digit_choice(seq.q(k + 1), v)
            planned.append(PlannedIndex(i, n, k, v, choice.c, choice))
        else:
            planned.append(PlannedIndex(i, n, k, v, 1, None))
    return WitnessPlan(tag, seq, terms, ideal, tuple(planned), closing_k,
                       witness_set, tuple(log))


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndexCheck:
    i: int
    n: int
    interval: CircleInterval           # enclosure of {a_{n_i} x}
    norm_interval: RatInterval         # enclosure of ||a_{n_i} x||
    target: Optional[RatInterval]      # band targets (th6/th1)
    target_min: Optional[Fraction]     # strict lower target (th2)
    passed: bool

    def to_json(self) -> dict:
        doc = {
            "i": self.i,
            "n": self.n,
            "wraparound": self.interval.wraparound,
            "norm_interval": [_rat(self.norm_interval.lo), _rat(self.norm_interval.hi)],
            "pass": self.passed,
        }
        parts = [[_rat(p.lo), _rat(p.hi)] for p in self.interval.parts]
        if len(parts) == 1:
            doc["interval"] = parts[0]
        else:
            doc["intervals"] = parts
        if self.target is not None:
            doc["target"] = [_rat(self.target.lo), _rat(self.target.hi)]
        if self.target_min is not None:
            doc["target_min"] = _rat(self.target_min)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "IndexCheck":
        try:
            raw = [doc["interval"]] if "interval" in doc else doc["intervals"]
            parts = tuple(RatInterval(Fraction(lo), Fraction(hi)) for lo, hi in raw)
            norm = RatInterval(Fraction(doc["norm_interval"][0]),
                               Fraction(doc["norm_interval"][1]))
            target = None
            if "target" in doc:
                target = RatInterval(Fraction(doc["target"][0]),
                                     Fraction(doc["target"][1]))
            target_min = Fraction(doc["target_min"]) if "target_min" in doc else None
            return cls(int(doc["i"]), int(doc["n"]),
                       CircleInterval(parts, bool(doc.get("wraparound", False))),
                       norm, target, target_min, bool(doc["pass"]))
        except (KeyError, ValueError, TypeError) as exc:
            raise CertificateFormatError(f"bad index check: {exc}") from exc


def _rat(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True)
class WitnessCertificate:
    plan: WitnessPlan
    expansion: DigitExpansion
    checks: tuple[IndexCheck, ...]
    support_verdict: Optional[Verdict]
    blocks: tuple[BlockCheck, ...]
    passed: bool

    def to_json(self) -> dict:
        return {
            "theorem": self.plan.tag,
            "plan": self.plan.to_json(),
            "digits": {str(n): str(c) for n, c in sorted(self.expansion.digits.items())},
            "checks": [c.to_json() for c in self.checks],
            "support": (self.support_verdict.to_json()
                        if self.support_verdict is not None else None),
            "blocks": [b.to_json() for b in self.blocks],
            "pass": self.passed,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "WitnessCertificate":
        try:
            plan = WitnessPlan.from_json(doc["plan"])
            # stored digits are data for `verify` to diff, not a symbolic claim
            digits = {int(n): int(c) for n, c in doc["digits"].items()}
            expansion = DigitExpansion(plan.seq, digits, None)
            checks = tuple(IndexCheck.from_json(c) for c in doc["checks"])
            support = (Verdict(Outcome(doc["support"]["outcome"]),
                               doc["support"].get("certificate"),
                               doc["support"].get("diagnostics", {}))
                       if doc.get("support") else None)
            blocks = tuple(
                BlockCheck(b["index"], b["from"], b["to"],
                           Fraction(b["upper_bound"]), Fraction(b["lower_bound"]),
                           Fraction(b["majorant"]), bool(b["pass"]))
                for b in doc.get("blocks", ()))
            return cls(plan, expansion, checks, support, blocks, bool(doc["pass"]))
        except CertificateFormatError:
            raise
        except (KeyError, ValueError, TypeError, AttributeError, OverflowError) as exc:
            raise CertificateFormatError(f"bad certificate: {exc}") from exc


def _assemble_expansion(plan: WitnessPlan) -> DigitExpansion:
    digits = {p.k + 1: p.digit for p in plan.indices}
    symbolic = Shifted(plan.witness_set, 1) if plan.witness_set is not None else None
    return DigitExpansion(plan.seq, digits, None, symbolic_support=symbolic)


def _index_checks(plan: WitnessPlan) -> list[IndexCheck]:
    checks = []
    # the digit after index i sits past chain index stop_i
    stops = [p.k for p in plan.indices[1:]] + [plan.closing_k]
    for p, stop in zip(plan.indices, stops):
        [(_, enclosure)] = sparse_enclosures(plan.seq, {p.k + 1: p.digit}, stop,
                                             p.k, v=p.v)
        norm = enclosure.dist_interval()
        if plan.tag in ("th6", "th1"):
            passed = enclosure.within(TARGET_BAND)
            checks.append(IndexCheck(p.i, p.n, enclosure, norm,
                                     TARGET_BAND, None, passed))
        else:
            base = plan.seq.geometric_base
            floor_norm = Fraction(base - 1, base * base)
            passed = norm.lo > floor_norm
            checks.append(IndexCheck(p.i, p.n, enclosure, norm,
                                     None, floor_norm, passed))
    return checks


def _block_checks(plan: WitnessPlan) -> list[BlockCheck]:
    """Certified enclosures of sum_{block} r_j*(22/7)*||u_j x|| per gap
    between consecutive selected chain indices, with r_j = 1/j.

    The head of each block (the last _BLOCK_WINDOW j before the block's right
    edge) is enclosed exactly by walking the kernel down from that edge;
    everything earlier is absorbed into a tail bound using
    ||u_j x|| <= u_j/u_{k_i} <= 2**-(k_i - j).
    """
    weights = WeightRule.harmonic()
    ks = [p.k for p in plan.indices] + [plan.closing_k]
    blocks = []
    for idx in range(1, len(plan.indices)):
        j_from, j_to = ks[idx - 1], ks[idx]
        # bounds on sum r_j*||u_j x||, scaled by the sine envelope at the end
        upper = lower = Fraction(0)
        head_from = max(j_from, j_to - _BLOCK_WINDOW)
        if head_from > j_from:
            # j in (j_from, head_from]: each norm <= 2**-(j_to - j), and the
            # geometric sum of those is < 2 * 2**-_BLOCK_WINDOW
            upper = weights.value(j_from + 1) * Fraction(2, 1 << _BLOCK_WINDOW)
        walk = sparse_enclosures(plan.seq, {j_to + 1: plan.indices[idx].digit},
                                 ks[idx + 1], j_to, head_from)
        for j, enclosure in walk:
            norm = enclosure.dist_interval()
            w = weights.value(j)
            lower += w * norm.lo
            upper += w * norm.hi
        upper, lower = SIN_UPPER * upper, 2 * lower
        majorant = 2 * SIN_UPPER * weights.value(j_from)
        blocks.append(BlockCheck(idx + 1, j_from, j_to, upper, lower,
                                 majorant, upper <= majorant))
    return blocks


def build_and_verify(plan: WitnessPlan) -> WitnessCertificate:
    """Assemble the planned point and verify every target exactly.

    A failing check never raises; it is recorded with its offending interval
    and flips the certificate's overall pass flag.
    """
    e = _assemble_expansion(plan)
    checks = _index_checks(plan)
    support_verdict = None
    if plan.tag in ("th6", "th1"):
        support_verdict = membership_by_support(e, plan.ideal)
    blocks = _block_checks(plan) if plan.tag in ("th1", "th2") else []
    passed = (all(c.passed for c in checks)
              and all(b.passed for b in blocks)
              and (support_verdict is None
                   or support_verdict.outcome is Outcome.MEMBER))
    return WitnessCertificate(plan, e, tuple(checks), support_verdict,
                              tuple(blocks), passed)


def _differing(stored, fresh, fields: tuple[str, ...]) -> list[str]:
    return [f for f in fields if getattr(stored, f) != getattr(fresh, f)]


def verify_certificate(cert: WitnessCertificate) -> tuple[bool, dict]:
    """Recompute everything from the plan alone and diff against the stored
    certificate.  Stored enclosures (intervals, norm intervals, block bounds)
    may be equal to or strictly wider than the recomputed ones (noted), but
    never narrower or disjoint; every other recomputed field must match."""
    report: dict = {"mismatches": [], "notes": []}
    mismatch, note = report["mismatches"].append, report["notes"].append
    fresh = build_and_verify(cert.plan)
    for n, c in sorted(fresh.expansion.digits.items()):
        stored = cert.expansion.digits.get(n)
        if stored != c:
            mismatch(f"digit at index {n}: stored {stored}, recomputed {c}")
    for n in cert.expansion.digits:
        if n not in fresh.expansion.digits:
            mismatch(f"unexpected stored digit at index {n}")
    for stored, recomputed in zip(cert.checks, fresh.checks):
        if stored == recomputed:
            continue
        fields = _differing(stored, recomputed,
                            ("i", "n", "target", "target_min", "passed"))
        if fields:
            mismatch(f"check {stored.i}: stored {', '.join(fields)} differ "
                     f"from recomputed")
        elif not all(any(sp.contains_interval(part) for sp in stored.interval.parts)
                     for part in recomputed.interval.parts):
            mismatch(f"check {stored.i}: recomputed interval outside stored enclosure")
        elif not stored.norm_interval.contains_interval(recomputed.norm_interval):
            mismatch(f"check {stored.i}: recomputed norm interval outside stored one")
        else:
            note(f"check {stored.i}: recomputed interval is strictly tighter")
    if len(cert.checks) != len(fresh.checks):
        mismatch("check count differs from plan")
    for stored, recomputed in zip(cert.blocks, fresh.blocks):
        if stored == recomputed:
            continue
        fields = _differing(stored, recomputed,
                            ("index", "j_from", "j_to", "majorant", "passed"))
        if fields or not (stored.lower_bound <= recomputed.lower_bound
                          and recomputed.upper_bound <= stored.upper_bound):
            mismatch(f"block {stored.index} inconsistent")
        else:
            note(f"block {stored.index}: recomputed bounds are strictly tighter")
    if len(cert.blocks) != len(fresh.blocks):
        mismatch("block count differs from plan")
    if cert.support_verdict != fresh.support_verdict:   # outcome and certificate tag
        mismatch("support verdict differs from the recomputed one")
    if cert.passed != fresh.passed:
        mismatch(f"overall pass stored={cert.passed}, recomputed={fresh.passed}")
    ok = not report["mismatches"]
    report["ok"] = ok
    report["recomputed_pass"] = fresh.passed
    return ok, report

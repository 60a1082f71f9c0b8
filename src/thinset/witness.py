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

One check decides `pass`, for the builder and for `verify_certificate`
alike: each claim against the construction's lemmas (`_check_claims`):
index order; u_k*v = a_n from valuations, with q_{k+1} not dividing v; the
witness set re-derived from the ideal, with every k in it (and k_i >= 2**i
for th1); the digit pivot {c*v/q_{k+1}} in [1/4, 3/4]; the gap
u_{k_{i+1}}/u_{k_i} >= 8*v_i, by which the later digits add at most 1/8;
th2's unit digits and gaps; and the support verdict.  The block majorants
hold by lemma once the indices increase and every digit is below its ratio.
A passing certificate is thus rigorous for the infinite continuation of the
digit pattern, not just for a finite truncation.

`enclosure_report` explains a pass and decides nothing: exact rational
interval checks per index (head value from the planned digits plus an
explicit tail enclosure) and per-block bounds, each a dyadic fixed-point
number rounded outward from the same enclosures, so it encloses the
block's exact sum without forming that sum's denominator.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

from ._exact_text import decoder, exact_int, exact_str
from .convergence import membership_by_support
from .core import CircleInterval, DigitExpansion, RatInterval, SIN_UPPER, shared_heads
from .ideals import (Geometric, IdealDescriptor, Outcome, SetDescriptor, Shifted,
                     Verdict, descriptor_from_json, non_snt_witness)
from .sequences import (ArithmeticSequence, ArithmeticTerms, TermSequence, _coprime_basis,
                        _Divisibility, _divisibility_of, multiplier_chain, terms_from_json)

TAGS = ("th6", "th1", "th2")
TARGET_BAND = RatInterval(Fraction(1, 4), Fraction(7, 8))
_COFACTOR_BITS = 1 << 21   # largest bound on bits(v_n) of a cofactor the planner forms
_BLOCK_WINDOW = 48     # exact head terms per block; the rest goes in a tail bound
_BLOCK_BITS = 64       # block bounds are multiples of 2**-(_BLOCK_BITS + bits(j_from))


class UnsupportedIdealError(ValueError):
    """The ideal admits no infinite shift-invariant member to build on."""


class SequenceNotAbsorbingError(RuntimeError):
    """The chain indices provably never reach the required ones, or only where
    v_n may pass _COFACTOR_BITS, so the divergence hypothesis has no evidence."""


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

    def to_json(self) -> dict:
        doc = {"i": self.i, "n": self.n, "k": self.k, "v": exact_str(self.v),
               "digit": exact_str(self.digit)}
        if self.choice is not None:
            doc.update(l=exact_str(self.choice.l), l_prime=exact_str(self.choice.l_prime),
                       m=exact_str(self.choice.m))
        return doc

    @classmethod
    @decoder("planned index", CertificateFormatError)
    def from_json(cls, doc: dict) -> "PlannedIndex":
        choice = None
        if "m" in doc:
            choice = DigitChoice(exact_int(doc["l"]), exact_int(doc["l_prime"]),
                                 exact_int(doc["m"]), exact_int(doc["digit"]))
        return cls(exact_int(doc["i"]), exact_int(doc["n"]), exact_int(doc["k"]),
                   exact_int(doc["v"]), exact_int(doc["digit"]), choice)


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
    # the selection log, in memory only: {"i", "n", "k", "v"} per selected
    # index, the closing one included; not written, so a decoded plan has none
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
        }

    @classmethod
    @decoder("plan", CertificateFormatError)
    def from_json(cls, doc: dict) -> "WitnessPlan":
        return cls(
            tag=doc["tag"],
            seq=ArithmeticSequence.from_json(doc["sequence"]),
            terms=terms_from_json(doc["terms"]),
            ideal=IdealDescriptor.from_json(doc["ideal"]),
            indices=tuple(PlannedIndex.from_json(p) for p in doc["indices"]),
            closing_k=exact_int(doc["closing_k"]),
            witness_set=(descriptor_from_json(doc["witness_set"])
                         if doc.get("witness_set") else None),
        )


def _gap_threshold(seq: ArithmeticSequence, lo: int, bound: int) -> int:
    """Least k with q_{lo+1} * ... * q_k >= bound >= 2, by bisection over
    `ratio_product`.  Every ratio past q_1 is >= 2, so d = bits(bound - 1)
    of them reach bound (one more from q_1), and d itself, the answer on a
    dyadic chain, is checked first.  A finite list that falls short raises
    what `seq.q` raises past its end."""
    d = (bound - 1).bit_length() + (lo == 0)
    if seq.finite:
        d = min(d, len(seq.ratios) - lo)
        if seq.ratio_product(lo, lo + d) < bound:
            seq.q(lo + d + 1)
    short = d - 1                               # below bound at short, not at d
    if seq.ratio_product(lo, lo + short) >= bound:
        short, d = 0, short
    while d - short > 1:
        mid = (short + d) // 2
        short, d = (mid, d) if seq.ratio_product(lo, lo + mid) < bound else (short, mid)
    return lo + d


def _check_chain(seq: ArithmeticSequence) -> None:
    """Raise what `seq.q` raises for any ratio of the chain: one period of a
    cycled list and q_1 again, or a whole finite list (none on n!)."""
    if seq.ratios is not None:
        seq.ratio_product(0, len(seq.ratios) + (not seq.finite))


# ---------------------------------------------------------------------------
# Chain index k_n = max{k : u_k | a_n}
# ---------------------------------------------------------------------------

class _Index(NamedTuple):
    least: Callable     # (L, after) -> least n > after with u_L | a_n, None if none
    index: Callable     # n -> (k_n, a): a is what `cofactor` reads of a_n
    cofactor: Callable  # (n, k, a) -> a_n/u_k
    quasi: Callable = lambda: None   # (T, S, n0, R) or None, see `_valuations`
    monotone: bool = True            # k_n <= k_{n+1}, as a_n | a_{n+1}


def _chain_index(seq: ArithmeticSequence, terms: TermSequence) -> _Index:
    """The kernel for the pair.  A finite list of terms (explicit, or `u_n`
    of a finite ratio list) is decomposed term by term up to its end, whose
    ValueError it raises; as k_n need not be monotone, `least` names the
    next n to check.  `u_n` on its own chain has k_n = n and v_n = 1."""
    if multiplier_chain(terms) is None or (isinstance(terms, ArithmeticTerms)
                                           and terms.seq.finite):
        def index(n):
            d = decompose(seq, terms.term(n))
            return d.k, d
        return _Index(lambda L, after: after + 1, index, lambda n, k, d: d.v,
                      monotone=False)
    if isinstance(terms, ArithmeticTerms) and terms.seq == seq:
        return _Index(lambda L, after: max(L, after + 1), lambda n: (n, None),
                      lambda n, k, a: 1)
    return _valuations(seq, terms)


def _valuations(seq: ArithmeticSequence, terms: TermSequence) -> _Index:
    """k_n and v_n from valuations over a coprime basis, never forming a_n:
    u_k | a_n exactly when v_b(u_k) <= v_b(a_n) for every b of the basis.
    Both sides ask the kernel `sequences._Divisibility`: v_b(a_n) and
    `least` over the terms (`_divisibility_of`), and v_b(u_k) over the chain.
    * Cut: a_n's primes divide supply = a_1*m(1)***m(P), so a ratio r = q_j
      not dividing supply**bits(r) bounds every k_n below j, and the ratios
      stop just before the first one (n! terms: supply = 0, which every r
      divides).  A cycled period or a finite list is checked whole first.
    * Chain: u_k = q_1***q_k is term k + 1 of the kernel's chain 1, q_1,
      q_2, ... over the L ratios kept, cycled when they are an uncut
      period; else k <= L, and k_n = L asks for q_{L+1}, which raises past
      a finite list's end as decompose does.
    The basis covers a_1, the multipliers and the ratios kept, all made of
    primes of supply, so it has at most one element per such prime.
    v_n stays bounded exactly when each b of the terms rises at the least
    slope V/Q, V = v_b gained per period of P multipliers and Q = v_b(u_L).
    quasi: k_b(n) = max{k : v_b(u_k) <= v_b(a_n)} gains L per Q, so
    k_b(n + P*m) = k_b(n) + L*m*V/Q once Q/gcd(Q, V) divides m; and k_b(n)
    is within L of L*(v_b(a_1) + j*V)/Q, j = (n-1) // P (with j + 1 above),
    so from n0 on k_n = min_b k_b(n) lies among the least slopes."""
    kernel, listed = _divisibility_of(terms), seq.ratios
    end = len(listed) if seq.finite else None     # where a finite list ends
    _check_chain(seq)
    supply = 0 if kernel.mults is None else kernel.first * math.prod(kernel.mults)
    ratios = list(itertools.takewhile(lambda r: pow(supply, r.bit_length(), r) == 0,
                                      itertools.count(1) if listed is None else listed))
    L = len(ratios)
    cyclic = end is None and listed is not None and L == len(listed)
    chain = _Divisibility(1, ratios, cyclic)
    basis, period, vals = kernel.basis(ratios), kernel.period, kernel.vals
    Q = {b: chain[b][1][-1] for b in basis}
    bounding = [b for b in basis if Q[b]]       # the rest never bound k_n
    widths = [b.bit_length() for b in basis]

    def past(n):
        # n!: the bound n*bits(n) grows with n, so no later hit could be formed either
        if (size := n * n.bit_length()) > _COFACTOR_BITS:
            raise SequenceNotAbsorbingError(
                f"the next admissible index is at or past n={exact_str(n)}, where a "
                f"cofactor v_n may have up to {exact_str(size)} bits, more than "
                f"_COFACTOR_BITS = {_COFACTOR_BITS}")

    def least(target, after):
        if target > L and not cyclic:   # u_target divides no term, or seq.q raises past the end
            return None if end is None or target <= end else seq.q(end + 1)
        needs = list(zip(bounding, chain.vals(target + 1, bounding)))
        if not period and (e := max((e for _, e in needs), default=0)) > _COFACTOR_BITS:
            past(e)                         # v_p(n!) < n: refused before Legendre's bisection
        n = kernel.least(needs)
        if n is None:
            return None
        n = max(n, after + 1)
        if not period:
            past(n)
        return n

    def index(n):                                   # min_b max{k : v_b(u_k) <= v_b(a_n)}
        a = vals(n, basis)                          # [v_b(a_n) for b in basis], for `cofactor`
        ms = [chain.least([(b, A + 1)]) for b, A in zip(basis, a) if Q[b]]
        k = min((L if m is None else m - 2 for m in ms), default=L)
        if k == L and not cyclic:
            seq.q(L + 1)                            # raises past a list's end, as decompose does
        return k, a

    def cofactor(n, k, a):
        # bits(prod b**e_b) <= sum e_b*bits(b), bits(n!) <= n*bits(n): checked first
        uk = chain.vals(k + 1, basis)               # [v_b(u_k) for b in basis]
        es = list(map(operator.sub, a, uk)) if period else None
        size = sum(map(operator.mul, es, widths)) if period else n * n.bit_length()
        if size > _COFACTOR_BITS:
            raise SequenceNotAbsorbingError(
                f"the next admissible index, n={exact_str(n)}, has a cofactor v_n of "
                f"up to {exact_str(size)} bits, more than _COFACTOR_BITS = {_COFACTOR_BITS}")
        if period:
            return math.prod(map(pow, basis, es))
        v = math.factorial(n)
        for p, e in zip(basis, uk):
            v = v >> e if p == 2 else v // p ** e
        return v

    if not period:
        return _Index(least, index, cofactor)
    a1 = {b: kernel[b][0] for b in basis}
    V = {b: kernel[b][1][-1] for b in basis}      # v_b gained per period
    slope = {b: Fraction(V[b], Q[b]) for b in bounding}
    low = min(slope.values(), default=0)

    def quasi():
        if not cyclic or not low:                   # k_n bounded: `least` proves it
            return None
        group = [b for b in slope if slope[b] == low]
        m = math.lcm(*(Q[b] // math.gcd(Q[b], V[b]) for b in group))
        top = Fraction(a1[group[0]] + V[group[0]], Q[group[0]]) + 2
        n0 = 1 + period * max([math.ceil((top - Fraction(a1[b], Q[b])) / (slope[b] - low))
                               for b in slope if slope[b] > low] + [0])
        T, S = period * m, L * m * low.numerator // low.denominator
        return T, S, n0, {index(n)[0] % S for n in range(n0, n0 + T)}

    return _Index(least, index, cofactor, quasi)


def _seek(index: _Index, after: int, K: int, W: Optional[SetDescriptor]):
    """(n, k_n, v_n) for the least n > after with k_n >= K, and k_n in W
    when W is given.  On a monotone k_n a miss k moves the target to W's
    next member past k: no term is walked.  Refused by proof when u_L
    divides no term for the target L, or, with k_n quasi-linear, when the
    members of W past k_{n0} have residues mod S (base*w mod S on a
    Geometric W) that repeat without meeting R: every k_n up to n0 is at
    most k_{n0}, and every later one has its residue in R.  Refused by size
    when the hit's cofactor may pass _COFACTOR_BITS, and on n! terms as soon
    as `least` names an n whose bound n*bits(n) passes it (see `_valuations`)."""
    target = K if W is None else W.next_member(K)
    n = after
    while True:
        n = index.least(target, n)
        if n is None:
            raise SequenceNotAbsorbingError(
                f"u_{exact_str(target)} divides no term a_n, so every chain index k_n is "
                f"below {exact_str(target)}: no admissible index after n={exact_str(after)}")
        k, a = index.index(n)
        if k == target or k > target and (W is None or W.contains(k)):
            return n, k, index.cofactor(n, k, a)
        if not index.monotone:
            continue
        target, seen = W.next_member(k + 1), set()
        if isinstance(W, Geometric) and (quasi := index.quasi()):
            T, S, n0, R = quasi
            bound = index.index(n0)[0]
            while target > bound and target % S not in R:
                if target % S in seen:
                    raise SequenceNotAbsorbingError(
                        f"no chain index k_n after n={exact_str(after)} lies in the "
                        f"witness set {{{exact_str(W.base)}^j}}: k_(n+{exact_str(T)}) = "
                        f"k_n + {exact_str(S)} from n={exact_str(n0)} on, and the "
                        f"members' residues mod {exact_str(S)} repeat without meeting them")
                seen.add(target % S)
                target = W.next_member(target + 1)


def plan_witness(tag: str, seq: ArithmeticSequence, terms: TermSequence,
                 ideal: IdealDescriptor, count: int) -> WitnessPlan:
    """Greedy minimal-index subsequence selection for the given certificate
    family.  One extra index beyond `count` is selected to close off the
    final tail enclosure.

    Each index asks `_seek` for the least n after the previous one whose
    chain index k_n reaches a threshold K (th6's ratio gap, th1's 2**i,
    th2's gap constraint) and, for th6/th1, lies in the witness set.  One
    kernel (`_chain_index`) answers for every pair, in closed form from
    valuations (periodic chains and multipliers; Legendre's formula for
    n!), or by decomposing a finite list of terms.  A request is refused by
    proof when u_L divides no term, or when quasi-linear k_n never meet the
    witness set; and by size when the next index's cofactor v_n, bounded
    from its valuations before it is formed, may pass _COFACTOR_BITS."""
    if tag not in TAGS:
        raise ValueError(f"unknown certificate tag {tag!r}")
    if count < 0:
        raise ValueError("count must be >= 0")

    witness_set: Optional[SetDescriptor] = None
    if tag in ("th6", "th1"):
        witness_set = non_snt_witness(ideal)
        if witness_set is None:
            raise UnsupportedIdealError(
                f"ideal {ideal.kind!r} has no infinite shift-invariant member")
    elif seq.geometric_base is None:
        raise ValueError("th2 needs a constant-ratio chain u_n = p**n")

    index = _chain_index(seq, terms)
    selected: list[tuple[int, int, int]] = []    # (n, k, v)
    while len(selected) < count + 1:
        i = len(selected) + 1
        pn, pk, pv = selected[-1] if selected else (0, 0, 0)
        if tag == "th2":
            K = pk + (2 * pn + 1) * pv           # 0 for the first index
        else:
            K = 2 ** i if tag == "th1" else 0
            if selected:
                K = max(K, _gap_threshold(seq, pk, 8 * pv))
        selected.append(_seek(index, pn, K, witness_set))

    closing_k = selected[count][1]
    planned = []
    for i, (n, k, v) in enumerate(selected[:count], start=1):
        if tag in ("th6", "th1"):
            choice = digit_choice(seq.q(k + 1), v)
            planned.append(PlannedIndex(i, n, k, v, choice.c, choice))
        else:
            planned.append(PlannedIndex(i, n, k, v, 1, None))
    log = tuple({"i": i, "n": n, "k": k, "v": v} for i, (n, k, v) in enumerate(selected, 1))
    return WitnessPlan(tag, seq, terms, ideal, tuple(planned), closing_k, witness_set, log)


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


def _rat(f: Fraction) -> str:
    return f"{exact_str(f.numerator)}/{exact_str(f.denominator)}"


@dataclass(frozen=True)
class BlockCheck:
    """Certified enclosure of one block of the weighted upper-envelope sum."""

    index: int
    j_from: int           # block covers j_from < j <= j_to
    j_to: int
    upper_bound: Fraction     # certified >= sum_block r_j*(22/7)*||u_j x||
    lower_bound: Fraction     # certified <= the same sum
    majorant: Fraction
    passed: bool

    def to_json(self) -> dict:
        return {"index": self.index, "from": self.j_from, "to": self.j_to,
                "upper_bound": exact_str(self.upper_bound),
                "lower_bound": exact_str(self.lower_bound),
                "majorant": exact_str(self.majorant), "pass": self.passed}


@dataclass(frozen=True)
class WitnessCertificate:
    """The claims: the plan, and `passed`, whether it meets the lemmas.
    Any document decodes to its claims: `theorem`, `plan` and `pass`; other
    keys, such as the `digits`, `checks`, `support` and `blocks` that
    certificates written before stored, are ignored."""

    plan: WitnessPlan
    passed: bool

    def to_json(self) -> dict:
        return {"theorem": self.plan.tag, "plan": self.plan.to_json(), "pass": self.passed}

    @classmethod
    @decoder("certificate", CertificateFormatError)
    def from_json(cls, doc: dict) -> "WitnessCertificate":
        plan = WitnessPlan.from_json(doc["plan"])
        if doc["theorem"] != plan.tag:
            raise CertificateFormatError("theorem differs from the plan's tag")
        if not isinstance(passed := doc["pass"], bool):     # true, not 1 or "true"
            raise CertificateFormatError(
                f"pass must be a JSON boolean, not {type(passed).__name__}")
        return cls(plan, passed)


def _assemble_expansion(plan: WitnessPlan) -> DigitExpansion:
    digits = {p.k + 1: p.digit for p in plan.indices}
    symbolic = Shifted(plan.witness_set, 1) if plan.witness_set is not None else None
    return DigitExpansion(plan.seq, digits, None, symbolic_support=symbolic)


def _index_checks(plan: WitnessPlan, walks: Optional[dict] = None) -> list[IndexCheck]:
    checks = []
    # the digit after index i sits past chain index stop_i
    stops = [p.k for p in plan.indices[1:]] + [plan.closing_k]
    for p, stop in zip(plan.indices, stops):
        [(_, head, P, lo, hi)] = shared_heads(plan.seq, {p.k + 1: p.digit}, stop,
                                              p.k, v=p.v, walks=walks)
        enclosure = CircleInterval.from_head(head, p.v, P)
        norm = RatInterval(Fraction(lo, 2 * P), Fraction(hi, 2 * P))
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


def _block_walks(plan: WitnessPlan, walks: Optional[dict] = None):
    """(index, j_from, j_to, walk, tail) per gap between consecutive selected
    chain indices, with r_j = 1/j.  The block's sum of r_j*||u_j x|| over
    j_from < j <= j_to lies in [sum lo/(2*P*j), sum hi/(2*P*j) + 1/tail]
    over the (j_to - j, head, P, lo, hi) of its walk; tail = 0 stands for no
    tail term.

    The walk is the block's head: the last _BLOCK_WINDOW j before its right
    edge, enclosed by walking the kernel down from that edge, which puts
    ||u_j x|| in [lo, hi]/(2*P).  Everything earlier goes into the tail term,
    using ||u_j x|| <= u_j/u_{k_i} <= 2**-(k_i - j).  The walk is lazy, so a
    block whose walk is not read costs nothing, and blocks whose windows
    agree share it through `walks` (see core.shared_heads)."""
    ks = [p.k for p in plan.indices] + [plan.closing_k]
    for idx in range(1, len(plan.indices)):
        j_from, j_to = ks[idx - 1], ks[idx]
        head_from = max(j_from, j_to - _BLOCK_WINDOW)
        walk = shared_heads(plan.seq, {j_to + 1: plan.indices[idx].digit}, ks[idx + 1],
                            j_to, head_from, walks=walks)
        # j in (j_from, head_from]: each norm <= 2**-(j_to - j), and the
        # geometric sum of those is < 2 * 2**-_BLOCK_WINDOW; with the weight
        # r_{j_from+1} that adds 1/tail
        tail = (j_from + 1) << (_BLOCK_WINDOW - 1) if head_from > j_from else 0
        yield idx + 1, j_from, j_to, walk, tail


def _block_checks(plan: WitnessPlan, walks: Optional[dict] = None) -> list[BlockCheck]:
    """Certified enclosures of sum_{block} r_j*(22/7)*||u_j x|| per gap
    between consecutive selected chain indices (see `_block_walks`), each
    against the majorant 2*(22/7)*r_{j_from}, with r_1 in place of r_0 for a
    block that starts at k = 0.

    Each bound is a dyadic m/2**E with E = _BLOCK_BITS + bits(j_from),
    rounded outward term by term (Moore 1966): each lo/(2*P*j) is rounded
    down, each hi/(2*P*j), the tail term and the factor 22/7 up, and the
    factor 2 of the lower bound is exact.  No common denominator of the
    weights is formed, and since 2**E > 2**_BLOCK_BITS * j_from the
    _BLOCK_WINDOW + 2 roundings keep each bound within about
    majorant * 2**-59 of the block's exact sum.
    """
    blocks = []
    for index, j_from, j_to, walk, tail in _block_walks(plan, walks):
        E = _BLOCK_BITS + max(j_from, 1).bit_length()
        low = high = 0
        for d, _, P, lo, hi in walk:
            scale = 2 * P * (j_to - d)
            low += (lo << E) // scale
            high -= (-hi << E) // scale
        if tail:
            high -= -(1 << E) // tail
        lower = Fraction(2 * low, 1 << E)
        upper = Fraction(-(-SIN_UPPER.numerator * high // SIN_UPPER.denominator),
                         1 << E)
        majorant = Fraction(2 * SIN_UPPER.numerator,
                            SIN_UPPER.denominator * max(j_from, 1))
        blocks.append(BlockCheck(index, j_from, j_to, upper, lower,
                                 majorant, upper <= majorant))
    return blocks


def enclosure_report(plan: WitnessPlan) -> tuple[list[IndexCheck], list[BlockCheck],
                                                   Optional[Verdict]]:
    """(checks, blocks, support) of the planned point: an exact enclosure
    per index, a dyadic bound per block (th1/th2) and the support verdict
    (th6/th1).  They explain a pass and decide none; the walks are shared
    within the call (see core.shared_heads)."""
    walks: dict = {}
    checks = _index_checks(plan, walks)
    blocks = _block_checks(plan, walks) if plan.tag in ("th1", "th2") else []
    support = None
    if plan.tag in ("th6", "th1"):
        support = membership_by_support(_assemble_expansion(plan), plan.ideal)
    return checks, blocks, support


def build_and_verify(plan: WitnessPlan) -> WitnessCertificate:
    """The certificate of the plan, which passes when no lemma of
    `_check_claims` fails, the check `verify_certificate` makes.  A failing
    lemma never raises; it clears the pass flag."""
    return WitnessCertificate(plan, not _check_claims(plan))


# ---------------------------------------------------------------------------
# Checking a certificate's claims against the construction's lemmas
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def _lemma(fails: list, name: str):
    """`fail(what)`, which records "plan: <name>: <what>".  A ValueError, as
    `seq.q` and `terms.term` raise for a ratio or term past a list's end,
    fails the lemma with its message."""
    def fail(what):
        fails.append(f"plan: {name}: {what}")
    try:
        yield fail
    except ValueError as exc:
        fail(exc)


def _reaches(seq: ArithmeticSequence, lo: int, hi: int, bound: int) -> bool:
    """Whether u_hi/u_lo = q_{lo+1}***q_hi >= bound, for lo < hi.  Every
    ratio but q_1 is >= 2, so more than bits(bound - 1) of them reach the
    bound unformed; a shorter product is formed when bits(largest ratio) per
    ratio keeps it within _COFACTOR_BITS."""
    seq.q(hi)                                       # raises past a finite list's end
    if hi - lo > (bound - 1).bit_length():
        return True
    top = hi if seq.ratios is None else max(seq.ratios)
    if (hi - lo) * top.bit_length() > _COFACTOR_BITS:
        raise ValueError(f"u_{exact_str(hi)}/u_{exact_str(lo)} may have more than "
                         f"_COFACTOR_BITS = {_COFACTOR_BITS} bits")
    return seq.ratio_product(lo, hi) >= bound


def _factorial_within(k: int, supply: int) -> Optional[int]:
    """k!, or None when some j <= k has a prime that does not divide supply,
    the product of a term's primes: that prime divides k! and no term."""
    for j in range(2, k + 1):
        if pow(supply, j.bit_length(), j):
            return None
    return math.factorial(k)


def _factorial_identity(seq: ArithmeticSequence, n: int, k: int, v: int) -> Optional[str]:
    """Why u_k*v != n! over a list of ratios, or None.  n! is formed when its
    bound n*bits(n) is within _COFACTOR_BITS, as the planner forms v_n, and
    u_k >= 2**(k-1) only when it may equal n!/v and stays within that bound."""
    if (size := n * n.bit_length()) > _COFACTOR_BITS:
        return (f"n! may have up to {exact_str(size)} bits, more than "
                f"_COFACTOR_BITS = {_COFACTOR_BITS}")
    rest, r = divmod(math.factorial(n), v)
    if r or k > rest.bit_length():
        return "u_k*v != a_n"
    if k * max(seq.ratios).bit_length() > _COFACTOR_BITS:
        return f"u_k may have more than _COFACTOR_BITS = {_COFACTOR_BITS} bits"
    return None if seq.u(k) == rest else "u_k*v != a_n"


def _term_identity(seq: ArithmeticSequence, terms: TermSequence, rows) -> list[str]:
    """The rows (i, n, k, v) with u_k*v != a_n, each as "index i: why".
    u_n on its own chain needs n = k and v = 1; n! over a list of ratios is
    compared by `_factorial_identity`.  Otherwise both sides factor over one
    coprime basis of the terms' a_1 and multipliers (or a listed a_n) and
    the chain's ratios (or k! on the factorial chain), so the identity holds
    exactly when v = prod b**e_b with e_b = v_b(a_n) - v_b(u_k) >= 0,
    valuations that `_Divisibility` reads off without forming a_n or u_k.
    The product is formed only when its lower bound 2**sum(e_b*(bits(b) - 1))
    is below 2**bits(v), so it has fewer than 2*bits(v) bits."""
    if isinstance(terms, ArithmeticTerms) and terms.seq == seq:
        return [f"index {i}: u_n on its own chain needs n = k and v = 1"
                for i, n, k, v in rows if (n, v) != (k, 1)]
    kernel = _divisibility_of(terms)                # None on an explicit list
    if kernel is not None and kernel.mults is None:
        return [f"index {i}: {why}" for i, n, k, v in rows
                if (why := _factorial_identity(seq, n, k, v))]
    if isinstance(terms, ArithmeticTerms):
        _check_chain(terms.seq)
    chain = None if seq.ratios is None else _Divisibility(1, seq.ratios, not seq.finite)
    why, sides = {}, []
    for i, n, k, v in rows:
        if kernel is not None:
            if isinstance(terms, ArithmeticTerms) and terms.seq.finite:
                terms.seq.q(n)                      # a_n = u_n of the list needs its q_n
            a = (kernel, n)
        elif (value := terms.term(n)) >= 1:
            a = (_Divisibility(value, (), False), 1)
        else:
            raise ValueError(f"index {i}: the term a_n is below 1")
        if chain is not None:
            if k:
                seq.q(k)                            # u_k needs q_k of a finite list
            u = (chain, k + 1)
        elif (uk := _factorial_within(k, a[0].first * math.prod(a[0].mults))) is None:
            why[i] = "k! has a prime that divides no term"
            continue
        else:
            u = (_Divisibility(uk, (), False), 1)
        sides.append((i, v, a, u))
    basis = _coprime_basis({x for _, _, a, u in sides for K, _ in (a, u)
                            for x in (K.first, *K.mults)})
    for i, v, (A, n), (U, m) in sides:
        es = list(map(operator.sub, A.vals(n, basis), U.vals(m, basis)))
        if (min(es, default=0) < 0
                or sum(e * (b.bit_length() - 1) for b, e in zip(basis, es)) >= v.bit_length()
                or math.prod(map(pow, basis, es)) != v):
            why[i] = "u_k*v != a_n"
    return [f"index {i}: {w}" for i, w in sorted(why.items())]


def _check_claims(plan: WitnessPlan) -> list[str]:
    """Each lemma of the construction that the plan's claims fail, as
    "plan: <lemma>: <what>"; [] when they all hold.  With k_{count+1} =
    closing_k, the lemmas are:
    * chain: every ratio is one (q_1 >= 1, the rest >= 2), and th2's chain
      is u_n = p**n;
    * index order: i = 1..count, n >= 1, v >= 1, and n and k increase
      strictly up to closing_k; the lemmas below are tried only past it;
    * term identity: u_k*v = a_n (see `_term_identity`);
    * cofactor: q_{k+1} does not divide v;
    * witness set: for th6/th1 the stored set is non_snt_witness(ideal),
      re-derived, and every k_i lies in it, with k_i >= 2**i for th1; th2
      stores none;
    * digit (th6/th1): with q = q_{k+1}, 1 <= c < q and q <= 4*(c*v mod q)
      <= 3q, and the stored l, l_prime and m are the ones (q, v) gives;
    * gap (th6/th1): u_{k_{i+1}}/u_{k_i} >= 8*v_i.  The digits past
      k_{i+1}, each below its ratio, add at most 1/u_{k_{i+1}} to x, so at
      most 1/8 to a_{n_i}*x, and {a_{n_i} x} lies in [1/4, 7/8];
    * th2 digit and th2 gap: each digit is 1, k_{i+1} >= k_i + (2n_i + 1)v_i
      and u_{k_{i+1}}/u_{k_i} > v_i*p**2, so ||a_{n_i} x|| > (p - 1)/p**2;
    * support (th6/th1): `membership_by_support` of the digits is Member.
    The block majorants (th1/th2) hold by lemma: for j in (k_{i-1}, k_i],
    ||u_j x|| <= u_j/u_{k_i} <= 2**-(k_i - j), so a block's sum is below
    2*(22/7)/max(k_{i-1}, 1) once the indices increase and each digit is
    below its ratio."""
    fails: list[str] = []
    tag, seq, idx = plan.tag, plan.seq, plan.indices
    ks = [p.k for p in idx] + [plan.closing_k]
    with _lemma(fails, "chain") as fail:
        if tag not in TAGS:
            fail(f"unknown certificate tag {tag!r}")
        elif tag == "th2" and seq.geometric_base is None:
            fail("th2 needs a constant-ratio chain u_n = p**n")
        _check_chain(seq)
    with _lemma(fails, "index order") as fail:
        if [p.i for p in idx] != list(range(1, len(idx) + 1)):
            fail("the indices are not numbered 1..count")
        if min(ks) < 0 or any(p.n < 1 or p.v < 1 for p in idx):
            fail("every n and v must be >= 1, and every k >= 0")
        elif any(a >= b for a, b in itertools.pairwise(p.n for p in idx)):
            fail("n does not increase strictly")
        elif any(a >= b for a, b in itertools.pairwise(ks)):
            fail("k does not increase strictly up to closing_k")
    if fails:
        return fails
    with _lemma(fails, "term identity") as fail:
        for why in _term_identity(seq, plan.terms, [(p.i, p.n, p.k, p.v) for p in idx]):
            fail(why)
    with _lemma(fails, "cofactor") as fail:
        for p in idx:
            if p.v % seq.q(p.k + 1) == 0:
                fail(f"index {p.i}: q_(k+1) divides v")
    if tag == "th2":
        base = seq.geometric_base
        with _lemma(fails, "witness set") as fail:
            if plan.witness_set is not None:
                fail("th2 stores no witness set")
        with _lemma(fails, "th2 digit") as fail:
            for p in idx:
                if p.digit != 1 or p.choice is not None:
                    fail(f"index {p.i}: the digit is not 1")
        with _lemma(fails, "th2 gap") as fail:
            for p, k in zip(idx, ks[1:]):
                if k < p.k + (2 * p.n + 1) * p.v:
                    fail(f"index {p.i}: the next k is below k + (2n + 1)*v")
                elif not _reaches(seq, p.k, k, p.v * base * base + 1):
                    fail(f"index {p.i}: u_k'/u_k <= v*p^2 for the next index k'")
        return fails
    W = non_snt_witness(plan.ideal)
    with _lemma(fails, "witness set") as fail:
        if W is None:
            fail(f"ideal {plan.ideal.kind!r} has no infinite shift-invariant member")
        elif plan.witness_set != W:
            fail("the stored witness_set is not the ideal's")
        for i, k in enumerate(ks, start=1):
            if W is not None and not W.contains(k):
                fail(f"k_{i} = {exact_str(k)} is not in it")
            if tag == "th1" and k.bit_length() <= i:
                fail(f"k_{i} = {exact_str(k)} is below 2^{i}")
    with _lemma(fails, "digit") as fail:
        for p in idx:
            q, c = seq.q(p.k + 1), p.digit
            l = p.v % q
            if p.choice is None or (p.choice.l, p.choice.l_prime, p.choice.m) != (
                    l, q - l, 2 * min(l, q - l)):
                fail(f"index {p.i}: l, l_prime and m are not those of q_(k+1) and v")
            if not (1 <= c < q and q <= 4 * (c * p.v % q) <= 3 * q):
                fail(f"index {p.i}: c*v/q_(k+1) mod 1 is outside [1/4, 3/4]")
    with _lemma(fails, "gap") as fail:
        for p, k in zip(idx, ks[1:]):
            if not _reaches(seq, p.k, k, 8 * p.v):
                fail(f"index {p.i}: u_k'/u_k < 8*v for the next index k'")
    with _lemma(fails, "support") as fail:
        verdict = membership_by_support(_assemble_expansion(plan), plan.ideal)
        if verdict.outcome is not Outcome.MEMBER:
            fail(f"the digit support is {verdict.outcome.value} in the ideal, not Member")
    return fails


def verify_certificate(cert: WitnessCertificate) -> tuple[bool, dict]:
    """Check each stored claim against the construction's lemmas
    (`_check_claims`), calling no planner and walking no enclosure: every
    failed lemma is a mismatch that begins with "plan", and so is a stored
    pass that disagrees with the claims.  A certificate that meets the
    lemmas is a proof, greedy or not.  Nothing is built.  `notes` is always
    empty; it is kept so that the report's keys and text stay stable."""
    mismatches = _check_claims(cert.plan)
    passed = not mismatches
    if cert.passed != passed:
        mismatches.append(f"overall pass stored={cert.passed}, recomputed={passed}")
    ok = not mismatches
    return ok, {"mismatches": mismatches, "notes": [], "ok": ok, "recomputed_pass": passed}

"""References for the enclosures that the lemma rows of a verify report
bound: a step-by-step walk that puts {v*u_k*x} on an arc [head, head + v]/P
mod 1 with an exact head and a tail below 2**-_TAIL_BITS, circle arcs as
plain Fraction pairs with the nearest-integer range over them, and block
bounds accumulated one j at a time."""

from fractions import Fraction
from typing import NamedTuple

from thinset.convergence import WeightRule
from thinset.core import SIN_UPPER, DomainError

_TAIL_BITS = 64       # the head reaches until the tail weight is at most 2**-_TAIL_BITS
_BLOCK_WINDOW = 48    # exact head terms per block; the rest goes in a tail bound


def step_heads(seq, digits, stop, top, bottom=None, v=1):
    """(k, head, P) for k = top, top-1, ..., bottom+1 (top alone by default):
    {v*u_k*x} lies in [head, head + v]/P mod 1, with 0 <= head < P, for every
    x whose digits in (k, stop] are `digits` (zero where none is given) and
    whose later digits are any admissible tail.  At top, r grows one ratio
    at a time past the last given digit until v/P is at most
    2**-_TAIL_BITS, or to `stop`, with P = q_{k+1}***q_r; stepping k down
    multiplies q_{k+1} into P and trims the ratios past the last digit that
    the bound no longer needs."""
    if v < 1:
        raise DomainError("multiplier must be >= 1")
    if any(not top < n <= stop for n in digits):
        raise DomainError(f"digits must lie in ({top}, {stop}]")
    last = max(digits, default=0)
    cap = v << _TAIL_BITS
    r, P, N = top, 1, 0
    for k in range(top, top - 1 if bottom is None else bottom, -1):
        if k < top:
            P *= seq.q(k + 1)
            while r > last and P // (q := seq.q(r)) >= cap:
                P, N, r = P // q, N // q, r - 1
        while r < stop and (r < last or P < cap):
            r += 1
            q = seq.q(r)
            P, N = P * q, N * q + digits.get(r, 0)
        yield k, v * N % P, P


def index_heads(plan):
    """(p, head, P) per planned index p: the walk at k = p.k with v = p.v, the
    digit p.digit at k + 1, and the next index's k (closing_k for the last)
    as stop."""
    stops = [p.k for p in plan.indices[1:]] + [plan.closing_k]
    for p, stop in zip(plan.indices, stops):
        [(_, head, P)] = step_heads(plan.seq, {p.k + 1: p.digit}, stop, p.k, v=p.v)
        yield p, head, P


def arc(head, v, P):
    """The arc [head, head + v]/P mod 1, for 0 <= head < P, as (lo, hi)
    Fraction pairs: one, or two when it wraps past 1; the whole circle is
    the one pair (0, 1)."""
    if v >= P:
        return ((Fraction(0), Fraction(1)),)
    if head + v <= P:
        return ((Fraction(head, P), Fraction(head + v, P)),)
    return ((Fraction(head, P), Fraction(1)), (Fraction(0), Fraction(head + v - P, P)))


def norm_range(lo, hi):
    """Range of min({t},1-{t}) over a subinterval [lo, hi] of [0,1]."""
    half = Fraction(1, 2)
    if hi <= half:
        return lo, hi
    if lo >= half:
        return 1 - hi, 1 - lo
    return min(lo, 1 - hi), half


def dist_interval(parts):
    """(lo, hi) enclosing the nearest-integer distance on an arc's parts."""
    ranges = [norm_range(lo, hi) for lo, hi in parts]
    return min(lo for lo, _ in ranges), max(hi for _, hi in ranges)


def _text(f):
    return f"{f.numerator}/{f.denominator}"


def index_check_document(i, n, head, v, P, base=None):
    """The index check of the arc [head, head + v]/P from Fractions, as full
    certificate documents stored it: against the band [1/4, 7/8], or for th2
    (base = p) the floor (p - 1)/p**2."""
    parts = arc(head, v, P)
    lo, hi = dist_interval(parts)
    if base is None:
        passed = all(Fraction(1, 4) <= a and b <= Fraction(7, 8) for a, b in parts)
    else:
        passed = lo > Fraction(base - 1, base * base)
    doc = {"i": i, "n": n, "wraparound": len(parts) == 2 or parts == arc(0, 1, 1),
           "norm_interval": [_text(lo), _text(hi)], "pass": passed}
    texts = [[_text(a), _text(b)] for a, b in parts]
    if len(texts) == 1:
        doc["interval"] = texts[0]
    else:
        doc["intervals"] = texts
    if base is None:
        doc["target"] = ["1/4", "7/8"]
    else:
        doc["target_min"] = _text(Fraction(base - 1, base * base))
    return doc


class Block(NamedTuple):
    """Enclosure of one block's sum of r_j*(22/7)*||u_j x||, j_from < j <= j_to."""

    index: int
    j_from: int
    j_to: int
    upper_bound: Fraction
    lower_bound: Fraction
    majorant: Fraction
    passed: bool

    def to_json(self) -> dict:
        return {"index": self.index, "from": self.j_from, "to": self.j_to,
                "upper_bound": str(self.upper_bound), "lower_bound": str(self.lower_bound),
                "majorant": str(self.majorant), "pass": self.passed}


def block_checks(plan) -> list[Block]:
    """Per gap between consecutive selected chain indices, the block's sum
    enclosed with one arc, one norm range and two Fraction additions per j
    over its last _BLOCK_WINDOW j, and a tail term for the earlier ones,
    against the majorant 2*(22/7)*r_{max(j_from, 1)}, r_j = 1/j."""
    weights = WeightRule.harmonic()
    ks = [p.k for p in plan.indices] + [plan.closing_k]
    blocks = []
    for idx in range(1, len(plan.indices)):
        j_from, j_to = ks[idx - 1], ks[idx]
        upper = lower = Fraction(0)
        head_from = max(j_from, j_to - _BLOCK_WINDOW)
        if head_from > j_from:
            upper = weights.value(j_from + 1) * Fraction(2, 1 << _BLOCK_WINDOW)
        walk = step_heads(plan.seq, {j_to + 1: plan.indices[idx].digit},
                          ks[idx + 1], j_to, head_from)
        for j, head, P in walk:
            norm_lo, norm_hi = dist_interval(arc(head, 1, P))
            lower += weights.value(j) * norm_lo
            upper += weights.value(j) * norm_hi
        upper, lower = SIN_UPPER * upper, 2 * lower
        majorant = 2 * SIN_UPPER * weights.value(max(j_from, 1))
        blocks.append(Block(idx + 1, j_from, j_to, upper, lower, majorant, upper <= majorant))
    return blocks


def within_rows(plan, checks, blocks) -> bool:
    """Whether the reference enclosures of the plan lie within the lemma rows
    of its verify report: each index's arc inside its row's arc [pivot/q,
    pivot/q + 1/8] (th6/th1), or its least norm above its row's floor
    min(pivot, q - pivot)/q - 1/q**2 (th2, q = p); each block's enclosure
    at most its row's majorant, with the same index, range and majorant."""
    heads = list(index_heads(plan))
    if len(heads) != len(checks):
        return False
    for (p, head, P), row in zip(heads, checks):
        q, pivot = row.q, row.pivot
        if (row.i, row.n) != (p.i, p.n):
            return False
        parts = arc(head, p.v, P)
        if row.th2:
            floor = Fraction(q * min(pivot, q - pivot) - 1, q * q)
            if not dist_interval(parts)[0] > floor:
                return False
        elif not all(Fraction(pivot, q) <= lo and hi <= Fraction(pivot, q) + Fraction(1, 8)
                     for lo, hi in parts):
            return False
    exact = block_checks(plan) if plan.tag != "th6" else []
    return len(exact) == len(blocks) and all(
        (ref.index, ref.j_from, ref.j_to, ref.majorant) == (row.index, row.j_from, row.j_to,
                                                            row.majorant)
        and ref.lower_bound <= ref.upper_bound <= row.majorant
        for ref, row in zip(exact, blocks))

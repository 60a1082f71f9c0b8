"""References for the integer enclosure arithmetic: the step-by-step walk
that `core.enclosure_heads` cuts in one step, circle arcs as plain Fraction
pairs with the nearest-integer range over them, and block bounds
accumulated one j at a time."""

from fractions import Fraction

from thinset import witness
from thinset.convergence import WeightRule
from thinset.core import _TAIL_BITS, SIN_UPPER, DomainError
from thinset.witness import BlockCheck


def step_heads(seq, digits, stop, top, bottom=None, v=1):
    """`core.enclosure_heads` as a walk: at top, r grows one ratio at a time
    past the last given digit until v/P is at most 2**-_TAIL_BITS, or to
    `stop`; stepping k down multiplies q_{k+1} into P and trims the ratios
    past the last digit that the bound no longer needs."""
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
    """`IndexCheck.to_json` of the arc [head, head + v]/P from Fractions:
    against the band [1/4, 7/8], or for th2 (base = p) the floor
    (p - 1)/p**2."""
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


def block_checks(plan) -> list[BlockCheck]:
    """`witness._block_checks` with one arc, one norm range and two Fraction
    additions per j."""
    weights = WeightRule.harmonic()
    ks = [p.k for p in plan.indices] + [plan.closing_k]
    blocks = []
    for idx in range(1, len(plan.indices)):
        j_from, j_to = ks[idx - 1], ks[idx]
        upper = lower = Fraction(0)
        head_from = max(j_from, j_to - witness._BLOCK_WINDOW)
        if head_from > j_from:
            upper = weights.value(j_from + 1) * Fraction(2, 1 << witness._BLOCK_WINDOW)
        walk = step_heads(plan.seq, {j_to + 1: plan.indices[idx].digit},
                          ks[idx + 1], j_to, head_from)
        for j, head, P in walk:
            norm_lo, norm_hi = dist_interval(arc(head, 1, P))
            lower += weights.value(j) * norm_lo
            upper += weights.value(j) * norm_hi
        upper, lower = SIN_UPPER * upper, 2 * lower
        majorant = 2 * SIN_UPPER * weights.value(max(j_from, 1))
        blocks.append(BlockCheck(idx + 1, j_from, j_to, upper, lower,
                                 majorant, upper <= majorant))
    return blocks

"""Per-point Fraction references for the integer enclosure arithmetic: the
nearest-integer range of a circle interval, and block bounds accumulated
one j at a time."""

from fractions import Fraction

from thinset import witness
from thinset.convergence import WeightRule
from thinset.core import SIN_UPPER, CircleInterval, RatInterval, enclosure_heads
from thinset.witness import BlockCheck


def norm_range(part: RatInterval) -> RatInterval:
    """Range of min({t},1-{t}) over a subinterval of [0,1]."""
    half = Fraction(1, 2)
    lo, hi = part.lo, part.hi
    if hi <= half:
        return RatInterval(lo, hi)
    if lo >= half:
        return RatInterval(1 - hi, 1 - lo)
    return RatInterval(min(lo, 1 - hi), half)


def dist_interval(enclosure) -> RatInterval:
    """Enclosure of the nearest-integer distance of the enclosed point."""
    ranges = [norm_range(p) for p in enclosure.parts]
    return RatInterval(min(r.lo for r in ranges), max(r.hi for r in ranges))


def block_checks(plan) -> list[BlockCheck]:
    """`witness._block_checks` with one circle interval, one norm interval and
    two Fraction additions per j."""
    weights = WeightRule.harmonic()
    ks = [p.k for p in plan.indices] + [plan.closing_k]
    blocks = []
    for idx in range(1, len(plan.indices)):
        j_from, j_to = ks[idx - 1], ks[idx]
        upper = lower = Fraction(0)
        head_from = max(j_from, j_to - witness._BLOCK_WINDOW)
        if head_from > j_from:
            upper = weights.value(j_from + 1) * Fraction(2, 1 << witness._BLOCK_WINDOW)
        walk = enclosure_heads(plan.seq, {j_to + 1: plan.indices[idx].digit},
                               ks[idx + 1], j_to, head_from)
        for j, head, P in walk:
            norm = dist_interval(CircleInterval.from_head(head, 1, P))
            lower += weights.value(j) * norm.lo
            upper += weights.value(j) * norm.hi
        upper, lower = SIN_UPPER * upper, 2 * lower
        majorant = 2 * SIN_UPPER * weights.value(max(j_from, 1))
        blocks.append(BlockCheck(idx + 1, j_from, j_to, upper, lower,
                                 majorant, upper <= majorant))
    return blocks

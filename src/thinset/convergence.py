"""Convergence evidence for ||a_n*x|| -> 0 (pointwise and ideal-wise) and
weighted summability reports.

A prefix of a sequence can never prove its limit, so Member/NotMember verdicts
are produced only from structural certificates:

* terminating: some a_m*x is an integer and every later a_n is a multiple
  of a_m, so the norms vanish from m on;
* periodic recurrence: for rational x and a multiplicatively generated (a_n),
  the residues a_n*x mod 1 fall into an exact cycle, and a cycle value with
  positive norm recurs along an arithmetic progression;
* never integral: for rational x = p/d and a periodic multiplier chain, d
  keeps a prime factor that neither a_1 nor any multiplier supplies, so no
  a_n*x is an integer and ||a_n x|| >= 1/d for every n;
* support rule: the nonzero-digit index set of x lies in the ideal and all
  its integer shifts do too.

Everything else is reported as Inconclusive together with the prefix trace.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Union

from ._exact_text import exact_fraction, exact_str
from .core import (CircleRational, DigitExpansion, SIN_UPPER, _TRUNCATION_BITS,
                   _partial_sum, reconstruct_exact, support)
from .ideals import (IdealDescriptor, Outcome, Progression, Verdict, ideal_member,
                     translation_invariant_in)
from .sequences import ArithmeticTerms, TermSequence

DEFAULT_DEPTH = 100_000
DEFAULT_EPS_GRID = (Fraction(1, 4), Fraction(1, 8), Fraction(1, 16), Fraction(1, 64))
_CYCLE_STATE_CAP = 400_000     # largest den*period whose cycle is reported
_FACTOR_BOUND = 400_000        # trial-division limit when factoring d for n!
_BLOCK_CAP = 4096              # most positions of a residue block
_BLOCK_BITS = 1 << 23          # most bits of the residues of a block
_FIRST_BLOCK = 16              # fewest positions from a block's start to the save point ending it

PointLike = Union[CircleRational, DigitExpansion]


# ---------------------------------------------------------------------------
# Residue machinery for rational x
# ---------------------------------------------------------------------------

class _Residues:
    """The walk (n, t_n), t_n = a_n*num mod den, for n = start .. depth (for
    ever when depth is None), on a multiplier chain, a block at a time:
    blocks() yields (n, [t_n, t_{n+1}, ...]) of at most _BLOCK_CAP positions
    and about _BLOCK_BITS bits, formed in a tight t = t*m % den loop over
    the multipliers of the terms' chain (`_Divisibility.multipliers`).
    Memory is O(block).

    start = (n0, t_n0) resumes a chain walk at n0.  With stop=True a chain
    walk ends once the rest is fixed, and sets repeat = (h, t_h, lam): the
    positions h .. h+lam-1 were walked, and t_p = t_{p-lam} for every later
    p.  A zero residue stays zero, as a_{n+1} = a_n*m(n), so lam = 1 there.
    With multipliers of period P the state (t_n, n mod P) fixes the rest,
    and each state is compared with the one saved at the last power of two
    (Brent, BIT 20, 1980): the first repeat gives the least period lam of
    the states, within 2*max(mu, lam) + lam steps.  A block ends on the
    first save point _FIRST_BLOCK or more positions on (the start is a
    block of its own; a walk with no save points stops early only where its
    tight loop does), and one `mark in` the positions of the mark's phase
    checks each part of it between two save points.

    With quiet > 0 (at most den) a stopping walk may leave out positions
    whose residue is below quiet: a product t_n*m(n) below 2**b <= quiet,
    b = bit_length(quiet) - 1, ends the block's tight loop unreduced, and so
    is each later t_n*m(n)*...*m(p-1) that the sum of bit_length(m - 1) =
    ceil(log2 m) keeps below 2**b.  The walk steps over these positions and
    starts the next block at the first position past the run.  With
    multipliers of period P, a run that has stepped P of them, of product M
    and bit sum C, jumps the w whole periods that keep the sum within b and
    n within the depth at once: t times M**w (a shift when M is a power of
    two), C*w bits, n + P*w; the cycled period stays in phase.  n! and
    finite lists step every position.  Which positions are yielded depends
    on the state alone, and the mark is saved at the first yielded n from
    its save point on; as every multiplier is >= 2, the yielded positions
    cannot wind twice round the state cycle before they repeat, so repeat
    holds the same least period.
    """

    def __init__(self, num: int, den: int, terms: TermSequence,
                 depth: Optional[int] = None, start: Optional[tuple[int, int]] = None,
                 stop: bool = False, quiet: int = 0):
        self.num, self.den, self.terms, self.depth = num, den, terms, depth
        self.start, self.stop, self.quiet = start, stop, quiet
        self.repeat: Optional[tuple[int, int, int]] = None

    def __iter__(self):
        for n, block in self.blocks():
            yield from zip(itertools.count(n), block)

    def blocks(self):
        num, den, terms = self.num, self.den, self.terms
        n, t = self.start or (1, None)
        end = math.inf if self.depth is None else self.depth
        chain = terms.chain
        if chain is None:
            for n, k in _spans(n, end):
                yield n, [terms.term(j) * num % den for j in range(n, n + k)]
            return
        if n > end:
            return
        if t is None:
            t = (chain.first % den) * num % den
        period, stop = chain.period, self.stop
        lo = 1 << max(self.quiet.bit_length() - 1, 0) if stop else 0    # 2**b
        b = lo.bit_length() - 1
        mark, mark_n, save_at = None, 0, n if stop and period else end
        cap = min(_BLOCK_CAP, _BLOCK_BITS // den.bit_length() + 1)
        block, first, stream, run = [t], n, chain.multipliers(n), False
        while True:
            s = save_at     # the block ends on a save point (at n itself for the start)
            while n < s < n + _FIRST_BLOCK:
                s *= 2
            k = min(cap, end - n, s - n)
            if k:
                for m in itertools.islice(stream, k):
                    if t < lo:
                        t *= m
                        if t < lo:      # still quiet, so unreduced: step over the run
                            run = True
                            break
                        t %= den
                    else:
                        t = t * m % den
                    block.append(t)
            i = 0
            while i < len(block):   # the part of the block up to the next save point
                j = min(len(block), save_at - first + 1)
                if mark is not None:
                    s = i + (mark_n - first - i) % period
                    phase = block[s:j:period]
                    if mark in phase:
                        i = s + phase.index(mark) * period
                        self.repeat = (mark_n, mark, first + i - mark_n)
                        if i:
                            yield first, block[:i]
                        return
                if first + j - 1 == save_at:
                    mark, mark_n, save_at = block[j - 1], save_at, 2 * save_at
                i = j
            if block:
                yield first, block
                n = first + len(block) - 1
                if stop and not block[-1]:  # so is every later residue, but a
                    # finite list still has to reach the depth
                    self.repeat = (n, 0, 1)
                    if end < math.inf and chain.mults is not None and not period:
                        list(chain.multipliers(n, end - n))
                    return
                if n == end:
                    return
            block, first = [], n + 1
            if run:
                run, n = False, n + 1
                ms, bits = [], t.bit_length()
                ms_from = bits      # bits before the multipliers in ms
                while bits <= b:
                    if len(ms) == period:
                        # ms is one period, of product M and bit sum C:
                        # jump the w more periods that keep bits <= b
                        C = bits - ms_from
                        w = min((b - bits) // C, (end - n) // period)
                        if w > 0:
                            M = math.prod(ms)
                            t = (t << (M.bit_length() - 1) * (w + 1) if M & (M - 1) == 0
                                 else t * M ** (w + 1))
                            ms, n, bits = [], n + w * period, bits + w * C
                            ms_from = bits
                    if n == end:
                        return
                    ms.append(next(stream))
                    n += 1
                    bits += (ms[-1] - 1).bit_length()
                t = t * _tree_product(ms) % den
                save_at = max(save_at, n)   # the first yielded n >= save_at
                block, first = [t], n


def _spans(n: int, last) -> Iterator[tuple[int, int]]:
    """(n, k) for blocks n .. n+k-1 up to last, k doubling from 1 to _BLOCK_CAP."""
    k = 1
    while n <= last:
        yield n, min(k, last - n + 1)
        n, k = n + k, min(2 * k, _BLOCK_CAP)


def _tree_product(xs: list[int]) -> int:
    """The product of xs by binary splitting, so that the operands of each
    product stay balanced; a left fold is quadratic in len(xs)."""
    if len(xs) <= 16:
        return math.prod(xs)
    mid = len(xs) // 2
    return _tree_product(xs[:mid]) * _tree_product(xs[mid:])


def _lcm_upto(n: int) -> int:
    """lcm(1, ..., n): the product, by a product tree, of the largest power
    <= n of each prime p <= n, the primes from a sieve of Eratosthenes."""
    sieve = bytearray([1]) * (n + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
    powers = []
    for p in itertools.compress(range(n + 1), sieve):
        q = p
        while q * p <= n:
            q *= p
        powers.append(q)
    return _tree_product(powers)


@dataclass(frozen=True)
class _Cycle:
    mu: int                 # first index inside the cycle
    period: int
    norms: tuple[int, ...]  # den*||a_n x|| for n = mu .. mu+period-1


def _walked_cycle(num: int, den: int, terms: TermSequence, mu: int,
                  walked: tuple) -> _Cycle:
    """The cycle of (a_n*x mod 1, phase) from its start mu, out of the
    ε-walk's pass `walked` (see _eps_stats): with the residues t_h ..
    t_{h+lam-1} of one period, the norm at mu + j is the one at
    h + ((mu - h + j) mod lam).  A walk that reached its depth first goes on
    from where it stopped until the states repeat, and its last lam residues
    are the period's: it yields every position, as it has no quiet runs."""
    h, lam, residues = walked
    if lam is None:
        walk = _Residues(num, den, terms, start=(h, residues[-1]), stop=True)
        residues = [t for _, block in walk.blocks() for t in block]
        h, _, lam = walk.repeat
        residues = residues[-lam:]
    k = (mu - h) % lam
    return _Cycle(mu, lam, tuple(min(t, den - t) for t in residues[k:] + residues[:k]))


def _rational_verdict(x: CircleRational, terms: TermSequence, walked: tuple
                      ) -> tuple[Verdict, Optional[_Cycle]]:
    """Verdict on ||a_n x|| -> 0 for rational x, with the residue cycle behind
    a periodic-recurrence verdict, taken from the ε-walk's pass `walked`."""
    def undecided(note: str):
        return Verdict(Outcome.INCONCLUSIVE, None, {"note": note}), None

    if x.num == 0:
        return Verdict(Outcome.MEMBER, "zero"), None
    kernel = terms.chain
    if kernel is None:
        return undecided("terms are not a multiplicative chain")
    zero_from, rest = kernel.zero_from(x.den, _FACTOR_BOUND)
    if rest > 1 and kernel.period:
        # d divides no a_n; the states (a_n*x mod 1, phase) cycle from
        # zero_from on, and the cycle, when small enough to report, names
        # the recurring norm, else ||a_n x|| >= 1/d is the certificate
        if x.den * kernel.period > _CYCLE_STATE_CAP:
            return Verdict(Outcome.NOT_MEMBER, "never-integral",
                           {"norm_floor": Fraction(1, x.den)}), None
        cycle = _walked_cycle(x.num, x.den, terms, zero_from, walked)
        return Verdict(Outcome.NOT_MEMBER, "periodic-recurrence",
                       {"cycle_start": cycle.mu, "period": cycle.period,
                        "recurring_norm": Fraction(max(cycle.norms), x.den)}), cycle
    if rest > 1 or zero_from is None:
        return undecided("finite ratio list ends before d divides a term"
                         if kernel.mults is not None else
                         f"n! terms: trial division up to {_FACTOR_BOUND} "
                         f"leaves a cofactor of the denominator it cannot factor")
    return Verdict(Outcome.MEMBER, "terminating", {"zero_from": zero_from}), None


# ---------------------------------------------------------------------------
# Convergence reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EpsilonStats:
    eps: Fraction
    exceptional_count: int
    last_exceptional: Optional[int]
    prefix_density: Fraction
    definite_only: bool = False


@dataclass(frozen=True)
class ConvergenceReport:
    depth: int
    stats: tuple[EpsilonStats, ...]     # sorted by decreasing eps
    verdict: Verdict

    def __post_init__(self):
        # exceptional sets are nested downward in eps
        counts = [s.exceptional_count for s in self.stats]
        if counts != sorted(counts):
            raise ValueError("exceptional counts must grow as eps shrinks")

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "stats": [
                {"eps": exact_str(s.eps), "exceptional_count": s.exceptional_count,
                 "last_exceptional": s.last_exceptional,
                 "prefix_density": exact_str(s.prefix_density),
                 "definite_only": s.definite_only}
                for s in self.stats
            ],
            "verdict": self.verdict.to_json(),
        }


def _eps_stats(x: PointLike, terms: TermSequence, depth: int,
               eps_grid: Sequence[Fraction]) -> tuple[list[EpsilonStats], tuple]:
    """Counts of n <= depth with ||a_n x|| >= eps for an exact rational x, or
    definite ones for an expansion truncated at K, in one integer walk over
    the residues t = a_n*num mod den, and the walk's pass for _walked_cycle.

    x = num/den puts a_n*x at the arc [t, t]/den.  A truncation x_K = N/u_top
    (see core._partial_sum) is num/u_K with num = N*q_{top+1}***q_K, never
    reduced, and every continuation puts a_n*x in [t, t + a_n]/u_K.  An arc's
    norm floor is min(t, lim - t) with lim = den - width; an arc that wraps
    through 0 counts for no eps, and the walk stops where 2*a_n >= u_K.
    The exact walk stops once the rest of it repeats its last period lam
    (see _Residues), and one more walk over that period h .. h+lam-1 counts
    each of its positions for the floor((depth - h)/lam) later ones that
    repeat it.  It steps over runs of residues below the smallest
    ceil(eps*den), which reach no eps.  The exact walk is classified a
    block at a time: min(t, den - t) >= f exactly when f <= t < den - f + 1,
    so bisect_right over the floors and these bounds, clamped to den//2 + 1
    so that they stay sorted when f > den/2, puts t in a class j, of level
    min(j, 2L - j) for L floors.  bytes.count and bytes.rfind read each
    class's count and last position over up to _BLOCK_CAP positions at once,
    class 0 where the walk stepped.

    The pass is (h, lam, residues): the period's start, length and residues
    t_h .. t_{h+lam-1}, kept where den*period is within _CYCLE_STATE_CAP; or,
    from a walk that reached its depth first, (n, None, [t_n]) at its last
    yielded position; None for a truncation.
    """
    grid = sorted(set(Fraction(e) for e in eps_grid), reverse=True)
    if len(grid) > 127:     # more classes than a byte holds: the grid in parts
        parts = [_eps_stats(x, terms, depth, grid[i:i + 127]) for i in range(0, len(grid), 127)]
        return [s for stats, _ in parts for s in stats], parts[0][1]
    if isinstance(x, CircleRational):
        num, den, widths = x.num, x.den, None
    else:
        if x.depth - 1 > _TRUNCATION_BITS:      # bits(u_K) >= K - 1, as q_n >= 2 past q_1
            raise ValueError(f"a truncation at depth K needs u_K of at least K - 1 bits, "
                             f"more than _TRUNCATION_BITS = {_TRUNCATION_BITS}")
        N, top = _partial_sum(x, x.depth)
        num, den = N * x.seq.ratio_product(top, x.depth), x.seq.u(x.depth)
        widths = list(itertools.takewhile(lambda w: 2 * w < den, terms.terms_upto(depth)))
    # an integer norm floor m reaches eps exactly when m >= ceil(eps*den); these
    # floors ascend with eps, so m reaches the `level` smallest eps, with
    # level = bisect_right(floors, m)
    floors = [-(-e.numerator * den // e.denominator) for e in reversed(grid)]
    L, mid = len(floors), den // 2 + 1
    table = [min(f, mid) for f in floors] + [max(den - f + 1, mid) for f in reversed(floors)]
    hits = [0] * (L + 1)        # positions per level
    at = [0] * (L + 1)          # last position per level, 0 for none

    def tally(h: int, classes: bytes, reps: int = 1, shift: int = 0) -> None:
        for j in range(1, 2 * L):
            if count := classes.count(j):
                level = min(j, 2 * L - j)
                hits[level] += count * reps
                at[level] = max(at[level], h + classes.rfind(j) + shift)

    walk = walked = None
    if widths is not None:
        for (n, t), w in zip(_Residues(num, den, terms, len(widths)), widths):
            if t <= den - w:
                level = bisect.bisect_right(floors, min(t, den - w - t))
                hits[level] += 1
                at[level] = n
    else:
        # residues below the smallest floor reach no eps: runs of them are stepped over
        quiet = min([*floors, den])
        walk = _Residues(num, den, terms, depth, stop=True, quiet=quiet)
        base, classes = 1, bytearray()
        for n, block in walk.blocks():
            if n + len(block) - base > _BLOCK_CAP:
                tally(base, classes)
                base, classes = n, bytearray()
            classes += bytes(n - base - len(classes))
            classes += bytes(map(bisect.bisect_right, itertools.repeat(table), block))
        tally(base, classes)
        walked = n + len(block) - 1, None, block[-1:]
    if walk is not None and walk.repeat is not None and (walk.repeat[1] or not quiet):
        start, t, lam = walk.repeat      # a zero period is below quiet, so it reaches no eps
        phases = terms.chain.period
        keep = phases is not None and den * phases <= _CYCLE_STATE_CAP
        residues = []
        for h, block in _Residues(num, den, terms, start + lam - 1, start=(start, t)).blocks():
            if keep:
                residues += block
            # (depth - p)//lam is reps for p <= depth - reps*lam, one less after
            reps = (depth - h) // lam
            cut = depth - reps * lam - h + 1
            classes = bytes(map(bisect.bisect_right, itertools.repeat(table), block))
            tally(h, classes[:cut], reps, reps * lam)
            if reps > 1:
                tally(h + cut, classes[cut:], reps - 1, (reps - 1) * lam)
        if keep:
            walked = start, lam, residues
    stats = []
    for i, eps in enumerate(grid):      # eps is reached from level L - i on
        count = sum(hits[L - i:])
        stats.append(EpsilonStats(eps, count, max(at[L - i:]) or None,
                                  Fraction(count, depth),
                                  definite_only=widths is not None))
    return stats, walked


def _resolve_exact(x: PointLike) -> Optional[CircleRational]:
    if isinstance(x, CircleRational):
        return x
    if x.depth is None:
        return reconstruct_exact(x)
    return None


def classical_convergence(x: PointLike, terms: TermSequence, depth: int = DEFAULT_DEPTH,
                          eps_grid: Sequence[Fraction] = DEFAULT_EPS_GRID,
                          ) -> ConvergenceReport:
    """Pointwise convergence evidence for ||a_n x|| -> 0."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if any(Fraction(eps) <= 0 for eps in eps_grid):    # every norm is >= 0
        raise ValueError("eps must be > 0")
    exact = _resolve_exact(x)
    if exact is not None:
        stats, walked = _eps_stats(exact, terms, depth, eps_grid)
        verdict = _rational_verdict(exact, terms, walked)[0]
    else:
        assert isinstance(x, DigitExpansion)
        stats = _eps_stats(x, terms, depth, eps_grid)[0]
        definite = max((s.exceptional_count for s in stats), default=0)
        verdict = Verdict(Outcome.INCONCLUSIVE, None,
                          {"note": "truncated expansion, residue-walk evidence only",
                           "definite_exceptional": definite})
    return ConvergenceReport(depth, tuple(stats), verdict)


def _exceptional_descriptor(cycle: _Cycle, floor: int) -> Progression:
    """The cycle positions whose norm floor is >= floor, for a floor at most
    the cycle's largest: one periodic progression from the first of them."""
    js = [j for j, norm in enumerate(cycle.norms) if norm >= floor]
    return Progression(cycle.mu + js[0], cycle.period, [j - js[0] for j in js])


def membership_by_support(e: DigitExpansion, ideal: IdealDescriptor) -> Verdict:
    """Sufficient rule: support in the ideal and shift-invariantly so.

    The rule is one-directional; failure to apply is Inconclusive, never
    NotMember.
    """
    supp = support(e)
    member = ideal_member(ideal, supp)
    if member.outcome is Outcome.MEMBER:
        invariant = translation_invariant_in(ideal, supp)
        if invariant.outcome is Outcome.MEMBER:
            return Verdict(Outcome.MEMBER, "support-rule",
                           {"support_member": member.certificate,
                            "shift_invariance": invariant.certificate})
    return Verdict(Outcome.INCONCLUSIVE, None,
                   {"note": "support rule inapplicable",
                    "support_member": member.outcome.value})


def ideal_convergence(x: PointLike, terms: TermSequence, ideal: IdealDescriptor,
                      depth: int = DEFAULT_DEPTH, eps: Fraction = Fraction(1, 8),
                      ) -> Verdict:
    """Ideal-wise convergence of ||a_n x|| to 0, with exceptional-set evidence."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    eps = Fraction(eps)
    if eps <= 0:    # every norm is >= 0, so its exceptional set would prove nothing
        raise ValueError("eps must be > 0")
    if isinstance(x, DigitExpansion) and x.symbolic_support is not None \
            and isinstance(terms, ArithmeticTerms) and terms.seq == x.seq:
        by_support = membership_by_support(x, ideal)
        if by_support.outcome is Outcome.MEMBER:
            return by_support
    exact = _resolve_exact(x)
    if exact is not None:
        if exact.num == 0:
            return Verdict(Outcome.MEMBER, "zero")
        [stats], walked = _eps_stats(exact, terms, depth, [eps])
        diagnostics = {
            "eps": eps,
            "exceptional_count": stats.exceptional_count,
            "exceptional_prefix_density": stats.prefix_density,
            "last_exceptional": stats.last_exceptional,
        }
        classical, cycle = _rational_verdict(exact, terms, walked)
        if classical.outcome is Outcome.MEMBER:
            # eventual classical convergence survives any free ideal
            diagnostics.update(classical.diagnostics)
            return Verdict(Outcome.MEMBER, classical.certificate, diagnostics)
        if classical.outcome is Outcome.INCONCLUSIVE:
            diagnostics.update(classical.diagnostics)
            return Verdict(Outcome.INCONCLUSIVE, None, diagnostics)
        if cycle is not None:
            witness_eps = min(eps, Fraction(max(cycle.norms), exact.den))
            descriptor = _exceptional_descriptor(
                cycle, -(-witness_eps.numerator * exact.den // witness_eps.denominator))
        else:   # never-integral: every norm is at least 1/d
            witness_eps = min(eps, Fraction(1, exact.den))
            descriptor = Progression(1, 1)
        in_ideal = ideal_member(ideal, descriptor)
        if in_ideal.outcome is Outcome.NOT_MEMBER:
            diagnostics["witness_eps"] = witness_eps
            diagnostics["exceptional_set"] = descriptor.to_json()
            return Verdict(Outcome.NOT_MEMBER, classical.certificate, diagnostics)
        return Verdict(Outcome.INCONCLUSIVE, None, diagnostics)
    assert isinstance(x, DigitExpansion)
    [stats], _ = _eps_stats(x, terms, depth, [eps])
    return Verdict(Outcome.INCONCLUSIVE, None,
                   {"eps": eps, "definite_exceptional": stats.exceptional_count,
                    "exceptional_prefix_density": stats.prefix_density,
                    "note": "truncated expansion, residue-walk evidence only"})


# ---------------------------------------------------------------------------
# Weighted summability
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightRule:
    """r_n = 1/n**exponent for the power kind (exponent 0 means all ones),
    or a finite explicit list of rationals."""

    kind: str
    exponent: Optional[Fraction] = None
    values: Optional[tuple[Fraction, ...]] = None

    def __post_init__(self):
        if self.kind == "power":
            s = Fraction(self.exponent)
            if s < 0 or s.denominator != 1:
                raise ValueError("power weights use integer exponents >= 0")
            object.__setattr__(self, "exponent", s)
        elif self.kind == "explicit":
            values = tuple(Fraction(v) for v in self.values)
            if any(v < 0 for v in values):
                # a negative weight can cancel a sum to 0 and fake a bound
                raise ValueError("explicit weights must be >= 0")
            object.__setattr__(self, "values", values)
        else:
            raise ValueError(f"unknown weight kind {self.kind!r}")

    @classmethod
    def harmonic(cls) -> "WeightRule":
        return cls("power", Fraction(1))

    @classmethod
    def power(cls, exponent) -> "WeightRule":
        return cls("power", Fraction(exponent))

    @classmethod
    def explicit(cls, values) -> "WeightRule":
        return cls("explicit", values=tuple(values))

    def value(self, n: int) -> Fraction:
        if self.kind == "power":
            return Fraction(1, n ** self.exponent.numerator)
        if not 1 <= n <= len(self.values):
            raise ValueError(f"no weight stored for index {n}")
        return self.values[n - 1]

    @classmethod
    def parse(cls, text: str) -> "WeightRule":
        text = text.strip()
        if text == "1":
            return cls.power(0)
        if text == "1/n":
            return cls.harmonic()
        if text.startswith("1/n^"):
            return cls.power(exact_fraction(text[4:]))
        if text.startswith("[") and text.endswith("]"):
            return cls.explicit(exact_fraction(t)
                                for t in text[1:-1].split(",") if t.strip())
        raise ValueError(f"unrecognized weight spec {text!r}")

    def to_json(self) -> dict:
        if self.kind == "power":
            return {"kind": "power", "exponent": exact_str(self.exponent)}
        return {"kind": "explicit", "values": [exact_str(v) for v in self.values]}

    def __str__(self) -> str:
        if self.kind == "power":
            return {0: "1", 1: "1/n"}.get(self.exponent.numerator,
                                          f"1/n^{self.exponent}")
        return "explicit"


@dataclass(frozen=True)
class SummabilityReport:
    weights: WeightRule
    depth: int
    norm_sum: Fraction                 # exact sum r_n * ||a_n x||
    checkpoints: tuple[tuple[int, Fraction], ...]
    classification: str                # bounded-evidence | divergent-evidence | inconclusive

    def __post_init__(self):
        sums = [s for _, s in self.checkpoints]
        if sums != sorted(sums):
            raise ValueError("partial sums must be nondecreasing")

    @property
    def sin_lower(self) -> Fraction:
        return 2 * self.norm_sum

    @property
    def sin_upper(self) -> Fraction:
        return SIN_UPPER * self.norm_sum

    def to_json(self) -> dict:
        # the last checkpoint is norm_sum, and 2*norm_sum keeps its numerator
        # or its denominator: each distinct integer is written once
        digits = functools.cache(exact_str)

        def text(v: Fraction) -> str:
            if v.denominator == 1:
                return digits(v.numerator)
            return f"{digits(v.numerator)}/{digits(v.denominator)}"

        return {
            "weights": self.weights.to_json(),
            "depth": self.depth,
            "norm_sum": text(self.norm_sum),
            "sin_envelope": [text(self.sin_lower), text(self.sin_upper)],
            "checkpoints": [[n, text(s)] for n, s in self.checkpoints],
            "classification": self.classification,
        }


_SUM_BLOCK = 128     # consecutive terms summed into one p/q before it meets L


def nset_partial_sums(x: PointLike, terms: TermSequence, weights: WeightRule,
                      depth: int = 10_000) -> SummabilityReport:
    """Exact partial sums of r_n * ||a_n x|| with envelope bracketing, and
    what the walk proves of the whole sum.

    r_n*||a_n x|| = r_n*m_n/den with the floor m_n = min(t_n, den - t_n).
    The floors come from the blocks of one stopping walk of the residues
    (see _Residues), whose last period repeats up to depth; after a zero
    residue that period is the zero.  The sum up to a checkpoint is P/(L*den), with P an integer
    and L*r_n an integer for every n up to it: L = lcm(1..mark)**s for
    r_n = 1/n**s, the lcm of the denominators of an explicit list.  Each
    block of _SUM_BLOCK consecutive terms is summed into an unreduced p/q,
    reduced once and added to P as p*L // q, which is exact.  At a
    checkpoint, P is scaled onto the next L.  So no integer grows much past
    the reduced answer; one fraction over the product of the n**s would be
    about ln(mark) - 1 times as long (237k against 28.9k bits at mark 10^4,
    s = 2).

    The classification proves bounded after a zero residue (every later term
    is 0), for r_n = 1/n**s with s >= 2, and for an explicit list, which has
    no weight past its end.  With s <= 1 it proves divergent once the walk
    finds a repeating period: a zero would have stopped the walk, so ||a_n
    x|| >= 1/den from there on, and the sum of r_n/den diverges.
    """
    exact = _resolve_exact(x)
    if exact is None:
        raise ValueError("summability needs an exact point "
                         "(rational or finitely supported expansion)")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if weights.kind == "explicit" and len(weights.values) < depth:
        raise ValueError(f"no weight stored for index {len(weights.values) + 1}")
    num, den = exact.num, exact.den
    marks = sorted({10 ** k for k in range(1, 20) if 10 ** k < depth} | {depth})
    walk = _Residues(num, den, terms, depth, stop=True)
    walked = [min(t, den - t) for _, block in walk.blocks() for t in block]
    period = walked[-walk.repeat[2]:] if walk.repeat is not None else []
    floors = itertools.chain(walked, itertools.islice(itertools.cycle(period),
                                                      depth - len(walked)))
    if weights.kind == "power":
        s = weights.exponent.numerator
        rs = ((1, n ** s) for n in itertools.count(1))
        scales = [_lcm_upto(mark) ** s if s else 1 for mark in marks]
    else:
        rs = [(r.numerator, r.denominator) for r in weights.values[:depth]]
        scales = [math.lcm(*(b for _, b in rs))] * len(marks)
    pairs = zip(floors, rs)
    total, old, done = 0, 1, 0
    checkpoints = []
    for mark, L in zip(marks, scales):
        total *= L // old
        for lo in range(done, mark, _SUM_BLOCK):
            p, q = 0, 1
            for m, (a, b) in itertools.islice(pairs, min(_SUM_BLOCK, mark - lo)):
                if m:
                    p, q = p * b + m * a * q, q * b
            g = math.gcd(p, q)
            total += p // g * L // (q // g)
        checkpoints.append((mark, Fraction(total, L * den)))
        old, done = L, mark
    zero = num == 0 or walk.repeat is not None and walk.repeat[1] == 0
    bounded = zero or weights.kind == "explicit" or weights.exponent >= 2
    classification = ("bounded-evidence" if bounded else "divergent-evidence"
                      if walk.repeat is not None else "inconclusive")
    return SummabilityReport(weights, depth, checkpoints[-1][1], tuple(checkpoints),
                             classification)


def weight_ideal_link(weights: WeightRule, ideal: IdealDescriptor) -> Verdict:
    """Certified answers to: does sum_{n in A} r_n < infinity force A into the
    ideal?  Answers come from a fixed table; anything else is Inconclusive."""
    from .ideals import Geometric as GeometricSet
    if weights.kind != "power":
        return Verdict(Outcome.INCONCLUSIVE, None,
                       {"note": "no certificate for explicit weight lists"})
    s = weights.exponent
    if s == 0:
        # constant weights: finite sums exactly for finite sets, and finite
        # sets belong to every ideal in the catalog
        return Verdict(Outcome.MEMBER, "finite-sums-iff-finite")
    if s > 1:
        return Verdict(Outcome.NOT_MEMBER, "summable-on-everything",
                       {"counterexample": Progression(1, 1).to_json()})
    # now 0 < s <= 1
    if ideal.kind == "density":
        # a set of positive upper density makes sum n**(-s) diverge
        return Verdict(Outcome.MEMBER, "divergence-on-positive-density")
    if ideal.kind == "summable" and ideal.exponent == s:
        return Verdict(Outcome.MEMBER, "definitional")
    if ideal.kind == "fin":
        return Verdict(Outcome.NOT_MEMBER, "infinite-summable-set",
                       {"counterexample": GeometricSet(2).to_json()})
    return Verdict(Outcome.INCONCLUSIVE, None,
                   {"note": f"no table entry for weights {weights} and "
                            f"ideal {ideal.kind}"})

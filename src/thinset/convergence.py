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
from typing import Optional, Sequence, Union

from ._exact_text import exact_fraction, exact_str
from .core import (CircleRational, DigitExpansion, SIN_UPPER, _TRUNCATION_BITS,
                   _partial_sum, reconstruct_exact, support)
from .ideals import (IdealDescriptor, Outcome, Progression, Verdict, ideal_member,
                     translation_invariant_in)
from .sequences import (ArithmeticTerms, TermSequence, _divisibility_of,
                        multiplier_chain, phase_period)

DEFAULT_DEPTH = 100_000
DEFAULT_EPS_GRID = (Fraction(1, 4), Fraction(1, 8), Fraction(1, 16), Fraction(1, 64))
_CYCLE_STATE_CAP = 400_000     # largest den*period whose cycle is reported
_FACTOR_BOUND = 400_000        # trial-division limit when factoring d for n!

PointLike = Union[CircleRational, DigitExpansion]


# ---------------------------------------------------------------------------
# Residue machinery for rational x
# ---------------------------------------------------------------------------

class _Residues:
    """The walk (n, t_n), t_n = a_n*num mod den, for n = start .. depth (for
    ever when depth is None), incrementally on a multiplier chain.

    start = (n0, t_n0) resumes a chain walk at n0.  With stop=True a chain
    walk ends once the rest is fixed, and sets repeat = (h, t_h, lam): the
    positions h .. h+lam-1 were walked, and t_p = t_{p-lam} for every later
    p.  A zero residue stays zero, as a_{n+1} = a_n*m(n), so lam = 1 there.
    With multipliers of period P the state (t_n, n mod P) fixes the rest,
    and each state is compared with the one saved at the last power of two
    (Brent, BIT 20, 1980): the first repeat gives the least period lam of
    the states, within 2*max(mu, lam) + lam steps and O(1) memory.

    With quiet > 0 (at most den) a stopping walk may leave out positions
    whose residue is below quiet.  After a residue below quiet, a product
    t_n = t_{n-1}*m(n-1) still below quiet is left unreduced, and so is
    each later t_n*m(n)*...*m(p-1) that the sum of bit_length(m - 1) =
    ceil(log2 m) keeps below 2**b <= quiet, b = bit_length(quiet) - 1.
    The walk steps over all of these positions and forms one product at the
    first position past the run.  With multipliers of period P, a run that
    has stepped P of them, of product M and bit sum C, jumps the w whole
    periods that keep the sum within b and n within the depth at once: t
    times M**w (a shift when M is a power of two), C*w bits, n + P*w.  Any
    P consecutive multipliers are a rotation of those P, so the jump asks
    for none, and a bad ratio of a cycled list raises within the P asked
    first, as in a full walk.  A run thus asks for at most 2P + 1
    multipliers, whatever its length.  n! and finite lists have no period
    and step every position, so a finite list is asked for each ratio that
    a full walk asks for.  Which positions are yielded depends on the state
    alone, and the mark is saved at the first yielded n from its save point
    on; as every multiplier is >= 2, the yielded positions cannot wind twice
    round the state cycle before they repeat, so repeat holds the same least
    period.
    """

    def __init__(self, num: int, den: int, terms: TermSequence,
                 depth: Optional[int] = None, start: Optional[tuple[int, int]] = None,
                 stop: bool = False, quiet: int = 0):
        self.num, self.den, self.terms, self.depth = num, den, terms, depth
        self.start, self.stop, self.quiet = start, stop, quiet
        self.repeat: Optional[tuple[int, int, int]] = None

    def __iter__(self):
        num, den, depth, terms = self.num, self.den, self.depth, self.terms
        n0, t = self.start or (1, None)
        if depth is not None and depth < n0:
            return
        chain = multiplier_chain(terms)
        if chain is None:
            for n in itertools.count(n0) if depth is None else range(n0, depth + 1):
                yield n, terms.term(n) * num % den
            return
        first, mult = chain
        if t is None:
            t = (first % den) * num % den
        # a finite chain has no multiplier past its last term, so only the
        # n that are walked ask for one
        steps = itertools.count(n0 + 1) if depth is None else range(n0 + 1, depth + 1)
        yield n0, t
        if not self.stop:
            for n in steps:
                t = t * mult(n - 1) % den
                yield n, t
            return
        period = phase_period(terms)
        if not t:
            self._zero_from(n0, mult, period)
            return
        # the saved state is referenced, never copied; with no period it
        # stays None, which no residue equals
        mark, mark_n, save_at = (t, n0, 2 * n0) if period else (None, 0, 0)
        quiet = self.quiet
        b = quiet.bit_length() - 1
        n = n0
        while n != depth:
            if t >= quiet:
                t = t * mult(n) % den
                n += 1
            else:
                t *= mult(n)
                n += 1
                if t < quiet:   # still quiet, so unreduced: step over the run
                    ms, bits = [], t.bit_length()
                    ms_from = bits      # bits before the multipliers in ms
                    while bits <= b:
                        if len(ms) == period:
                            # ms is one period, of product M and bit sum C:
                            # jump the w more periods that keep bits <= b
                            C = bits - ms_from
                            w = (b - bits) // C
                            if depth is not None:
                                w = min(w, (depth - n) // period)
                            if w > 0:
                                M = math.prod(ms)
                                t = (t << (M.bit_length() - 1) * (w + 1) if M & (M - 1) == 0
                                     else t * M ** (w + 1))
                                ms, n, bits = [], n + w * period, bits + w * C
                                ms_from = bits
                        if n == depth:
                            return
                        ms.append(mult(n))
                        n += 1
                        bits += (ms[-1] - 1).bit_length()
                    t *= _tree_product(ms)
                t %= den
                if period and n > save_at:     # the first yielded n >= save_at
                    save_at = n
            if t == mark and (n - mark_n) % period == 0:
                self.repeat = (mark_n, mark, n - mark_n)
                return
            yield n, t
            if not t:
                self._zero_from(n, mult, period)
                return
            if n == save_at:
                mark, mark_n, save_at = t, n, 2 * n

    def _zero_from(self, n: int, mult, period: Optional[int]) -> None:
        """Stop at the zero residue t_n.  Every later residue is 0, but a full
        walk would still ask for the later multipliers, so ask for those that
        can fail: one period of a cycled list, or a finite list to its end."""
        self.repeat = (n, 0, 1)
        depth, terms = self.depth, self.terms
        if depth is None:
            return
        if period is not None:
            depth = min(depth, n + period)
        elif not (isinstance(terms, ArithmeticTerms) and terms.seq.finite):
            return
        for k in range(n, depth):
            mult(k)


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
        residues = [t for _, t in walk]
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
    kernel = _divisibility_of(terms)
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
    ceil(eps*den), which reach no eps.

    The pass is (h, lam, residues): the period's start, length and residues
    t_h .. t_{h+lam-1}, kept where den*period is within _CYCLE_STATE_CAP; or,
    from a walk that reached its depth first, (n, None, [t_n]) at its last
    yielded position.
    """
    if isinstance(x, CircleRational):
        num, den, widths = x.num, x.den, None
    else:
        if x.depth - 1 > _TRUNCATION_BITS:      # bits(u_K) >= K - 1, as q_n >= 2 past q_1
            raise ValueError(f"a truncation at depth K needs u_K of at least K - 1 bits, "
                             f"more than _TRUNCATION_BITS = {_TRUNCATION_BITS}")
        N, top = _partial_sum(x, x.depth)
        num, den = N * x.seq.ratio_product(top, x.depth), x.seq.u(x.depth)
        widths = terms.terms_upto(depth)
    grid = sorted(set(Fraction(e) for e in eps_grid), reverse=True)
    # an integer norm floor m reaches eps exactly when m >= ceil(eps*den); these
    # floors ascend with eps, so m reaches the `level` smallest eps, with
    # level = bisect_right(floors, m)
    floors = [-(-e.numerator * den // e.denominator) for e in reversed(grid)]
    hits = [0] * (len(grid) + 1)        # positions per level
    at = [0] * (len(grid) + 1)          # last position per level, 0 for none
    lim = den
    # an exact residue below the smallest floor reaches no eps, so the walk
    # may step over runs of them
    quiet = min([*floors, den]) if widths is None else 0
    walk = _Residues(num, den, terms, depth, stop=widths is None, quiet=quiet)
    for n, t in walk:
        if widths is not None:
            w = next(widths)
            if 2 * w >= den:
                break
            lim = den - w
            if t > lim:
                continue
        level = bisect.bisect_right(floors, min(t, lim - t))
        hits[level] += 1
        at[level] = n
    walked = n, None, [t]
    if walk.repeat is not None:
        start, t, lam = walk.repeat
        period = _Residues(num, den, terms, start + lam - 1, start=(start, t))
        phases = phase_period(terms)
        if phases is not None and den * phases <= _CYCLE_STATE_CAP:
            period = list(period)
            walked = start, lam, [t for _, t in period]
        for h, t in period:
            reps = (depth - h) // lam
            if reps:
                level = bisect.bisect_right(floors, min(t, den - t))
                hits[level] += reps
                at[level] = max(at[level], h + reps * lam)
    stats = []
    for i, eps in enumerate(grid):      # eps is reached from level len(grid) - i on
        count = sum(hits[len(grid) - i:])
        stats.append(EpsilonStats(eps, count, max(at[len(grid) - i:]) or None,
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
                          {"note": "truncated expansion, enclosure evidence only",
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
                    "note": "truncated expansion, enclosure evidence only"})


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
class BlockCheck:
    """Certified enclosure of one block of the weighted upper-envelope sum."""

    index: int
    j_from: int           # block covers j_from < j <= j_to
    j_to: int
    upper_bound: Fraction     # certified >= sum_block r_j*(22/7)*||a_j x||
    lower_bound: Fraction     # certified <= the same sum
    majorant: Fraction
    passed: bool

    def to_json(self) -> dict:
        return {"index": self.index, "from": self.j_from, "to": self.j_to,
                "upper_bound": exact_str(self.upper_bound),
                "lower_bound": exact_str(self.lower_bound),
                "majorant": exact_str(self.majorant), "pass": self.passed}


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
    The floors come from one stopping walk of the residues (see _Residues),
    whose last period repeats up to depth; after a zero residue that period
    is the zero.  The sum up to a checkpoint is P/(L*den), with P an integer
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
    walked = [min(t, den - t) for _, t in walk]
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

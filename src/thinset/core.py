"""Exact circle arithmetic: points of [0,1), digit expansions, rational intervals.

Everything is computed over exact rationals; there is no floating point
anywhere.  Mod-1 intervals that cross the 0/1 seam are kept as an explicit
two-part union instead of being widened.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, Mapping, Optional, Union

from ._exact_text import decoder, exact_fraction, exact_int, exact_str
from .sequences import ArithmeticSequence, ArithmeticTerms, phase_period

if TYPE_CHECKING:
    from .ideals import SetDescriptor

SIN_UPPER = Fraction(22, 7)   # rational majorant of pi in the sine envelope
_TRUNCATION_BITS = 1 << 27     # largest bits(u_K) a partial sum or truncation at K may need


class DomainError(ValueError):
    """Input outside the operation's domain."""


class InsufficientDigitsError(ValueError):
    """A truncated expansion does not hold enough digits for the request."""


RationalLike = Union[int, Fraction, "CircleRational"]


def _gcd(a: int, b: int) -> int:
    """gcd(a, b) for a >= 0 and b > 0.  Stein's first step: the power of two
    2**min(v2(a), v2(b)) comes from shifts and only b's odd part reaches
    math.gcd, so a dyadic b costs time linear in bits."""
    s = (b & -b).bit_length() - 1
    t = (a & -a).bit_length() - 1 if a else s
    return math.gcd(a, b >> s) << min(s, t)


def as_fraction(x: RationalLike) -> Fraction:
    if isinstance(x, CircleRational):
        return x.frac()
    return Fraction(x)


@dataclass(frozen=True)
class CircleRational:
    """Reduced rational point of the circle, with value in [0,1)."""

    num: int
    den: int

    def __post_init__(self):
        if self.den <= 0:
            raise DomainError("denominator must be positive")
        if not 0 <= self.num < self.den:
            raise DomainError("value must lie in [0,1)")
        if _gcd(self.num, self.den) != 1:
            raise DomainError("numerator and denominator must be coprime")

    @classmethod
    def from_fraction(cls, x: RationalLike) -> "CircleRational":
        f = as_fraction(x)
        f -= f.__floor__()
        return cls(f.numerator, f.denominator)

    @classmethod
    def parse(cls, text: str) -> "CircleRational":
        return cls.from_fraction(exact_fraction(text))

    def frac(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __str__(self) -> str:
        return f"{exact_str(self.num)}/{exact_str(self.den)}"


@dataclass(frozen=True)
class RatInterval:
    """Closed interval with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if type(self.lo) is not Fraction or type(self.hi) is not Fraction:
            object.__setattr__(self, "lo", Fraction(self.lo))
            object.__setattr__(self, "hi", Fraction(self.hi))
        if self.lo > self.hi:
            raise ValueError(f"empty interval {self}")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, x: RationalLike) -> bool:
        return self.lo <= as_fraction(x) <= self.hi

    def contains_interval(self, other: "RatInterval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def __str__(self) -> str:
        return f"[{exact_str(self.lo)}, {exact_str(self.hi)}]"


@dataclass(frozen=True)
class CircleInterval:
    """Enclosure of a circle point: one interval, or two when it wraps past 1."""

    parts: tuple[RatInterval, ...]
    wraparound: bool = False

    def within(self, target: RatInterval) -> bool:
        return all(target.contains_interval(p) for p in self.parts)

    @classmethod
    def from_head(cls, head: int, v: int, P: int) -> "CircleInterval":
        """The arc [head, head + v]/P mod 1, for 0 <= head < P."""
        if v >= P:
            return cls((RatInterval(Fraction(0), Fraction(1)),), True)
        if head + v <= P:
            return cls((RatInterval(Fraction(head, P), Fraction(head + v, P)),))
        return cls((RatInterval(Fraction(head, P), Fraction(1)),
                    RatInterval(Fraction(0), Fraction(head + v - P, P))), True)


@dataclass(frozen=True)
class DigitExpansion:
    """Digits c_n of x = sum c_n/u_n over a given chain, 0 <= c_n < q_n.

    `depth` is the truncation index; depth=None marks a finitely supported
    exact expansion (all digits beyond the stored ones are zero, so the
    canonical "c_n < q_n - 1 infinitely often" condition holds vacuously).
    Truncations are non-canonical representatives of whatever tail follows.
    Only nonzero digits are stored.
    """

    seq: ArithmeticSequence
    digits: Mapping[int, int]
    depth: Optional[int] = None
    symbolic_support: Optional["SetDescriptor"] = field(default=None, compare=False)

    def __post_init__(self):
        clean = {}
        for n, c in self.digits.items():
            if c == 0:
                continue
            if not 0 < c < self.seq.q(n):
                raise ValueError(f"digit c_{n}={c} outside [0, q_{n})")
            if self.depth is not None and n > self.depth:
                raise ValueError(f"digit index {n} beyond depth {self.depth}")
            if self.symbolic_support is not None \
                    and self.symbolic_support.contains(n) is not True:
                raise ValueError(f"digit index {n} outside the declared support")
            clean[n] = c
        object.__setattr__(self, "digits", dict(clean))

    def digit(self, n: int) -> int:
        if self.depth is not None and n > self.depth:
            raise InsufficientDigitsError(
                f"digit {n} requested but expansion is truncated at {self.depth}")
        return self.digits.get(n, 0)

    @property
    def last_index(self) -> int:
        """Largest stored nonzero index (0 when all digits vanish)."""
        return max(self.digits, default=0)

    def to_json(self) -> dict:
        digits = {exact_str(n): exact_str(c) for n, c in sorted(self.digits.items())}
        return {"sequence": self.seq.to_json(), "digits": digits, "depth": self.depth}

    @classmethod
    @decoder("expansion document")
    def from_json(cls, doc: dict) -> "DigitExpansion":
        """Decode `to_json` output; any malformed document raises ValueError.
        Older documents copy q_1 .. q_top as text (top = depth, else the last
        digit index) beside `sequence`: checked phase by phase over a cycling
        chain's L ratios, else one by one, forming only q_1 .. q_{L+1}."""
        seq = (ArithmeticSequence.from_json(doc["sequence"]) if "sequence" in doc else
               ArithmeticSequence.from_ratios([exact_int(r) for r in doc["ratios"]], cycle=False))
        digits = {exact_int(n): exact_int(c) for n, c in doc["digits"].items()}
        depth = doc.get("depth")
        e = cls(seq, digits, None if depth is None else exact_int(depth))
        if "sequence" in doc and "ratios" in doc:
            copy, top = doc["ratios"], e.depth or e.last_index
            L = phase_period(ArithmeticTerms(seq)) or top
            if not isinstance(copy, list) or len(copy) != top or any(
                    (phase := copy[s::L]).count(exact_str(seq.q(s + 1))) != len(phase)
                    for s in range(min(top, L + 1))):
                raise ValueError("ratios disagree with the sequence")
        return e


def expand(x: CircleRational, seq: ArithmeticSequence, depth: int) -> DigitExpansion:
    """Greedy digits c_n = floor(u_n*(x - x_{n-1})) of x = p/d, by the walk
    c_n = floor(q_n*r/d), r <- q_n*r mod d from r = p: r = d*u_n*(x - x_n)."""
    if depth < 1:
        raise DomainError("depth must be >= 1")
    r, d, digits = x.num, x.den, {}
    for n in range(1, depth + 1):
        c, r = divmod(seq.q(n) * r, d)      # c < q_n because r < d
        if c:
            digits[n] = c
    return DigitExpansion(seq, digits, depth)


def _partial_sum(e: DigitExpansion, depth: int) -> tuple[int, int]:
    """(N, top), x_depth = N/u_top with top the last digit index <= depth (0
    for none), by Horner's rule over the gaps' ratio products, none past q_top;
    refused first when bits(u_top) >= top - 1 is past _TRUNCATION_BITS."""
    if depth < 1:
        raise DomainError("depth must be >= 1")
    if e.depth is not None and depth > e.depth:
        raise InsufficientDigitsError(
            f"depth {depth} exceeds stored depth {e.depth}")
    indices = sorted(n for n in e.digits if n <= depth)
    if indices and (top := indices[-1]) - 1 > _TRUNCATION_BITS:
        raise DomainError(f"a digit at index {top} needs u_{top} of at least {top - 1} "
                          f"bits, more than _TRUNCATION_BITS = {_TRUNCATION_BITS}")
    N = top = 0
    for n in indices:
        N, top = N * e.seq.ratio_product(top, n) + e.digits[n], n
    return N, top


def reconstruct(e: DigitExpansion, depth: int) -> CircleRational:
    """Exact partial sum x_depth = sum_{n<=depth} c_n/u_n: one integer
    numerator over u_top (see _partial_sum), reduced once by _gcd; the
    partial sum lies in [0, 1), so 0 <= N < u_top."""
    N, top = _partial_sum(e, depth)
    d = e.seq.u(top)
    g = _gcd(N, d)
    return CircleRational(N // g, d // g)


def reconstruct_exact(e: DigitExpansion) -> CircleRational:
    """Full exact value of a finitely supported expansion."""
    if e.depth is not None:
        raise InsufficientDigitsError("expansion is a truncation, exact value unknown")
    return reconstruct(e, max(1, e.last_index))


def support(e: DigitExpansion) -> "SetDescriptor":
    """Indices of nonzero digits; the symbolic set when one was attached."""
    if e.symbolic_support is not None:
        return e.symbolic_support
    from .ideals import FiniteSet
    return FiniteSet(sorted(e.digits))


_TAIL_BITS = 64   # the head grows until the tail weight is at most 2**-_TAIL_BITS


def enclosure_heads(seq: ArithmeticSequence, digits: Mapping[int, int], stop: int,
                    top: int, bottom: Optional[int] = None, v: int = 1
                    ) -> Iterator[tuple[int, int, int]]:
    """(k, head, P) for k = top, top-1, ..., bottom+1 (top alone by default):
    {v*u_k*x} lies in [head, head + v]/P mod 1, with 0 <= head < P, for
    every x whose digits in (k, stop] are `digits` (zero where none is
    given) and whose later digits are any admissible tail.

    With P = q_{k+1}***q_r and N = sum_{k<n<=r} c_n*q_{n+1}***q_r, v*u_k*x is
    an integer plus v*N/P plus v times a tail in [0, 1/P].  Only ratios enter,
    never u_k: r runs past the last given digit and on until v/P is at most
    2**-_TAIL_BITS, or to `stop`.  Stepping k down multiplies q_{k+1} into P
    and trims the ratios past the last digit that the bound no longer needs.
    """
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


def shared_heads(seq: ArithmeticSequence, digits: Mapping[int, int], stop: int,
                 top: int, bottom: Optional[int] = None, v: int = 1,
                 walks: Optional[dict] = None) -> Iterator[tuple[int, int, int, int, int]]:
    """(top - k, head, P, lo, hi) per (k, head, P) of `enclosure_heads`, with
    (lo, hi) = norm_bounds(head, v, P), walked once per key of `walks`.

    The kernel reads only q_{low+1} .. q_high, with low = bottom + 1 (top
    alone by default) and high = max(last digit, top) + bits(v*2**_TAIL_BITS)
    + 1, and a stop past high + 1 acts as high + 1.  Over ratios of period L
    the walk is thus fixed by low mod L, by top, the digits and the clipped
    stop relative to low, and by v.  A window from below L keys apart (q_1
    alone may be 1); without a period, or without `walks`, every window is
    walked anew."""
    if walks is None or not (L := phase_period(ArithmeticTerms(seq))):
        for k, head, P in enclosure_heads(seq, digits, stop, top, bottom, v):
            yield top - k, head, P, *norm_bounds(head, v, P)
        return
    low = top if bottom is None else bottom + 1
    high = max(max(digits, default=0), top) + (v << _TAIL_BITS).bit_length() + 1
    key = (min(low, L + low % L), top - low, v, min(stop, high + 1) - low,
           tuple(sorted((n - low, c) for n, c in digits.items())))
    if key not in walks:
        walks[key] = list(shared_heads(seq, digits, stop, top, bottom, v))
    yield from walks[key]


def norm_bounds(head: int, v: int, P: int) -> tuple[int, int]:
    """Numerators over 2P of the least and the greatest ||t|| for t in the
    arc [head, head + v]/P mod 1, with 0 <= head < P."""
    end = head + v
    if v >= P:                       # the whole circle
        return 0, P
    if end > P:                      # wraps past 1, so it holds an integer
        return 0, min(P, 2 * max(P - head, end - P))
    if 2 * end <= P:                 # inside [0, 1/2]
        return 2 * head, 2 * end
    if 2 * head >= P:                # inside [1/2, 1]
        return 2 * (P - end), 2 * (P - head)
    return 2 * min(head, P - end), P     # straddles 1/2

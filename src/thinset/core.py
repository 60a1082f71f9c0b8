"""Exact circle arithmetic: points of [0,1) and digit expansions over a
divisibility chain.

Everything is computed over exact integers and rationals; there is no
floating point anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Optional, Union

from ._exact_text import decoder, exact_fraction, exact_int, exact_str
from .sequences import ArithmeticSequence, ArithmeticTerms

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
        f = x.frac() if isinstance(x, CircleRational) else Fraction(x)
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
            L = ArithmeticTerms(seq).chain.period or top
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


def _horner(seq: ArithmeticSequence, digits: Mapping[int, int], low: int) -> tuple[int, int]:
    """(N, top), N = sum c_n*q_{n+1}***q_top over the digits c_n, each at an
    index past low, with top the last index (low for none), by Horner's rule
    over the gaps' ratio products, none past q_top."""
    N = 0
    for n in sorted(digits):
        N, low = N * seq.ratio_product(low, n) + digits[n], n
    return N, low


def _partial_sum(e: DigitExpansion, depth: int) -> tuple[int, int]:
    """(N, top), x_depth = N/u_top with top the last digit index <= depth (0
    for none), by `_horner`; refused first when bits(u_top) >= top - 1 is
    past _TRUNCATION_BITS."""
    if depth < 1:
        raise DomainError("depth must be >= 1")
    if e.depth is not None and depth > e.depth:
        raise InsufficientDigitsError(
            f"depth {depth} exceeds stored depth {e.depth}")
    digits = {n: c for n, c in e.digits.items() if n <= depth}
    if digits and (top := max(digits)) - 1 > _TRUNCATION_BITS:
        raise DomainError(f"a digit at index {top} needs u_{top} of at least {top - 1} "
                          f"bits, more than _TRUNCATION_BITS = {_TRUNCATION_BITS}")
    return _horner(e.seq, digits, 0)


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

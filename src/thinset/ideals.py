"""Symbolic subsets of the naturals, densities, and ideal membership verdicts.

Verdicts are three-valued.  Member/NotMember are only ever produced by a
certified symbolic rule or an exact computation: ideal membership is read off
the set's certified counting class, and a prefix scan (`density_estimate`)
decides nothing, so that no finite amount of evidence is mistaken for a theorem.
"""

from __future__ import annotations

import bisect
import heapq
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from ._exact_text import decoder, exact_fraction, exact_int, exact_str

DEFAULT_CUTOFF = 100_000


class Outcome(Enum):
    MEMBER = "Member"
    NOT_MEMBER = "NotMember"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class Verdict:
    outcome: Outcome
    certificate: Optional[str] = None
    diagnostics: dict = field(default_factory=dict, compare=False)

    @property
    def is_member(self) -> bool:
        return self.outcome is Outcome.MEMBER

    def to_json(self) -> dict:
        return {
            "outcome": self.outcome.value,
            "certificate": self.certificate,
            # descriptors and None are JSON already; numbers keep their exact text
            "diagnostics": {k: v if v is None or isinstance(v, dict) else exact_str(v)
                            for k, v in self.diagnostics.items()},
        }


# ---------------------------------------------------------------------------
# Set descriptors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Growth:
    """Certified counting class of a set A, i.e. of |A cap [1, n]|.

    kind "finite": bounded; "log": O(log n); "linear": at least c*n from some
    n on, for a c > 0.  `density` is the exact natural density, or None where
    no rule certifies it.  `proof` names the argument behind the class.
    """

    kind: str
    density: Optional[Fraction]
    proof: str


class SetDescriptor:
    """A subset of the naturals with a strictly increasing enumeration."""

    def iter_members(self) -> Iterator[int]:
        raise NotImplementedError

    def count_upto(self, n: int) -> int:
        if n < 1:
            return 0
        count = 0
        for m in self.iter_members():
            if m > n:
                return count
            count += 1
        return count

    def contains(self, n: int) -> Optional[bool]:
        """True/False when decidable without unbounded search, else None."""
        return None

    def next_member(self, k: int) -> Optional[int]:
        """The least member >= k, or None when there is none."""
        return next((m for m in self.iter_members() if m >= k), None)

    def growth(self) -> Growth:
        raise NotImplementedError

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class FiniteSet(SetDescriptor):
    elements: tuple[int, ...]

    def __init__(self, elements: Sequence[int]):
        elems = tuple(sorted(set(int(e) for e in elements)))
        if elems and elems[0] < 1:
            raise ValueError("elements must be positive naturals")
        object.__setattr__(self, "elements", elems)

    def iter_members(self) -> Iterator[int]:
        return iter(self.elements)

    def count_upto(self, n: int) -> int:
        return sum(1 for e in self.elements if e <= n)

    def contains(self, n: int) -> bool:
        return n in self.elements

    def growth(self) -> Growth:
        return Growth("finite", Fraction(0), "finite-sum")

    def to_json(self) -> dict:
        return {"type": "finite", "elements": [exact_str(e) for e in self.elements]}


@dataclass(frozen=True)
class Progression(SetDescriptor):
    """{start + j + k*step : j in offsets, k >= 0}, the offsets increasing
    from 0 and below step: a periodic set from its first member on."""

    start: int
    step: int
    offsets: tuple[int, ...] = (0,)

    def __post_init__(self):
        object.__setattr__(self, "offsets", offsets := tuple(self.offsets))
        if self.start < 1 or self.step < 1:
            raise ValueError("need start >= 1 and step >= 1")
        if offsets[:1] != (0,) or offsets[-1] >= self.step or any(
                a >= b for a, b in zip(offsets, offsets[1:])):
            raise ValueError("offsets must increase from 0 and stay below step")

    def iter_members(self) -> Iterator[int]:
        return (base + j for base in itertools.count(self.start, self.step)
                for j in self.offsets)

    def count_upto(self, n: int) -> int:
        if n < self.start:
            return 0
        periods, rest = divmod(n - self.start, self.step)
        return periods * len(self.offsets) + bisect.bisect_right(self.offsets, rest)

    def contains(self, n: int) -> bool:
        return self.count_upto(n) > self.count_upto(n - 1)

    def growth(self) -> Growth:
        # sum over start + k*step of n**(-s) dominates a harmonic tail for s <= 1
        return Growth("linear", Fraction(len(self.offsets), self.step),
                      "progression-divergence")

    def to_json(self) -> dict:
        doc = {"type": "progression", "start": exact_str(self.start),
               "step": exact_str(self.step)}
        if len(self.offsets) > 1:
            doc["offsets"] = [exact_str(j) for j in self.offsets]
        return doc


@dataclass(frozen=True)
class Geometric(SetDescriptor):
    """{base**k : k >= 1}."""

    base: int

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be >= 2")

    def iter_members(self) -> Iterator[int]:
        p = self.base
        while True:
            yield p
            p *= self.base

    def count_upto(self, n: int) -> int:
        count, p = 0, self.base
        while p <= n:
            count += 1
            p *= self.base
        return count

    def contains(self, n: int) -> bool:
        if n < self.base:
            return False
        while n % self.base == 0:
            n //= self.base
        return n == 1

    def next_member(self, k: int) -> int:
        if k <= self.base:
            return self.base
        # the float logarithm is off by far less than one, so base**j < k
        # and at most three multiplications remain
        m = self.base ** max(1, int(math.log(k, self.base)) - 1)
        while m < k:
            m *= self.base
        return m

    def growth(self) -> Growth:
        # sum b**(-k*s) is a convergent geometric series
        return Growth("log", Fraction(0), "geometric-series")

    def to_json(self) -> dict:
        return {"type": "geometric", "base": exact_str(self.base)}


@dataclass(frozen=True)
class Shifted(SetDescriptor):
    """{m + offset : m in inner} clipped to the positive naturals."""

    inner: SetDescriptor
    offset: int

    def iter_members(self) -> Iterator[int]:
        return (m + self.offset for m in self.inner.iter_members()
                if m + self.offset >= 1)

    def count_upto(self, n: int) -> int:
        if n < 1:
            return 0
        # members <= n  <=>  inner members in [1-offset, n-offset]
        hi = self.inner.count_upto(n - self.offset)
        lo = self.inner.count_upto(-self.offset)
        return hi - lo

    def contains(self, n: int) -> Optional[bool]:
        if n < 1:
            return False
        m = n - self.offset
        if m < 1:
            return False
        return self.inner.contains(m)

    def growth(self) -> Growth:
        # prefix counts move by at most |offset|, and each term of sum n**(-s)
        # by a bounded factor (comparison test)
        g = self.inner.growth()
        return Growth(g.kind, g.density, f"shift-comparison:{g.proof}")

    def to_json(self) -> dict:
        return {"type": "shifted", "inner": self.inner.to_json(),
                "offset": exact_str(self.offset)}


@dataclass(frozen=True)
class UnionSet(SetDescriptor):
    parts: tuple[SetDescriptor, ...]

    def __init__(self, parts: Sequence[SetDescriptor]):
        object.__setattr__(self, "parts", tuple(parts))
        if not self.parts:
            raise ValueError("union needs at least one part")

    def iter_members(self) -> Iterator[int]:
        merged = heapq.merge(*(p.iter_members() for p in self.parts))
        prev = None
        for m in merged:
            if m != prev:
                yield m
                prev = m

    def count_upto(self, n: int) -> int:
        if self._certified_disjoint():
            return sum(p.count_upto(n) for p in self.parts)
        return super().count_upto(n)

    def contains(self, n: int) -> Optional[bool]:
        results = [p.contains(n) for p in self.parts]
        if any(r is True for r in results):
            return True
        if all(r is False for r in results):
            return False
        return None

    def growth(self) -> Growth:
        parts = [p.growth() for p in self.parts]
        kinds = {g.kind for g in parts}
        if "linear" not in kinds:
            # subadditivity: finitely many null parts stay null, overlap or not
            return Growth("log" if "log" in kinds else "finite", Fraction(0),
                          "finite-union-of-convergent")
        densities = [g.density for g in parts]
        density = (sum(densities, Fraction(0))
                   if None not in densities and self._certified_disjoint() else None)
        return Growth("linear", density, "divergent-part")

    def _certified_disjoint(self) -> bool:
        return all(certified_disjoint(a, b)
                   for a, b in itertools.combinations(self.parts, 2))

    def to_json(self) -> dict:
        return {"type": "union", "parts": [p.to_json() for p in self.parts]}


def _json_list(value, name: str) -> list:
    if not isinstance(value, list):     # a string would be read digit by digit
        raise ValueError(f"{name} must be a list")
    return value


@decoder("set descriptor")
def descriptor_from_json(doc: dict) -> SetDescriptor:
    """Inverse of `to_json`; a malformed document raises ValueError."""
    t = doc["type"]
    if t == "finite":
        return FiniteSet([exact_int(e) for e in _json_list(doc["elements"], "elements")])
    if t == "progression":
        offsets = _json_list(doc.get("offsets", [0]), "offsets")
        return Progression(exact_int(doc["start"]), exact_int(doc["step"]),
                           [exact_int(j) for j in offsets])
    if t == "geometric":
        return Geometric(exact_int(doc["base"]))
    if t == "shifted":
        return Shifted(descriptor_from_json(doc["inner"]), exact_int(doc["offset"]))
    if t == "union":
        return UnionSet([descriptor_from_json(p) for p in doc["parts"]])
    raise ValueError(f"unknown set descriptor type {t!r}")


def certified_disjoint(a: SetDescriptor, b: SetDescriptor) -> bool:
    """Conservative disjointness certificate; False just means 'not certified'."""
    if isinstance(a, FiniteSet):
        return all(b.contains(e) is False for e in a.elements)
    if isinstance(b, FiniteSet):
        return certified_disjoint(b, a)
    if isinstance(a, Progression) and isinstance(b, Progression):
        # a common element solves start_a + j + i*d_a = start_b + j' + i'*d_b,
        # and classes equal mod gcd(d_a, d_b) meet in a progression (CRT)
        g = math.gcd(a.step, b.step)
        return {(a.start + j) % g for j in a.offsets}.isdisjoint(
            (b.start + j) % g for j in b.offsets)
    return False


# ---------------------------------------------------------------------------
# Ideals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdealDescriptor:
    """One of the three decidable ideal families.

    kind "fin":      all finite sets.
    kind "density":  sets of natural density zero.
    kind "summable": sets A with sum_{n in A} 1/n**exponent finite, for a
                     fixed exponent from the certified catalog (0 < s <= 1).
    """

    kind: str
    exponent: Optional[Fraction] = None

    def __post_init__(self):
        if self.kind not in ("fin", "density", "summable"):
            raise ValueError(f"unknown ideal kind {self.kind!r}")
        if self.kind == "summable":
            s = Fraction(self.exponent if self.exponent is not None else 1)
            if not 0 < s <= 1:
                raise ValueError("summable catalog covers exponents in (0, 1]")
            object.__setattr__(self, "exponent", s)
        elif self.exponent is not None:
            raise ValueError("exponent only applies to summable ideals")

    @classmethod
    def fin(cls) -> "IdealDescriptor":
        return cls("fin")

    @classmethod
    def density(cls) -> "IdealDescriptor":
        return cls("density")

    @classmethod
    def summable(cls, exponent: Fraction = Fraction(1)) -> "IdealDescriptor":
        return cls("summable", Fraction(exponent))

    def to_json(self) -> dict:
        doc = {"type": self.kind}
        if self.kind == "summable":
            doc["exponent"] = exact_str(self.exponent)
        return doc

    @classmethod
    @decoder("ideal")
    def from_json(cls, doc: dict) -> "IdealDescriptor":
        if doc["type"] == "summable":
            return cls.summable(exact_fraction(doc.get("exponent", 1)))
        return cls(doc["type"])


def parse_ideal(text: str) -> IdealDescriptor:
    text = text.strip().lower()
    if text == "fin":
        return IdealDescriptor.fin()
    if text == "density":
        return IdealDescriptor.density()
    if text == "summable" or text == "summable:1/n":
        return IdealDescriptor.summable()
    if text.startswith("summable:"):
        return IdealDescriptor.summable(exact_fraction(text.split(":", 1)[1]))
    raise ValueError(f"unrecognized ideal spec {text!r}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def prefix_density(s: SetDescriptor, n: int) -> Fraction:
    """Exact |A [1,n]| / n."""
    if n < 1:
        raise ValueError("cutoff must be >= 1")
    return Fraction(s.count_upto(n), n)


@dataclass(frozen=True)
class DensityEstimate:
    """Running prefix-ratio evidence over a tail window, plus exact value if known."""

    cutoff: int
    lower: Fraction
    upper: Fraction
    exact: Optional[Fraction] = None

    def __post_init__(self):
        if not 0 <= self.lower <= self.upper <= 1:
            raise ValueError("estimate bounds out of order")


def density_estimate(s: SetDescriptor, cutoff: int = DEFAULT_CUTOFF) -> DensityEstimate:
    """Min/max of prefix ratios at cutoff/4, 2*cutoff/4, 3*cutoff/4 and cutoff."""
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    points = sorted({max(1, cutoff * i // 4) for i in range(1, 5)})
    ratios = [prefix_density(s, n) for n in points]
    return DensityEstimate(cutoff, min(ratios), max(ratios), s.growth().density)


def ideal_member(ideal: IdealDescriptor, s: SetDescriptor,
                 cutoff: int = DEFAULT_CUTOFF) -> Verdict:
    """Membership of the described set in the described ideal, read off the
    set's certified counting class, which decides every ideal here.
    `cutoff` is not read; it stays for callers that pass it positionally."""
    g = s.growth()
    if ideal.kind == "fin":
        if g.kind == "finite":
            return Verdict(Outcome.MEMBER, "finite")
        return Verdict(Outcome.NOT_MEMBER, "infinite")
    if ideal.kind == "summable":
        # sum_{n in A} n**(-s), s in (0, 1], diverges exactly on the linear class
        if g.kind == "linear":
            return Verdict(Outcome.NOT_MEMBER, g.proof)
        return Verdict(Outcome.MEMBER, g.proof)
    if g.kind != "linear":      # O(log n) counts have density zero
        return Verdict(Outcome.MEMBER, "density-zero")
    if g.density is not None:
        return Verdict(Outcome.NOT_MEMBER, "positive-density", {"density": g.density})
    return Verdict(Outcome.NOT_MEMBER, "positive-lower-density")  # >= c*n from some n, c > 0


# Why a member's shifts stay members: fin members are finite, prefix counts
# change by at most |t| under a shift, and sum over A+t of n**(-s) is
# term-by-term comparable to the sum over A.
_SHIFT_INVARIANCE = {"fin": "finite-shifts-finite",
                     "density": "density-shift-invariance",
                     "summable": "shift-comparison"}


def translation_invariant_in(ideal: IdealDescriptor, s: SetDescriptor) -> Verdict:
    """Whether every integer shift of the set stays in the ideal."""
    if not ideal_member(ideal, s).is_member:
        raise ValueError("set must be a certified member of the ideal first")
    return Verdict(Outcome.MEMBER, _SHIFT_INVARIANCE[ideal.kind])


def non_snt_witness(ideal: IdealDescriptor) -> Optional[SetDescriptor]:
    """An infinite member of the ideal all of whose shifts stay in it, if any.

    The fin ideal has no infinite member at all, so it yields nothing.  For
    the density and summable ideals the powers of two qualify symbolically.
    """
    if ideal.kind == "fin":
        return None
    witness = Geometric(2)
    assert ideal_member(ideal, witness).is_member
    assert translation_invariant_in(ideal, witness).is_member
    return witness

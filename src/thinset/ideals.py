"""Symbolic subsets of the naturals, densities, and ideal membership verdicts.

Verdicts are three-valued.  Member/NotMember are only ever produced by a
certified symbolic rule or an exact computation; prefix scans alone yield
Inconclusive so that no finite amount of evidence is mistaken for a theorem.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from ._exact_text import exact_str

DEFAULT_CUTOFF = 100_000


class GeneratorExhaustedError(RuntimeError):
    """An enumerated set's generator ran out before the requested cutoff."""

    def __init__(self, message: str, partial_count: int):
        super().__init__(message)
        self.partial_count = partial_count


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
            "diagnostics": {k: exact_str(v) for k, v in self.diagnostics.items()},
        }


# ---------------------------------------------------------------------------
# Set descriptors
# ---------------------------------------------------------------------------

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

    def is_finite(self) -> Optional[bool]:
        return None

    def exact_density(self) -> Optional[Fraction]:
        return None

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

    def is_finite(self) -> bool:
        return True

    def exact_density(self) -> Fraction:
        return Fraction(0)

    def to_json(self) -> dict:
        return {"type": "finite", "elements": [str(e) for e in self.elements]}


@dataclass(frozen=True)
class Progression(SetDescriptor):
    """{start + k*step : k >= 0}."""

    start: int
    step: int

    def __post_init__(self):
        if self.start < 1 or self.step < 1:
            raise ValueError("need start >= 1 and step >= 1")

    def iter_members(self) -> Iterator[int]:
        return itertools.count(self.start, self.step)

    def count_upto(self, n: int) -> int:
        if n < self.start:
            return 0
        return (n - self.start) // self.step + 1

    def contains(self, n: int) -> bool:
        return n >= self.start and (n - self.start) % self.step == 0

    def is_finite(self) -> bool:
        return False

    def exact_density(self) -> Fraction:
        return Fraction(1, self.step)

    def to_json(self) -> dict:
        return {"type": "progression", "start": str(self.start), "step": str(self.step)}


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

    def is_finite(self) -> bool:
        return False

    def exact_density(self) -> Fraction:
        return Fraction(0)

    def to_json(self) -> dict:
        return {"type": "geometric", "base": str(self.base)}


@dataclass(frozen=True)
class Shifted(SetDescriptor):
    """{m + offset : m in inner} clipped to the positive naturals."""

    inner: SetDescriptor
    offset: int

    def iter_members(self) -> Iterator[int]:
        return (m + self.offset for m in self.inner.iter_members()
                if m + self.offset >= 1)

    def count_upto(self, n: int) -> int:
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

    def is_finite(self) -> Optional[bool]:
        return self.inner.is_finite()

    def exact_density(self) -> Optional[Fraction]:
        return self.inner.exact_density()

    def to_json(self) -> dict:
        return {"type": "shifted", "inner": self.inner.to_json(),
                "offset": str(self.offset)}


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
        count = 0
        for m in self.iter_members():
            if m > n:
                break
            count += 1
        return count

    def contains(self, n: int) -> Optional[bool]:
        results = [p.contains(n) for p in self.parts]
        if any(r is True for r in results):
            return True
        if all(r is False for r in results):
            return False
        return None

    def is_finite(self) -> Optional[bool]:
        results = [p.is_finite() for p in self.parts]
        if any(r is False for r in results):
            return False
        if all(r is True for r in results):
            return True
        return None

    def exact_density(self) -> Optional[Fraction]:
        densities = [p.exact_density() for p in self.parts]
        if any(d is None for d in densities):
            return None
        if all(d == 0 for d in densities):
            # subadditivity: finitely many null parts stay null, overlap or not
            return Fraction(0)
        if not self._certified_disjoint():
            return None
        return sum(densities, Fraction(0))

    def _certified_disjoint(self) -> bool:
        """Pairwise `certified_disjoint` over the parts.  Progressions sharing
        one step are disjoint exactly when their starts differ modulo it,
        which a single pass checks."""
        step = getattr(self.parts[0], "step", None)
        if all(isinstance(p, Progression) and p.step == step for p in self.parts):
            return len({p.start % step for p in self.parts}) == len(self.parts)
        return all(certified_disjoint(a, b)
                   for a, b in itertools.combinations(self.parts, 2))

    def to_json(self) -> dict:
        return {"type": "union", "parts": [p.to_json() for p in self.parts]}


GROWTH_CLASSES = ("superlinear", "linear", "unknown")


@dataclass(frozen=True)
class Enumerated(SetDescriptor):
    """Set given only by a cloneable strictly increasing generator.

    The growth certificate is trusted as supplied; "superlinear" means the
    k-th member grows faster than every linear function of k.
    """

    make_iter: Callable[[], Iterator[int]] = field(compare=False)
    growth: str = "unknown"
    name: str = "enumerated"

    def __post_init__(self):
        if self.growth not in GROWTH_CLASSES:
            raise ValueError(f"growth must be one of {GROWTH_CLASSES}")

    def iter_members(self) -> Iterator[int]:
        prev = 0
        for m in self.make_iter():
            if m <= prev:
                raise ValueError(f"{self.name}: enumeration not strictly increasing")
            prev = m
            yield m

    def count_upto(self, n: int) -> int:
        count = 0
        for m in self.iter_members():
            if m > n:
                return count
            count += 1
        raise GeneratorExhaustedError(
            f"{self.name}: generator exhausted before {n}", partial_count=count)

    def is_finite(self) -> Optional[bool]:
        if self.growth in ("superlinear", "linear"):
            return False
        return None

    def exact_density(self) -> Optional[Fraction]:
        if self.growth == "superlinear":
            return Fraction(0)
        return None

    def to_json(self) -> dict:
        raise ValueError("enumerated sets have no portable serialization")


def descriptor_from_json(doc: dict) -> SetDescriptor:
    """Inverse of `to_json`; a malformed document raises ValueError."""
    try:
        t = doc["type"]
        if t == "finite":
            return FiniteSet([int(e) for e in doc["elements"]])
        if t == "progression":
            return Progression(int(doc["start"]), int(doc["step"]))
        if t == "geometric":
            return Geometric(int(doc["base"]))
        if t == "shifted":
            return Shifted(descriptor_from_json(doc["inner"]), int(doc["offset"]))
        if t == "union":
            return UnionSet([descriptor_from_json(p) for p in doc["parts"]])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed set descriptor: "
                         f"{type(exc).__name__} {exc}") from exc
    raise ValueError(f"unknown set descriptor type {t!r}")


def certified_disjoint(a: SetDescriptor, b: SetDescriptor) -> bool:
    """Conservative disjointness certificate; False just means 'not certified'."""
    if isinstance(a, FiniteSet):
        return all(b.contains(e) is False for e in a.elements)
    if isinstance(b, FiniteSet):
        return certified_disjoint(b, a)
    if isinstance(a, Progression) and isinstance(b, Progression):
        # a common element solves start_a + i*d_a = start_b + j*d_b
        import math
        g = math.gcd(a.step, b.step)
        if (a.start - b.start) % g != 0:
            return True
        # compatible congruences intersect in a progression beyond both starts
        return False
    return False


def shift_set(s: SetDescriptor, t: int) -> SetDescriptor:
    """{m + t : m in s}, clipped to the naturals."""
    if t == 0:
        return s
    if isinstance(s, FiniteSet):
        return FiniteSet([e + t for e in s.elements if e + t >= 1])
    return Shifted(s, t)


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
            doc["exponent"] = str(self.exponent)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "IdealDescriptor":
        if doc["type"] == "summable":
            return cls.summable(Fraction(doc.get("exponent", 1)))
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
        return IdealDescriptor.summable(Fraction(text.split(":", 1)[1]))
    raise ValueError(f"unrecognized ideal spec {text!r}")


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

def prefix_density(s: SetDescriptor, n: int) -> Fraction:
    """Exact |A [1,n]| / n."""
    if n < 1:
        raise ValueError("cutoff must be >= 1")
    return Fraction(s.count_upto(n), n)


def exact_density(s: SetDescriptor) -> Optional[Fraction]:
    return s.exact_density()


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


def density_estimate(s: SetDescriptor, cutoff: int = DEFAULT_CUTOFF,
                     window: int = 4) -> DensityEstimate:
    """Min/max of prefix ratios at cutoff/window ... cutoff."""
    points = sorted({max(1, cutoff * i // window) for i in range(1, window + 1)})
    ratios = [prefix_density(s, n) for n in points]
    return DensityEstimate(cutoff, min(ratios), max(ratios), s.exact_density())


def _summable_verdict(s: SetDescriptor, exponent: Fraction,
                      cutoff: int) -> Verdict:
    """Certified convergence/divergence of sum_{n in A} n**(-s), s in (0,1]."""
    if isinstance(s, FiniteSet):
        return Verdict(Outcome.MEMBER, "finite-sum")
    if isinstance(s, Geometric):
        # sum b**(-k*s) is a convergent geometric series
        return Verdict(Outcome.MEMBER, "geometric-series")
    if isinstance(s, Progression):
        # sum over start + k*step of n**(-s) dominates a harmonic tail for s <= 1
        return Verdict(Outcome.NOT_MEMBER, "progression-divergence")
    if isinstance(s, Shifted):
        inner = _summable_verdict(s.inner, exponent, cutoff)
        if inner.outcome is not Outcome.INCONCLUSIVE:
            # shifting changes each term by a bounded factor (comparison test)
            return Verdict(inner.outcome, f"shift-comparison:{inner.certificate}")
    if isinstance(s, UnionSet):
        parts = [_summable_verdict(p, exponent, cutoff) for p in s.parts]
        if any(p.outcome is Outcome.NOT_MEMBER for p in parts):
            return Verdict(Outcome.NOT_MEMBER, "divergent-part")
        if all(p.outcome is Outcome.MEMBER for p in parts):
            return Verdict(Outcome.MEMBER, "finite-union-of-convergent")
    # evidence only: partial sum at the cutoff (exact only for integer exponents)
    diagnostics: dict = {"cutoff": cutoff}
    if exponent.denominator == 1:
        partial = Fraction(0)
        for m in s.iter_members():
            if m > cutoff:
                break
            partial += Fraction(1, m ** exponent.numerator)
        diagnostics["partial_sum"] = partial
    return Verdict(Outcome.INCONCLUSIVE, None, diagnostics)


def ideal_member(ideal: IdealDescriptor, s: SetDescriptor,
                 cutoff: int = DEFAULT_CUTOFF) -> Verdict:
    """Three-valued membership of the described set in the described ideal."""
    if ideal.kind == "fin":
        fin = s.is_finite()
        if fin is True:
            return Verdict(Outcome.MEMBER, "finite")
        if fin is False:
            return Verdict(Outcome.NOT_MEMBER, "infinite")
        try:
            count = s.count_upto(cutoff)
        except GeneratorExhaustedError as exc:
            count = exc.partial_count
        return Verdict(Outcome.INCONCLUSIVE, None,
                       {"count_at_cutoff": count, "cutoff": cutoff})
    if ideal.kind == "density":
        d = s.exact_density()
        if d == 0:
            return Verdict(Outcome.MEMBER, "density-zero")
        if d is not None and d > 0:
            return Verdict(Outcome.NOT_MEMBER, "positive-density",
                           {"density": d})
        est = density_estimate(s, cutoff)
        return Verdict(Outcome.INCONCLUSIVE, None,
                       {"prefix_lower": est.lower, "prefix_upper": est.upper,
                        "cutoff": cutoff})
    return _summable_verdict(s, ideal.exponent, cutoff)


def translation_invariant_in(ideal: IdealDescriptor, s: SetDescriptor,
                             shift_range: int = 10,
                             cutoff: int = DEFAULT_CUTOFF) -> Verdict:
    """Whether every integer shift of the set stays in the ideal."""
    base = ideal_member(ideal, s, cutoff)
    if base.outcome is not Outcome.MEMBER:
        raise ValueError("set must be a certified member of the ideal first")
    if ideal.kind == "density":
        # prefix counts change by at most |t| under a shift, so density survives
        return Verdict(Outcome.MEMBER, "density-shift-invariance")
    if ideal.kind == "fin":
        if s.is_finite() is True:
            return Verdict(Outcome.MEMBER, "finite-shifts-finite")
    if ideal.kind == "summable":
        # sum over A+t of n**(-s) is term-by-term comparable to the sum over A
        return Verdict(Outcome.MEMBER, "shift-comparison")
    evidence = {}
    for t in range(-shift_range, shift_range + 1):
        v = ideal_member(ideal, shift_set(s, t), cutoff)
        evidence[t] = v.outcome.value
        if v.outcome is Outcome.NOT_MEMBER:
            return Verdict(Outcome.NOT_MEMBER, "shift-counterexample",
                           {"shift": t})
    return Verdict(Outcome.INCONCLUSIVE, None,
                   {"checked_shifts": shift_range, "evidence": evidence})


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

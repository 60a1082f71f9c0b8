"""Divisibility-chain sequences u_0=1, u_n = q_1*...*q_n and term generators a_n.

Ratios must satisfy q_1 >= 1 and q_n >= 2 for n >= 2, so the u_n form a
strictly increasing chain from n >= 2 (from n >= 1 when q_1 >= 2) in which
each value divides the next.  All values are arbitrary-precision integers.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import re
from typing import Iterator, Optional, Sequence

from ._exact_text import decoder, exact_int, exact_str


class ArithmeticSequence:
    """u_n chain read off its `spec`: `ratios` is one period of ratios (the
    whole list when `finite`), or None on the factorial chain (q_n = n).
    Every u_n and every ratio product comes from a closed form, and nothing
    is cached."""

    def __init__(self, spec: tuple):
        self.spec = spec
        kind = spec[0]
        self.finite = kind == "ratios-finite"
        self.ratios: Optional[tuple[int, ...]] = (
            None if kind == "factorial" else (2,) if kind == "dyadic"
            else (spec[1],) if kind == "geometric" else spec[1])

    def __repr__(self) -> str:
        return f"ArithmeticSequence({self.spec!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, ArithmeticSequence) and self.spec == other.spec

    def __hash__(self) -> int:
        return hash(self.spec)

    def q(self, n: int) -> int:
        """Ratio q_n for n >= 1, from the closed form, so any index is cheap."""
        if n < 1:
            raise ValueError("ratio index must be >= 1")
        ratios = self.ratios
        if ratios is None:
            return n
        if self.finite and n > len(ratios):
            raise ValueError(f"only {len(ratios)} ratios available, wanted q_{n}")
        qn = ratios[(n - 1) % len(ratios)]
        if n == 1 and qn < 1:
            raise ValueError(f"q_1 must be >= 1, got {qn}")
        if n >= 2 and qn < 2:
            raise ValueError(f"q_{n} must be >= 2, got {qn}")
        return qn

    def u(self, n: int) -> int:
        """Partial product u_n = q_1***q_n, with u_0 = 1."""
        if n < 0:
            raise ValueError("index must be >= 0")
        return self.ratio_product(0, n)

    def ratio_product(self, a: int, b: int) -> int:
        """q_{a+1}***q_b = u_b/u_a for 0 <= a <= b in closed form: b!/a! on the
        factorial chain, else (q_1***q_L)^floor((b-a)/L) times the (b-a) mod L
        ratios from q_{a+1} on, over a list of L ratios (1 for a constant
        ratio).  It raises the first error of the walk q(a+1), ..., q(b), found
        among its first L ratios (L+1 from q_1: q_{L+1} is q_1 or past a list)."""
        if not 0 <= a <= b:
            raise ValueError(f"need 0 <= a <= b, got a={a}, b={b}")
        ratios = self.ratios
        if ratios is None:
            return math.factorial(b) if a == 0 else math.perm(b, b - a)
        L, s = len(ratios), a % len(ratios)
        for n in range(a + 1, min(b, max(a, 1) + L) + 1):
            self.q(n)
        reps, rest = divmod(b - a, L)
        head = math.prod(ratios[s:s + rest] + ratios[:max(0, s + rest - L)])
        P = math.prod(ratios) if reps else 1     # a power of two is shifted, not raised
        return head << (P.bit_length() - 1) * reps if P & (P - 1) == 0 else P ** reps * head

    # -- constructors -------------------------------------------------

    @classmethod
    def dyadic(cls) -> "ArithmeticSequence":
        return cls(("dyadic",))

    @classmethod
    def factorial(cls) -> "ArithmeticSequence":
        return cls(("factorial",))

    @classmethod
    def geometric(cls, base: int) -> "ArithmeticSequence":
        if base < 2:
            raise ValueError("geometric base must be >= 2")
        return cls(("geometric", base))

    @classmethod
    def from_ratios(cls, ratios: Sequence[int], cycle: bool = True) -> "ArithmeticSequence":
        ratios = tuple(ratios)
        if not ratios:
            raise ValueError("ratio list must be nonempty")
        return cls(("ratios" if cycle else "ratios-finite", ratios))

    @property
    def geometric_base(self) -> Optional[int]:
        """Base b when u_n = b^n, else None."""
        ratios = self.ratios
        if ratios and not self.finite and len(set(ratios)) == 1 and ratios[0] >= 2:
            return ratios[0]
        return None

    def to_json(self) -> dict:
        kind = self.spec[0]
        if kind in ("ratios", "ratios-finite"):
            return {"kind": kind, "ratios": [exact_str(r) for r in self.spec[1]]}
        if kind == "geometric":
            return {"kind": "geometric", "base": exact_str(self.spec[1])}
        return {"kind": kind}

    @classmethod
    @decoder("sequence")
    def from_json(cls, doc: dict) -> "ArithmeticSequence":
        kind = doc["kind"]
        if kind == "dyadic":
            return cls.dyadic()
        if kind == "factorial":
            return cls.factorial()
        if kind == "geometric":
            return cls.geometric(exact_int(doc["base"]))
        if kind == "ratios":
            return cls.from_ratios([exact_int(r) for r in doc["ratios"]], cycle=True)
        if kind == "ratios-finite":
            return cls.from_ratios([exact_int(r) for r in doc["ratios"]], cycle=False)
        raise ValueError(f"unknown sequence kind {kind!r}")


def parse_sequence(text: str) -> ArithmeticSequence:
    """Parse a sequence spec: 'dyadic', 'factorial', 'geometric:b' or '[q1,q2,...]'."""
    text = text.strip()
    if text == "dyadic":
        return ArithmeticSequence.dyadic()
    if text == "factorial":
        return ArithmeticSequence.factorial()
    if text.startswith("geometric:"):
        return ArithmeticSequence.geometric(exact_int(text.split(":", 1)[1]))
    if text.startswith("[") and text.endswith("]"):
        ratios = [exact_int(t) for t in text[1:-1].split(",") if t.strip()]
        return ArithmeticSequence.from_ratios(ratios, cycle=True)
    raise ValueError(f"unrecognized sequence spec {text!r}")


class TermSequence:
    """Generator of the multiplier terms a_1 < a_2 < ... (naturals)."""

    def term(self, n: int) -> int:
        raise NotImplementedError

    def terms_upto(self, depth: int) -> Iterator[int]:
        """a_1, ..., a_depth; a multiplicative chain is multiplied up term by
        term, asking for no multiplier past a_depth."""
        chain = multiplier_chain(self)
        if chain is None:
            return (self.term(n) for n in range(1, depth + 1))
        first, mult = chain
        return itertools.islice(itertools.accumulate(
            map(mult, itertools.count(1)), operator.mul, initial=first), depth)

    def to_json(self) -> dict:
        raise NotImplementedError


class ScaledGeometric(TermSequence):
    """a_n = scale * base**n."""

    def __init__(self, scale: int, base: int):
        if scale < 1 or base < 2:
            raise ValueError("need scale >= 1 and base >= 2")
        self.scale = scale
        self.base = base

    def __repr__(self) -> str:
        return f"ScaledGeometric({self.scale}, {self.base})"

    def __eq__(self, other) -> bool:
        return (isinstance(other, ScaledGeometric)
                and (self.scale, self.base) == (other.scale, other.base))

    def term(self, n: int) -> int:
        return self.scale * self.base ** n

    def to_json(self) -> dict:
        return {"kind": "scaled-geometric", "scale": exact_str(self.scale),
                "base": exact_str(self.base)}


class ArithmeticTerms(TermSequence):
    """a_n = u_n of an underlying divisibility chain."""

    def __init__(self, seq: ArithmeticSequence):
        self.seq = seq

    def __repr__(self) -> str:
        return f"ArithmeticTerms({self.seq!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, ArithmeticTerms) and self.seq == other.seq

    def term(self, n: int) -> int:
        return self.seq.u(n)

    def to_json(self) -> dict:
        return {"kind": "arithmetic", "sequence": self.seq.to_json()}


class ExplicitTerms(TermSequence):
    """a_n from a finite explicit list (1-indexed)."""

    def __init__(self, values: Sequence[int]):
        values = [int(v) for v in values]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValueError("terms must be strictly increasing")
        self.values = values

    def term(self, n: int) -> int:
        if not 1 <= n <= len(self.values):
            raise ValueError(f"term index {n} outside explicit list of {len(self.values)}")
        return self.values[n - 1]

    def to_json(self) -> dict:
        return {"kind": "explicit", "values": [exact_str(v) for v in self.values]}


def multiplier_chain(terms: TermSequence):
    """(a_1, mult) with a_{n+1} = a_n * mult(n) when the terms form a
    multiplicative chain, else None."""
    if isinstance(terms, ScaledGeometric):
        return terms.scale * terms.base, lambda n: terms.base
    if isinstance(terms, ArithmeticTerms):
        seq = terms.seq
        return seq.u(1), lambda n: seq.q(n + 1)
    return None


def multipliers(terms: TermSequence, n: int, k: int) -> Sequence[int]:
    """mult(n), ..., mult(n+k-1) of the chain above: the period rotated to n
    and cycled, a range for n!, a slice of a finite list.  It raises the
    first error of mult(n), ..., mult(n+k-1), found within one period."""
    if isinstance(terms, ScaledGeometric):
        return [terms.base] * k
    seq = terms.seq
    if seq.ratios is None:
        return range(n + 1, n + k + 1)
    head = [seq.q(j) for j in range(n + 1, n + 1 + min(k, len(seq.ratios)))]
    return list(itertools.islice(itertools.cycle(head), k))


def phase_period(terms: TermSequence) -> Optional[int]:
    """Period of the multiplier function above, when finite."""
    if isinstance(terms, ScaledGeometric):
        return 1
    if isinstance(terms, ArithmeticTerms):
        seq = terms.seq
        return None if seq.finite or seq.ratios is None else len(seq.ratios)
    return None


# ---------------------------------------------------------------------------
# Divisibility of the terms: from which n on does D divide a_n?
# ---------------------------------------------------------------------------
# On a multiplicative chain a_{n+1} = a_n*m(n), D | a_n from some n on or
# never; valuations of D over a coprime basis of a_1 and the multipliers
# (Bernstein, J. Algorithms 54, 2005) say which.  Only n! needs D's primes.

def _strip(n: int, p: int) -> tuple[int, int]:
    """(v, n / p**v) with p**v the largest power of p >= 2, prime or not,
    dividing n > 0.  Divides by p**(2**i) from the top down, so a huge power
    costs O(log v) divisions."""
    if p == 2:
        v = (n & -n).bit_length() - 1
        return v, n >> v
    if n % p:
        return 0, n
    powers = [p]
    while n % (square := powers[-1] * powers[-1]) == 0:
        powers.append(square)
    v = 0
    for i in range(len(powers) - 1, -1, -1):
        q, rem = divmod(n, powers[i])
        if rem == 0:
            n = q
            v += 1 << i
    return v, n


def _trial_factor(n: int, bound: int) -> tuple[dict[int, int], int]:
    """Prime powers of n > 0 found by trial division with p <= bound, and
    the cofactor left.  Division stops early once p*p exceeds the cofactor,
    which is then 1 or prime and goes into the factors; a cofactor above 1
    is returned only when the bound stopped the search."""
    factors: dict[int, int] = {}
    p = 2
    while p <= bound and p * p <= n:
        v, n = _strip(n, p)
        if v:
            factors[p] = v
        p += 1 if p == 2 else 2
    if n > 1 and p * p > n:
        factors[n] = factors.get(n, 0) + 1
        n = 1
    return factors, n


def _coprime_basis(nums) -> list[int]:
    """Pairwise coprime integers > 1 over which each of nums factors, found by
    splitting any two that share a factor into their gcd and the quotients;
    no number is factored into primes."""
    basis: list[int] = []
    todo = [n for n in nums if n > 1]
    while todo:
        a = todo.pop()
        for i, b in enumerate(basis):
            g = math.gcd(a, b)
            if g > 1:
                del basis[i]
                # the whole power of g leaves each, so a prime power splits in one pass
                todo += [c for c in (g, _strip(a, g)[1], _strip(b, g)[1]) if c > 1]
                break
        else:
            basis.append(a)
    return basis


def _legendre(n: int, p: int) -> int:
    """v_p(n!) = sum_i floor(n/p**i) for a prime p (Legendre's formula)."""
    total = 0
    while n:
        n //= p
        total += n
    return total


def _legendre_least(p: int, e: int) -> int:
    """Least n with p**e | n!, by bisection on Legendre's formula."""
    lo, hi = 1, e                   # the answer is k*p for some 1 <= k <= e
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _legendre(mid * p, p) >= e else (mid + 1, hi)
    return lo * p


class _Divisibility(dict):
    """v_b(a_n), and the least n with b**e | a_n, for a_1 = first and the
    multipliers m(1), m(2), ...: one period `mults` when `cyclic`, else a
    finite list (the terms end at a_{len(mults)+1}), or a_n = n! with b a
    prime when mults is None.  As a mapping, b -> (v_b(a_1),
    [v_b(m(1)***m(i)) for i = 0 .. len(mults)]), filled on use."""

    def __init__(self, first: int, mults: Optional[Sequence[int]], cyclic: bool = True):
        super().__init__()
        self.first, self.mults = first, mults
        self.period = len(mults) if cyclic and mults is not None else None

    def basis(self, nums: Sequence[int]) -> list[int]:
        """A coprime basis of a_1, the multipliers and nums (n!: nums' primes)."""
        if self.mults is None:
            return list(set().union(*(_trial_factor(r, r)[0] for r in nums)))
        return _coprime_basis({self.first, *self.mults, *nums})

    def __missing__(self, b: int):
        table = self[b] = (_strip(self.first, b)[0], list(itertools.accumulate(
            (_strip(m, b)[0] for m in self.mults), initial=0)))
        return table

    def vals(self, n: int, bs) -> list[int]:
        """[v_b(a_n) for b in bs]."""
        if self.mults is None:
            return [_legendre(n, p) for p in bs]
        f, r = divmod(n - 1, self.period) if self.period else (0, n - 1)
        return [a + f * pre[-1] + pre[r] for a, pre in map(self.__getitem__, bs)]

    def least(self, needs) -> Optional[int]:
        """Least n with b**e | a_n for every (b, e) of needs; None proves there
        is none (a period adds nothing to b beyond a_1, or a finite list ends)."""
        if self.mults is None:
            return max([_legendre_least(p, e) for p, e in needs if e > 0], default=1)
        steps, period = 0, self.period
        for b, e in needs:
            a, pre = self[b]
            if e > a:
                full, left = divmod(e - a - 1, pre[-1]) if period and pre[-1] else (0, e - a - 1)
                i = bisect.bisect_left(pre, left + 1)
                if i == len(pre):
                    return None
                steps = max(steps, full * (period or 0) + i)
        return steps + 1

    def zero_from(self, d: int, bound: int) -> tuple[Optional[int], int]:
        """(n, rest): rest is the part of d > 0 that no term supplies, and n
        the least index with d/rest | a_n (None past a finite list), so d |
        a_n from n on if rest = 1, else never.  d is stripped over a basis of
        its gcds with a_1 and the multipliers, refined by gcd(rest, b).  For
        n!, rest is the cofactor trial division up to bound leaves unproven."""
        if self.mults is None:
            factors, rest = _trial_factor(d, bound)
            return self.least(factors.items()), rest
        basis = _coprime_basis({math.gcd(d, t) for t in (self.first, *self.mults)})
        while True:
            need, rest = [], d
            for b in basis:
                e, rest = _strip(rest, b)
                need.append((b, e))
            shared = [g for b in basis if (g := math.gcd(rest, b)) > 1]
            if not shared:
                break
            basis = _coprime_basis(basis + shared)
        rest *= math.prod(b ** (e - self[b][0]) for b, e in need
                          if not self[b][1][-1] and e > self[b][0])
        return self.least([(b, e) for b, e in need if self[b][1][-1]]), rest


def _divisibility_of(terms: TermSequence) -> Optional[_Divisibility]:
    """The kernel above for the terms, or None off a multiplier chain."""
    if (chain := multiplier_chain(terms)) is None:
        return None
    first, mult = chain
    if period := phase_period(terms):
        return _Divisibility(first, [mult(n) for n in range(1, period + 1)])
    if terms.seq.finite:
        return _Divisibility(first, terms.seq.ratios[1:], False)
    return _Divisibility(first, None)


_SCALED_RE = re.compile(r"^(?:(\d+)\s*\*\s*)?(\d+)\^n$")


def parse_terms(text: str, seq: Optional[ArithmeticSequence] = None) -> TermSequence:
    """Parse a term spec: 'c*b^n', 'b^n', 'n!', 'u_n' (needs seq) or '[a1,a2,...]'."""
    text = text.strip()
    m = _SCALED_RE.match(text)
    if m:
        scale = exact_int(m.group(1)) if m.group(1) else 1
        return ScaledGeometric(scale, exact_int(m.group(2)))
    if text == "n!":
        return ArithmeticTerms(ArithmeticSequence.factorial())
    if text in ("u_n", "seq"):
        if seq is None:
            raise ValueError("'u_n' terms need an explicit sequence")
        return ArithmeticTerms(seq)
    if text.startswith("[") and text.endswith("]"):
        return ExplicitTerms([exact_int(t) for t in text[1:-1].split(",") if t.strip()])
    raise ValueError(f"unrecognized term spec {text!r}")


@decoder("term sequence")
def terms_from_json(doc: dict) -> TermSequence:
    kind = doc["kind"]
    if kind == "scaled-geometric":
        return ScaledGeometric(exact_int(doc["scale"]), exact_int(doc["base"]))
    if kind == "arithmetic":
        return ArithmeticTerms(ArithmeticSequence.from_json(doc["sequence"]))
    if kind == "explicit":
        return ExplicitTerms([exact_int(v) for v in doc["values"]])
    raise ValueError(f"unknown term kind {kind!r}")

"""Independent answers for the benchmark's output checks.

Nothing here imports thinset.  Every expected value is derived by a route
other than the library's: p-adic valuations and Legendre's formula instead
of residue walks, multiplicative orders instead of a cycle-state map, sums
over a common denominator instead of running Fraction additions.  The
functions run outside the timed region.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

# ---------------------------------------------------------------------------
# Integers
# ---------------------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (n up to ~1e12)."""
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def valuation(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def mult_order(m: int, r: int) -> int:
    """Order of m in the unit group mod the prime r (r must not divide m)."""
    order = r - 1
    for p in factorize(r - 1):
        while order % p == 0 and pow(m, order // p, r) == 1:
            order //= p
    return order


def legendre(n: int, p: int) -> int:
    """v_p(n!) by Legendre's formula."""
    v, q = 0, p
    while q <= n:
        v += n // q
        q *= p
    return v


def digits_exceed(n: int, limit: int) -> bool:
    """Whether str(n) has more than `limit` decimal digits (limit 0 = none)."""
    return limit > 0 and abs(n).bit_length() > 3 * limit and abs(n) >= 10 ** limit


# ---------------------------------------------------------------------------
# Term families: a_n = scale*base**n, n!, or u_n over cycled ratios
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Family:
    kind: str                    # "pow", "fact" or "chain"
    scale: int = 1
    base: int = 0
    ratios: tuple[int, ...] = ()

    def term(self, n: int) -> int:
        if self.kind == "pow":
            return self.scale * self.base ** n
        if self.kind == "fact":
            return math.factorial(n)
        q, r = divmod(n, len(self.ratios))
        return math.prod(self.ratios) ** q * math.prod(self.ratios[:r])

    def ratio(self, n: int) -> int:
        """q_n of the chain whose u_n are these terms (chain families only)."""
        if self.kind == "fact":
            return n
        if self.kind == "chain":
            return self.ratios[(n - 1) % len(self.ratios)]
        return self.base

    def residues(self, num: int, den: int, depth: int) -> list[int]:
        """a_n*num mod den for n = 1..depth (index 0 unused)."""
        out = [0] * (depth + 1)
        if self.kind == "pow":
            step = self.base % den
            t = self.scale * step * num % den
            for n in range(1, depth + 1):
                out[n] = t
                t = t * step % den
            return out
        u = 1
        for n in range(1, depth + 1):
            u = u * self.ratio(n) % den
            out[n] = u * num % den
        return out

    def first_divisible(self, den: int) -> Optional[int]:
        """Least n >= 1 with den | a_n, from valuations; None when no n works."""
        need = factorize(den // math.gcd(den, self.scale))
        if self.kind == "pow":
            n = 1
            for p, e in need.items():
                vb = valuation(self.base, p)
                if vb == 0:
                    return None
                n = max(n, -(-e // vb))
            return n
        if self.kind == "fact":
            n = 1
            for p, e in need.items():
                m = p
                while legendre(m, p) < e:
                    m += p
                n = max(n, m)
            return n
        per_cycle = {p: sum(valuation(q, p) for q in self.ratios) for p in need}
        if any(v == 0 for v in per_cycle.values()):
            return None
        have = dict.fromkeys(need, 0)
        n = 0
        while any(have[p] < e for p, e in need.items()):
            n += 1
            for p in need:
                have[p] += valuation(self.ratio(n), p)
        return max(n, 1)


# ---------------------------------------------------------------------------
# Rational points: verdicts and residue cycles
# ---------------------------------------------------------------------------

def norm(t: int, den: int) -> Fraction:
    return Fraction(min(t, den - t), den)


@dataclass(frozen=True)
class CycleFacts:
    period: int
    peak: Fraction          # largest ||a_n x|| on the cycle


def residue_cycle(family: Family, num: int, den: int, foreign: int) -> CycleFacts:
    """Eventual cycle of ||a_n x||, x = num/den, den = s*foreign with foreign
    a prime dividing no term.  Its period comes from a multiplicative order;
    it starts where s | a_n, which the valuation rule above locates."""
    if family.kind == "pow":
        period = mult_order(family.base % foreign, foreign)
    else:
        cycle_product = math.prod(family.ratios)
        period = len(family.ratios) * mult_order(cycle_product % foreign, foreign)
    start = family.first_divisible(den // foreign)
    res = family.residues(num, den, start + period - 1)
    return CycleFacts(period, max(norm(res[n], den) for n in range(start, start + period)))


# ---------------------------------------------------------------------------
# Weighted sums of ||a_n x||
# ---------------------------------------------------------------------------

def lcm_upto(n: int) -> int:
    sieve = bytearray([1]) * (n + 1)
    out = 1
    for p in range(2, n + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n + 1, p)))
            q = p
            while q * p <= n:
                q *= p
            out *= q
    return out


def weighted_norm_sums(family: Family, num: int, den: int, exponent: int,
                       marks: list[int]) -> dict[int, Fraction]:
    """sum_{n<=m} ||a_n x|| / n**exponent for each mark m, evaluated over the
    common denominator den * lcm(1..N)**exponent."""
    depth = max(marks)
    res = family.residues(num, den, depth)
    common = lcm_upto(depth) ** exponent
    total = 0
    out = {}
    wanted = set(marks)
    for n in range(1, depth + 1):
        total += min(res[n], den - res[n]) * (common // n ** exponent)
        if n in wanted:
            out[n] = Fraction(total, den * common)
    return out


def nset_marks(depth: int) -> list[int]:
    """Checkpoint indices of a summability report of this depth."""
    return sorted({10 ** k for k in range(1, 20) if 10 ** k < depth} | {depth})


def nset_report_overflows(sums: dict[int, Fraction], depth: int,
                          limit: int) -> bool:
    """Whether serializing the report turns some integer longer than the
    process-wide digit limit into a string."""
    total = sums[depth]
    values = [total, 2 * total, Fraction(22, 7) * total, *sums.values()]
    return any(digits_exceed(v.numerator, limit)
               or digits_exceed(v.denominator, limit) for v in values)


def parse_fraction(text: str) -> Fraction:
    """Fraction from 'p' or 'p/q' of any length, read in chunks of decimal
    digits short enough that the process-wide digit limit never applies."""
    num, _, den = text.partition("/")
    return Fraction(_parse_int(num), _parse_int(den or "1"))


def _parse_int(text: str, chunk: int = 1000) -> int:
    sign = -1 if text.startswith("-") else 1
    digits = text.lstrip("+-")
    if not digits.isdigit():
        raise ValueError(f"not an integer: {text[:40]!r}")
    value = 0
    for i in range(0, len(digits), chunk):
        part = digits[i:i + chunk]
        value = value * 10 ** len(part) + int(part)
    return sign * value


def int_digit_limit() -> int:
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


# ---------------------------------------------------------------------------
# Canonical digest
# ---------------------------------------------------------------------------

def feed(h, obj) -> None:
    """Hash obj canonically; integers go through to_bytes, never str."""
    if obj is None or isinstance(obj, bool):
        h.update(b"b" + repr(obj).encode())
    elif isinstance(obj, int):
        size = (obj.bit_length() + 8) // 8
        h.update(b"i" + size.to_bytes(8, "big") + obj.to_bytes(size, "big", signed=True))
    elif isinstance(obj, Fraction):
        h.update(b"q")
        feed(h, obj.numerator)
        feed(h, obj.denominator)
    elif isinstance(obj, str):
        data = obj.encode()
        h.update(b"s" + len(data).to_bytes(8, "big") + data)
    elif isinstance(obj, bytes):
        h.update(b"y" + len(obj).to_bytes(8, "big") + obj)
    elif isinstance(obj, Enum):
        feed(h, obj.value)
    elif isinstance(obj, dict):
        h.update(b"d" + len(obj).to_bytes(8, "big"))
        for key in sorted(obj, key=str):
            feed(h, str(key))
            feed(h, obj[key])
    elif isinstance(obj, (list, tuple)):
        h.update(b"l" + len(obj).to_bytes(8, "big"))
        for item in obj:
            feed(h, item)
    else:
        raise TypeError(f"no canonical form for {type(obj).__name__}")


def digest(obj) -> str:
    h = hashlib.sha256()
    feed(h, obj)
    return h.hexdigest()

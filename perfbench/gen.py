"""Seeded operation lists for the three workloads.

Each workload is a fixed table of slots.  A slot fixes what drives an
operation's cost (job, term family, count, depth band, period band), so
every seed yields the same mix; the seed picks the concrete inputs inside
each slot (numerators, denominators, primes, scales, depths within a band,
ideals).  The same seed always yields the same list.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from oracle import Family, factorize, is_prime, mult_order

DEPTH = 10_000                 # verdicts and th6-point depth
IDEALS = ("fin", "density", "summable")


@dataclass(frozen=True)
class Op:
    index: int
    job: str
    params: dict = field(hash=False)
    via_cli: bool = False


# term spec -> (sequence spec or None, oracle family)
VERDICT_TERMS = {
    "2^n": (None, Family("pow", 1, 2)),
    "3*2^n": (None, Family("pow", 3, 2)),
    "10^n": (None, Family("pow", 1, 10)),
    "n!": (None, Family("fact")),
    "u_n": ("[2,3,5]", Family("chain", ratios=(2, 3, 5))),
}
PERIODIC_TERMS = ("2^n", "3*2^n", "10^n", "u_n")
PERIOD_BANDS = {"periodic-small": (1, 30), "periodic-large": (300, 360)}
BEYOND_CAP = (1_000_003, 1_200_000)    # prime denominators past the 400 000-state cap
FOREIGN_LIMIT = 26_000         # keeps den * phase period under the same cap

CHAINS = {
    "dyadic": Family("pow", 1, 2),
    "factorial": Family("fact"),
    "[2,3,5,7]": Family("chain", ratios=(2, 3, 5, 7)),
}


def chain_family(spec: str) -> Family:
    if spec in CHAINS:
        return CHAINS[spec]
    if spec.startswith("geometric:"):
        return Family("pow", 1, int(spec.split(":")[1]))
    return Family("chain", ratios=tuple(int(t) for t in spec[1:-1].split(",")))


def term_family(spec: str, seq: str | None) -> Family:
    """Oracle family of a term spec: 'c*b^n', 'b^n', 'n!' or 'u_n'."""
    if spec == "n!":
        return Family("fact")
    if spec == "u_n":
        return chain_family(seq)
    scale, _, power = spec.rpartition("*")
    return Family("pow", int(scale or 1), int(power.split("^")[0]))


def _coprime_numerator(rng: random.Random, den: int) -> int:
    while True:
        p = rng.randrange(1, den)
        if math.gcd(p, den) == 1:
            return p


def _smooth(rng: random.Random, primes: tuple[int, ...], top: int) -> int:
    return math.prod(p ** rng.randint(0, top) for p in primes)


def _primes_below(n: int) -> list[int]:
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return [p for p in range(n) if sieve[p]]


class _ForeignPrimes:
    """Primes below FOREIGN_LIMIT with the period of their residue cycle,
    per term spec, so a period band can be drawn from directly."""

    def __init__(self):
        self._cache: dict = {}

    def band(self, spec: str, lo: int, hi: int) -> list[tuple[int, int]]:
        if spec not in self._cache:
            family = VERDICT_TERMS[spec][1]
            bad = set(factorize(math.prod(family.ratios) if family.ratios
                                else family.base * family.scale))
            rows = []
            for r in _primes_below(FOREIGN_LIMIT):
                if r in bad:
                    continue
                if family.kind == "pow":
                    period = mult_order(family.base % r, r)
                else:
                    period = len(family.ratios) * mult_order(
                        math.prod(family.ratios) % r, r)
                rows.append((r, period))
            self._cache[spec] = rows
        return [row for row in self._cache[spec] if lo <= row[1] <= hi]


def _verdict_point(rng: random.Random, group: str, spec: str,
                   foreign: _ForeignPrimes) -> tuple[int, int, int | None]:
    """(numerator, denominator, foreign prime or None) for one slot."""
    if group == "beyond-cap":
        while True:
            r = rng.randrange(*BEYOND_CAP)
            if is_prime(r):
                return _coprime_numerator(rng, r), r, r
    if group == "member":
        if spec == "n!":
            den = rng.randint(2, 3000)
        elif spec == "u_n":
            den = 1
            while den == 1:
                den = _smooth(rng, (2, 3, 5), 12)
        elif spec == "10^n":
            den = 1
            while den == 1:
                den = _smooth(rng, (2, 5), 30)
        else:
            den = 2 ** rng.randint(1, 48) * (3 ** rng.randint(0, 1) if spec == "3*2^n" else 1)
        return _coprime_numerator(rng, den), den, None
    r, _ = rng.choice(foreign.band(spec, *PERIOD_BANDS[group]))
    cofactor = {"2^n": (1, 2, 4, 8), "3*2^n": (1, 2, 3, 6), "10^n": (1, 2, 5, 10),
                "u_n": (1, 2, 3, 5)}[spec]
    den = r * rng.choice(cofactor)
    return _coprime_numerator(rng, den), den, r


def verdicts(seed: int) -> list[Op]:
    rng = random.Random(f"verdicts:{seed}")
    slots = [("member", t, i) for t in VERDICT_TERMS for i in IDEALS]
    slots += [("member", "n!", i) for i in IDEALS]     # 48 slots, 6 of them past the cap
    slots += [(g, t, i) for g in PERIOD_BANDS for t in PERIODIC_TERMS for i in IDEALS]
    slots += [("beyond-cap", t, i) for t in ("2^n", "n!") for i in IDEALS]
    foreign = _ForeignPrimes()
    ops = []
    for index, (group, spec, ideal) in enumerate(slots):
        num, den, r = _verdict_point(rng, group, spec, foreign)
        ops.append(Op(index, "verdict", {
            "group": group, "x": f"{num}/{den}", "num": num, "den": den,
            "foreign": r, "terms": spec, "seq": VERDICT_TERMS[spec][0],
            "ideal": ideal}, via_cli=group != "beyond-cap" and index % 7 == 3))
    return ops


# ---------------------------------------------------------------------------

def _expansion_point(rng: random.Random, chain: str, K: int,
                     terminating: bool) -> tuple[int, int]:
    """A point whose expansion terminates within K/16 below index K, so its
    cost does not swing with the seed, or one over a 64-bit prime."""
    if terminating:
        lo = K - K // 16
        if chain == "dyadic":
            den = 2 ** rng.randint(lo, K)
        elif chain == "factorial":
            den = rng.choice([p for p in range(lo, K + 1) if is_prime(p)])
        else:   # u_n over [2,3,5,7] gains a factor 7 at every fourth index
            den = 7 ** rng.randint(lo // 4, K // 4) * rng.choice((1, 2, 3, 5))
    else:
        while True:
            den = rng.getrandbits(64) | 1
            if den > K and is_prime(den):
                break
    return _coprime_numerator(rng, den), den


# (chain, K) and (weights, depth) per slot; the seed lowers K or a depth
# below 10^4 by at most 2%.
ROUNDTRIP_SLOTS = [("dyadic", 600), ("dyadic", 750), ("dyadic", 900), ("dyadic", 1000),
                   ("factorial", 200), ("factorial", 300), ("factorial", 400),
                   ("[2,3,5,7]", 300), ("[2,3,5,7]", 450), ("[2,3,5,7]", 600)]
TRUNC_SLOTS = [("dyadic", 800), ("dyadic", 833), ("dyadic", 866), ("dyadic", 900),
               ("factorial", 150), ("factorial", 225), ("factorial", 300),
               ("[2,3,5,7]", 250), ("[2,3,5,7]", 375), ("[2,3,5,7]", 500)]
NSET_SLOTS = [("1", 1000), ("1", 2000), ("1", 3000), ("1/n", 1000), ("1/n", 3000),
              ("1/n", 10_000), ("1/n", 10_000), ("1/n^2", 1000), ("1/n^2", 2000),
              ("1/n^2", 10_000)]
TH6_POINT_COUNTS = (12, 13, 14, 15, 16) * 2


def th6_indices(count: int) -> list[int]:
    """Chain indices k_i of the th6 certificate over the dyadic chain for
    terms 3*2^n, whose point has one unit digit at each k_i + 1: k_1 = 2 and
    k_i = 2**(i+1) (k_2 = 8 is the first power of two with 2**(k - 2) >= 8*3)."""
    return [2] + [2 ** (i + 1) for i in range(2, count + 1)]


def deep_exact(seed: int) -> list[Op]:
    rng = random.Random(f"deep-exact:{seed}")
    ops: list[Op] = []
    for slot, (chain, K) in enumerate(ROUNDTRIP_SLOTS):
        K = rng.randint(K - K // 50, K)
        num, den = _expansion_point(rng, chain, K, terminating=slot % 2 == 0)
        ops.append(Op(len(ops), "roundtrip", {"seq": chain, "K": K, "num": num, "den": den}))
    for chain, K in TRUNC_SLOTS:
        K = rng.randint(K - K // 50, K)
        num, den = _expansion_point(rng, chain, K, terminating=False)
        ops.append(Op(len(ops), "trunc-classical",
                      {"seq": chain, "K": K, "num": num, "den": den}))
    for weights, depth in NSET_SLOTS:
        terms = rng.choice(("2^n", "10^n"))
        base = 2 if terms == "2^n" else 10
        while True:
            den = rng.randint(3, 200)
            if any(p not in (2, 5) and base % p for p in factorize(den)):
                break
        ops.append(Op(len(ops), "nset", {
            "terms": terms, "weights": weights,
            "depth": depth if depth == 10_000 else rng.randint(depth - depth // 50, depth),
            "num": _coprime_numerator(rng, den), "den": den}))
    for count in TH6_POINT_COUNTS:
        ops.append(Op(len(ops), "th6-point", {
            "count": count, "ks": th6_indices(count), "terms": "3*2^n",
            "ideal": rng.choice(IDEALS)}))
    return ops


# ---------------------------------------------------------------------------

CERT_SLOTS = (
    [("th6", "dyadic", "scaled", c) for c in (8, 9, 10, 11, 12, 13, 14, 15, 16, 16)]
    + [("th6", "factorial", "n!", c) for c in (6, 7, 8, 9, 10, 11, 12, 14)]
    + [("th6", "[2,3,5]", "u_n", c) for c in (8, 9, 10, 11, 12, 12)]
    + [("th1", "dyadic", "scaled", c) for c in (4, 5, 6, 7, 8, 4, 6, 8)]
    + [("th2", f"geometric:{(2, 3, 5)[i % 3]}", "scaled", c)
       for i, c in enumerate((12, 20, 28, 36) + (40,) * 8)]
    + [("th6", "dyadic", "scaled", 17)] * 4
)


def certify(seed: int) -> list[Op]:
    rng = random.Random(f"certify:{seed}")
    ops = []
    for index, (tag, seq, terms, count) in enumerate(CERT_SLOTS):
        if terms == "scaled":
            if tag == "th2":
                base = int(seq.split(":")[1])
                terms = f"{rng.randint(1, 40)}*{base}^n"
            else:
                # from scale 9 on, th6 is refused already at count 16
                terms = f"{rng.choice((3, 5, 7))}*2^n"
        if tag == "th1":
            ideal = "summable"
        elif tag == "th2":
            ideal = IDEALS[index // 3 % 3]
        else:
            ideal = rng.choice(("density", "summable"))
        ops.append(Op(index, "certificate", {
            "tag": tag, "seq": seq, "terms": terms, "ideal": ideal,
            "count": count}, via_cli=count != 17 and index % 8 == 5))
    return ops


WORKLOADS = {"verdicts": verdicts, "deep-exact": deep_exact, "certify": certify}

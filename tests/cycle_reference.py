"""A state-by-state reference for the residue cycle that `convergence`
reads off its ε-walk (period and norms, by Brent's method) and off
valuations (its start): every (residue, phase) state goes into a dict until
one repeats, so memory grows with the pre-period plus the period."""

from fractions import Fraction

from thinset.sequences import multiplier_chain, phase_period


def detect_cycle(num: int, den: int, terms) -> tuple[int, int, tuple[Fraction, ...]]:
    """(mu, period, norms) of the eventual cycle of (a_n*num/den mod 1, phase):
    mu is the first index inside the cycle, and norms are ||a_n x|| for
    n = mu .. mu+period-1.  Needs a chain with a phase period."""
    period = phase_period(terms)
    first, mult = multiplier_chain(terms)
    seen: dict[tuple[int, int], int] = {}
    residues: list[int] = []
    t = (first % den) * num % den
    n = 1
    while True:
        state = (t, (n - 1) % period)
        if state in seen:
            mu = seen[state]
            cyc = residues[mu - 1:n - 1]
            return mu, len(cyc), tuple(Fraction(min(r, den - r), den) for r in cyc)
        seen[state] = n
        residues.append(t)
        t = t * mult(n) % den
        n += 1

"""Decimal text of exact numbers of any size.

`str(int)` refuses integers longer than the interpreter's int-to-string digit
limit (4300 digits by default), and exact reports routinely hold rationals
with denominators of tens of thousands of digits.  The decimal module converts
integers without that limit and writes the same text as `str`, so
serialization never depends on the process-wide setting.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction


def exact_str(value) -> str:
    """`str(value)`, with integers and Fractions of any length."""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(Decimal(value.numerator))
        return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"
    if isinstance(value, int) and not isinstance(value, bool):
        return str(Decimal(value))
    return str(value)

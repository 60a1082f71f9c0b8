"""Exact numbers and malformed documents at the text boundary.

`str(int)` and `int(str)` refuse integers longer than the interpreter's
int-to-string digit limit (4300 digits by default, 640 at the lowest setting),
and exact reports hold rationals of tens of thousands of digits.  Everything
here works under any setting of that limit and never changes it.
"""

from __future__ import annotations

import decimal
import functools
import re
from decimal import Decimal
from fractions import Fraction

# sys.int_info.str_digits_check_threshold: no limit setting refuses text this short
_SAFE_DIGITS = 640
_INT_TEXT = re.compile(r"[+-]?[0-9]+")
_SPLIT_BITS = 1 << 14    # up to here Decimal(n) is as fast as splitting n
_EXACT = decimal.Context(decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=[decimal.Inexact])
# keys are powers of two: one entry per doubling of the longest integer written
_pow2 = functools.cache(lambda k: _EXACT.power(2, k))


def _decimal(n: int) -> Decimal:
    """Decimal(n) for n >= 0, exact, as D(n >> k)*D(2**k) + D(n mod 2**k)
    with k a power of two, so libmpdec's fast products do the work (CPython
    3.12's _pylong.int_to_decimal_string); Decimal(n) alone is quadratic."""
    if n.bit_length() <= _SPLIT_BITS:
        return Decimal(n)
    k = 1 << (n.bit_length() - 1).bit_length() - 1
    return _EXACT.add(_EXACT.multiply(_decimal(n >> k), _pow2(k)), _decimal(n & (1 << k) - 1))


def exact_str(value) -> str:
    """`str(value)`, with integers and Fractions of any length."""
    try:
        return str(value)
    except ValueError:
        # an int past the digit limit: decimal has none and writes the same text
        if isinstance(value, Fraction) and value.denominator != 1:
            return f"{exact_str(value.numerator)}/{exact_str(value.denominator)}"
        return "-" * (value < 0) + str(_decimal(abs(int(value))))


# keys are _SAFE_DIGITS * 2**j: one entry per doubling of the longest text read
_pow10 = functools.cache((10).__pow__)


def _digits_value(s: str) -> int:
    """Value of a decimal digit string, split at a power-of-two multiple of
    _SAFE_DIGITS until every piece is short enough for int()."""
    if len(s) <= _SAFE_DIGITS:
        return int(s)
    low = _SAFE_DIGITS << ((len(s) - 1) // _SAFE_DIGITS).bit_length() - 1
    return _digits_value(s[:-low]) * _pow10(low) + _digits_value(s[-low:])


def exact_int(value) -> int:
    """`int(value)`; text longer than _SAFE_DIGITS must be [+-]digits.  A
    bool or a float is refused: int() would read true as 1 and 1.9 as 1."""
    if isinstance(value, (bool, float)):
        raise ValueError(f"not an integer: {value!r}")
    if not isinstance(value, str) or len(value) <= _SAFE_DIGITS:
        return int(value)
    if not _INT_TEXT.fullmatch(value):
        raise ValueError(f"invalid integer text of {len(value)} characters")
    magnitude = _digits_value(value.lstrip("+-"))
    return -magnitude if value[0] == "-" else magnitude


def exact_fraction(value) -> Fraction:
    """`Fraction(value)`; text longer than _SAFE_DIGITS must be p or p/q.  A
    bool or a float is refused: Fraction() would read true as 1 and 0.1 as
    its binary value."""
    if isinstance(value, (bool, float)):
        raise ValueError(f"not a rational: {value!r}")
    if not isinstance(value, str) or len(value) <= _SAFE_DIGITS:
        return Fraction(value)
    num, slash, den = value.partition("/")
    return Fraction(exact_int(num), exact_int(den) if slash else 1)


def decoder(what: str, error: type = ValueError):
    """Make a from-JSON function total: whatever a malformed document makes it
    raise comes out as `error` ("bad {what}: ..."); `error` itself passes."""
    def wrap(decode):
        @functools.wraps(decode)
        def guarded(*args, **kwargs):
            try:
                return decode(*args, **kwargs)
            except error:
                raise
            except (KeyError, IndexError, TypeError, AttributeError, OverflowError,
                    ZeroDivisionError, RecursionError, ValueError) as exc:
                raise error(f"bad {what}: {type(exc).__name__}: {exc}") from exc
        return guarded
    return wrap

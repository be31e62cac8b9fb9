"""Integer and rational arguments read exactly; a leaf module, so every layer can import it."""

from __future__ import annotations

import operator
import re
import sys
from fractions import Fraction

# the exponent of a numeral such as "1.5e-3", as Fraction reads it
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def cut_repr(value) -> str:
    """repr(value), cut to 80 characters ending in "…": the most of a value a message echoes."""
    text = repr(value)
    return text if len(text) <= 80 else text[:79] + "…"


def exact_int(value, what: str) -> int:
    """``value`` as an int, refusing anything int() would round or misread:
    1.5 and Fraction(3, 2) are not integers, and True is not point 1."""
    if type(value) is int:
        return value
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{what} must be an integer, got {cut_repr(value)}")


def exact_rational(value, what: str) -> Fraction:
    """``value`` as a Fraction, refusing a bool: Fraction(True) would read it as 1.
    A string is read by ``bounded_fraction``; one Fraction cannot read is a
    ValueError that echoes the value cut."""
    if isinstance(value, bool):
        raise TypeError(f"{what} must be a number, got {cut_repr(value)}")
    if isinstance(value, str):
        return bounded_fraction(value, f"{what} must be a number, got {{}}")
    try:
        return Fraction(value)
    except ValueError:  # NaN, and the like
        raise ValueError(f"{what} must be a number, got {cut_repr(value)}") from None


def digit_limit() -> int:
    """int()'s limit on decimal digits, or its default where it is switched off."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def bounded_fraction(text: str, unreadable: str) -> Fraction:
    """Fraction(text), with numerator and denominator of at most ``digit_limit()``
    digits each and an exponent of at most that magnitude.

    1e999999999 would build a ~400 MB integer, so the exponent is bounded
    before Fraction reads it, as int() bounds digits; 1e4300 is inside that
    bound, but its 4301 digits could not be printed.  A string Fraction cannot
    read is a ValueError of ``unreadable`` formatted with the cut string (its
    own message would echo the whole string); a zero denominator is
    Fraction's ZeroDivisionError."""
    limit = digit_limit()
    exponent = _EXPONENT.search(text)
    if exponent and (len(exponent[1]) > limit or abs(int(exponent[1])) > limit):
        raise ValueError(f"exponent out of range in {cut_repr(text)}: "
                         f"its magnitude must be at most {limit}")
    try:
        q = Fraction(text)
    except ValueError:
        raise ValueError(unreadable.format(cut_repr(text))) from None
    if not (_printable(q.numerator, limit) and _printable(q.denominator, limit)):
        raise ValueError(
            f"too many digits in {cut_repr(text)}: its numerator and denominator may have "
            f"at most {limit} each"
        )
    return q


def _printable(n: int, limit: int) -> bool:
    """Whether n has at most ``limit`` decimal digits, i.e. |n| < 10**limit.

    |n| < 2**bits <= 8**limit < 10**limit settles every ordinary n without
    building 10**limit."""
    return abs(n).bit_length() <= 3 * limit or abs(n) < 10**limit

"""The package's one reader of numbers, for arguments and file fields alike,
and its one formatter of the values a message echoes (``cut_repr``); a leaf
module, so every layer can import it."""

from __future__ import annotations

import operator
import re
import sys
from decimal import Decimal  # fractions imports it already
from fractions import Fraction
from numbers import Rational  # fractions imports it already
from typing import Iterable, List, Tuple

# the exponent of a numeral such as "1.5e-3", as Fraction reads it
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")
# a row of plain cells, read without a Fraction: "12", "-3/4", "007/3"
_PLAIN_ROW = re.compile(r"-?[0-9]+(?:/[0-9]+)?(?:,-?[0-9]+(?:/[0-9]+)?)*")


def cut_repr(value, *, typed: bool = False) -> str:
    """repr(value), cut to 80 characters ending in "…": the most of a value a message echoes.

    A Fraction shows as its str ("-4", "3/2"), the number a domain message
    names, or as its repr ("Fraction(5, 1)") when ``typed``: a refusal of
    the value's type, where "got 5" would hide why.  It never raises: an
    int, or a Fraction's numerator or denominator, of more than
    ``digit_limit()`` digits, which repr refuses, shows as its size in bits,
    and any other value whose repr fails (a list holding such an int) as its
    type."""
    if isinstance(value, Fraction) and not typed:
        text = _int_text(value.numerator)
        if value.denominator != 1:
            text += "/" + _int_text(value.denominator)
    elif isinstance(value, int):
        text = _int_text(value)
    else:
        try:
            text = repr(value)
        except ValueError:
            text = f"<{type(value).__name__} holding an int of more than {digit_limit()} digits>"
    return cut(text)


def cut(text: str) -> str:
    """``text`` cut to 80 characters ending in "…", as ``cut_repr`` cuts a repr."""
    return text if len(text) <= 80 else text[:79] + "…"


def cut_path(path: str) -> str:
    """``path`` cut to 80 characters starting with "…": a path keeps its
    tail, where the file name tells it from its neighbours."""
    return path if len(path) <= 80 else "…" + path[-79:]


def _int_text(n: int) -> str:
    """repr(n), or its size in bits past ``digit_limit()`` digits."""
    if _printable(n, digit_limit()):
        return repr(n)
    return f"{'-' if n < 0 else ''}<int of {abs(n).bit_length()} bits>"


def exact_int(value, what: str) -> int:
    """``value`` as an int, refusing anything int() would round or misread:
    1.5 and Fraction(3, 2) are not integers, and True is not point 1.  An
    integer string ("12", " -3 ") is read by int(), held to ``digit_limit()``
    characters also where int() has no limit."""
    if type(value) is int:
        return value
    if isinstance(value, str):
        if len(value) <= digit_limit():
            try:
                return int(value)
            except ValueError:
                pass
        raise ValueError(f"{what} must be an integer, got {cut_repr(value)}")
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise TypeError(f"{what} must be an integer, got {cut_repr(value, typed=True)}")


def exact_rational(value, what: str) -> Fraction:
    """``value`` as a Fraction: the one reader of a rational, for arguments and files alike.

    An int, a Fraction or any other rational number (a numpy int) is taken as
    it is.  A string, or a Decimal through its string, is read by Fraction,
    its exponent held first to ``digit_limit()`` in magnitude, as int() holds
    digits (1e999999999 would build a ~400 MB integer), then its numerator and
    denominator to that many digits.  A float, NaN and the infinities included,
    is refused: its binary value would make 0.1 a fraction over 2**55.  So is a
    bool, which Fraction would read as 1.  Every refusal is a TypeError or
    ValueError that echoes the value cut."""
    if type(value) is int:
        return Fraction(value)
    if type(value) is Fraction:
        return value
    if isinstance(value, (str, Decimal)):
        text = str(value)
        limit = digit_limit()
        exponent = _EXPONENT.search(text)
        if exponent and (len(exponent[1]) > limit or abs(int(exponent[1])) > limit):
            raise ValueError(f"exponent out of range in {cut_repr(text)}: "
                             f"its magnitude must be at most {limit}")
        try:
            q = Fraction(text)
        except ValueError:
            raise ValueError(f"{what} must be a number, got {cut_repr(text)}") from None
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {cut_repr(text)}") from None
        if not (_printable(q.numerator, limit) and _printable(q.denominator, limit)):
            raise ValueError(f"too many digits in {cut_repr(text)}: its numerator and denominator "
                             f"may have at most {limit} each")
        return q
    if isinstance(value, float):
        raise TypeError(f"{what} must be exact, got {cut_repr(value)}")
    if isinstance(value, Rational) and not isinstance(value, bool):
        # operator.index: Fraction(numpy.int64(3)) would keep numpy ints inside
        return Fraction(operator.index(value.numerator), operator.index(value.denominator))
    raise TypeError(f"{what} must be a number, got {cut_repr(value)}")


def rational_row(row: Iterable, what: str) -> Tuple[List[int], List[int]]:
    """A row of rationals as int numerators and positive denominators: the
    one reader of a metric row, from the library and from a CSV alike.

    A row of plain strings (optional minus, ASCII digits, optional
    "/digits") no longer than ``digit_limit()`` is split and read by int(),
    without a Fraction per cell.  Any other row, one with a zero denominator
    and one int() refuses (a quoted comma inside a cell) is read cell by
    cell: an int or a Fraction as it is, anything else by
    ``exact_rational(cell, what)``, so the accepted syntax and every message
    are the library's.  The length bound holds that limit also where int()
    has none (sys.set_int_max_str_digits(0)).
    """
    cells = list(row)
    if all(type(cell) is str for cell in cells):
        joined = ",".join(cells)
        limit = digit_limit()
        if _PLAIN_ROW.fullmatch(joined) and (len(joined) <= limit or max(map(len, cells)) <= limit):
            parts = [cell.partition("/") for cell in cells]
            try:
                nums = [int(num) for num, _, _ in parts]
                dens = [int(den) if den else 1 for _, _, den in parts]
            except ValueError:
                pass
            else:
                if 0 not in dens:
                    return nums, dens
    values = [x if type(x) in (Fraction, int) else exact_rational(x, what) for x in cells]
    return [q.numerator for q in values], [q.denominator for q in values]


def digit_limit() -> int:
    """int()'s limit on decimal digits, or its default where it is switched off."""
    return sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits


def _printable(n: int, limit: int) -> bool:
    """Whether n has at most ``limit`` decimal digits, i.e. |n| < 10**limit.

    |n| < 2**bits <= 8**limit < 10**limit settles every ordinary n without
    building 10**limit."""
    return abs(n).bit_length() <= 3 * limit or abs(n) < 10**limit

"""Integer and rational arguments read exactly; a leaf module, so every layer can import it."""

from __future__ import annotations

import operator
from fractions import Fraction


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
    A string Fraction cannot read is a ValueError that echoes the value cut."""
    if isinstance(value, bool):
        raise TypeError(f"{what} must be a number, got {cut_repr(value)}")
    try:
        return Fraction(value)
    except ValueError:  # Fraction's own message would echo the whole string
        raise ValueError(f"{what} must be a number, got {cut_repr(value)}") from None

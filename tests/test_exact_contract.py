"""The library's number contract: every public argument that is a number is
read by ``cremlat._exact``, the reader the JSON and CSV formats use too.

Each call below hands one value to one argument, inside an otherwise valid
call.  It either returns exact values (ints and Fractions of plain ints) or
raises a TypeError or ValueError whose message is one short line.  An error
of the package (CremlatError) is a value read exactly and then refused by the
mathematics, such as a germ index out of range.  A graph size or k_max
that reads as more than 3 is skipped: a huge one legitimately builds what it
asks for, while a huge negative one must be refused in one short line.
"""

import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cremlat._exact import exact_int
from cremlat.bubble import Configuration
from cremlat.cremona import Characteristic
from cremlat.errors import CremlatError
from cremlat.halphen import HalphenVector, point_vector, twist_degree
from cremlat.hypgraph import FiniteMetric, bowditch_check, flat_growth, geodesic_family, path_graph
from cremlat.lattice import PicardManinClass, line
from cremlat.voronoi import GermSet, boundary_class, cell_member

_PATH = path_graph(3)
_GERMS = GermSet([("l", line()), ("2l", PicardManinClass(2, {0: 1, 1: 1, 2: 1}))])


def _class(c):
    return [c.degree, *c.mults, *c.mults.values()]


def _char(c):
    return [c.degree, *(x for pair in c.base + c.inverse_base for x in pair),
            *(x for row in c.resolution or () for x in row)]


# argument name -> a call that puts the value there and lists the numbers it read
TARGETS = {
    "class degree": lambda x: _class(PicardManinClass(x)),
    "class coefficient": lambda x: _class(PicardManinClass(1, {0: x})),
    "class point id": lambda x: _class(PicardManinClass(1, {x: 1})),
    "distance": lambda x: list(FiniteMetric([[0, x], [x, 0]]).matrix[0]),
    "characteristic degree": lambda x: _char(Characteristic(x)),
    "side point id": lambda x: _char(Characteristic(1, base=[(x, 1)])),
    "side multiplicity": lambda x: _char(Characteristic(1, inverse_base=[(0, x)])),
    "resolution entry": lambda x: _char(Characteristic(1, [(0, 1)], [(1, 1)], resolution=[[x]])),
    "configuration point id": lambda x: sorted(Configuration([x]).point_ids),
    "parent": lambda x: sorted(Configuration([0, (1, x)]).point_ids),
    "collinear point id": lambda x: sorted(Configuration(range(3), collinear=[(0, 1, x)]).point_ids),
    "Halphen coordinate": lambda x: list(HalphenVector((x,) + (0,) * 9).coords),
    "point_vector index": lambda x: list(point_vector(x).coords),
    "twist n": lambda x: [twist_degree(x, 0)],
    "twist m": lambda x: [twist_degree(1, x)],
    "cell_member index": lambda x: [int(cell_member(line(), x, _GERMS))],
    "boundary_class point": lambda x: _class(boundary_class([x, *range(1, 9)])),
    "bowditch h": lambda x: [int(bowditch_check(_PATH, geodesic_family(_PATH), x).passed)],
    "graph size": lambda x: [len(path_graph(x).vertices)],
    "k_max": lambda x: [flat_growth(x).k_max],
}
SIZES = {"graph size", "k_max"}

# ints past int64, past a printed line and past int()'s digit limit
HUGE = [10**300, -(10**300), 10**5000, -(10**5000)]

# values a caller may hand over by mistake, and the numerals the readers bound
SPECIALS = [
    True, False, None, [1], (1,), {1: 1}, object(),
    math.inf, -math.inf, math.nan, 0.5, -0.0,
    Decimal("sNaN"), Decimal("NaN"), Decimal("Infinity"), Decimal("-Infinity"),
    Decimal("1e999999999"), Decimal("1.5"), Decimal("2"),
    np.int64(2), np.int64(-3), np.float64(2.0), np.float64("nan"), np.bool_(True),
    "1/0", "0/0", "2", " 3 ", "1/2", "x", "", "1e999999999", "1e5000", "1e4300",
    "7" * 5000, "1/" + "7" * 5000, "1e" + "9" * 5000,
    Q(1, 2), Q(3), 0, 1, -1, 2, *HUGE,
]


def _is_exact(v) -> bool:
    if type(v) is Q:
        return type(v.numerator) is int and type(v.denominator) is int
    return type(v) is int


def _builds_too_much(target, value) -> bool:
    if target not in SIZES:
        return False
    try:
        return exact_int(value, target) > 3
    except (TypeError, ValueError):
        return False


def check(target, value):
    """One call: exact values out, or a short one-line refusal."""
    if _builds_too_much(target, value):
        return
    tracemalloc.start()
    try:
        numbers = TARGETS[target](value)
    except (TypeError, ValueError, CremlatError) as exc:
        message = str(exc)
        assert "\n" not in message and 0 < len(message) <= 200, (target, value, message)
    else:
        assert all(_is_exact(v) for v in numbers), (target, value, numbers)
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    # Decimal("1e999999999") as a Fraction would take ~400 MB
    assert peak < 8 * 2**20, (target, value, peak)


@pytest.mark.parametrize("target", TARGETS)
def test_specials_are_read_exactly_or_refused(target):
    for value in SPECIALS:
        check(target, value)


VALUES = st.one_of(
    st.integers(min_value=-(10**40), max_value=10**40),
    st.sampled_from(HUGE),
    st.fractions(),
    st.floats(),
    st.decimals(),
    st.booleans(),
    st.none(),
    st.text(max_size=12),
    st.from_regex(r"\A[-+]?\d{1,6}(/\d{1,6}|\.\d{1,4})?([eE][-+]?\d{1,12})?\Z"),
)


@settings(max_examples=200, deadline=None)
@given(target=st.sampled_from(sorted(TARGETS)), value=VALUES)
def test_any_value_is_read_exactly_or_refused(target, value):
    check(target, value)


@pytest.mark.parametrize("target, value, error", [
    ("class degree", "1/0", ValueError),
    ("distance", "1/0", ValueError),
    ("bowditch h", "1/0", ValueError),
    ("bowditch h", True, TypeError),
    ("distance", 0.5, TypeError),
    ("resolution entry", 0.5, TypeError),
    ("class coefficient", np.float64(0.5), TypeError),
], ids=lambda p: repr(p) if not isinstance(p, type) else p.__name__)
def test_one_policy_for_every_leg(target, value, error):
    # a float or a zero denominator is refused by every leg alike: the
    # metric used to take 0.5 at its binary value, and "1/0" escaped the
    # class, the metric and h as a raw ZeroDivisionError
    with pytest.raises(error):
        TARGETS[target](value)


def test_numpy_ints_are_read_as_plain_ints():
    # Fraction(numpy.int64(3)) keeps numpy ints inside, which overflow
    c = PicardManinClass(np.int64(3), {np.int64(0): np.int64(2)})
    assert _class(c) == [3, 0, 2] and all(_is_exact(v) for v in _class(c))
    assert FiniteMetric([[0, np.int64(5)], [np.int64(5), 0]]).distance(0, 1) == 5


@pytest.mark.parametrize("call, message", [
    (lambda: Characteristic(-(10**5000)), "degree must be positive, got -<int of 16610 bits>"),
    (lambda: Characteristic(2, base=[(0, -(10**5000))]),
     "base multiplicity at 0 must be positive, got -<int of 16610 bits>"),
    (lambda: path_graph(-(10**5000)), "n must be at least 0, got -<int of 16610 bits>"),
    (lambda: cell_member(line(), 10**5000, _GERMS),
     "germ index <int of 16610 bits> out of range 0..1"),
    (lambda: Configuration([0, (1, 10**300)]),
     f"parent {'1' + '0' * 78}… of point 1 not in configuration"),
    (lambda: boundary_class([10**300] * 9), f"need exactly 9 distinct points, got [1{'0' * 77}…"),
    (lambda: boundary_class([10**5000] * 9),
     "need exactly 9 distinct points, got <list holding an int of more than 4300 digits>"),
], ids=lambda p: "" if callable(p) else p[:40])
def test_huge_ints_are_echoed_cut(call, message):
    # each used to raise int()'s own "Exceeds the limit" ValueError in place
    # of its domain error, or echo all 301 digits of 10**300, nine times over
    with pytest.raises((ValueError, CremlatError)) as info:
        call()
    assert str(info.value) == message

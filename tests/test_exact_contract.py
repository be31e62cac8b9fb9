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

from cremlat._exact import cut_repr, exact_int
from cremlat.bubble import Configuration
from cremlat.cremona import Characteristic
from cremlat.errors import CremlatError, MalformedFamily
from cremlat.halphen import HalphenVector, TwistParam, point_vector, twist_degree
from cremlat.hypgraph import (
    FiniteMetric, Graph, SubgraphFamily, bowditch_check, flat_growth, geodesic_family, path_graph,
)
from cremlat.lattice import PicardManinClass, distance, line
from cremlat.length import _greedy_step
from cremlat.serialize import RunConfig
from cremlat.voronoi import GermSet, boundary_class, cell_member

_PATH = path_graph(3)
_GERMS = GermSet([("l", line()), ("2l", PicardManinClass(2, {0: 1, 1: 1, 2: 1}))])
# n^2 - (2m)^2 - (2m^2)^2 = 1 for n = 2m^2 + 1: a hyperboloid class of huge
# degree on the lower sheet
_M = 10**2500
_LOWER = PicardManinClass(-(2 * _M * _M + 1), {0: 2 * _M, 1: 2 * _M * _M})


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
    "germ degree": lambda x: [len(GermSet([("g", PicardManinClass(x))]))],
    "member degree": lambda x: [int(cell_member(PicardManinClass(x), 0, _GERMS))],
    "distance degree": lambda x: [int(distance(PicardManinClass(x), line()) >= 0)],
    "twist parameter coordinate":
        lambda x: list(TwistParam(HalphenVector((x,) + (0,) * 9)).vector.coords),
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
        # int()'s own refusal to print a huge int, in place of the domain error
        assert "Exceeds the limit" not in message, (target, value, message)
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
    (lambda: GermSet([("g", PicardManinClass(10**300))]),
     f"germ 'g' has self-intersection 1{'0' * 78}…"),
    (lambda: GermSet([("g", PicardManinClass(10**5000))]),
     "germ 'g' has self-intersection <int of 33220 bits>"),
    (lambda: GermSet([("g", _LOWER)]), "germ 'g' has degree -<int of 16611 bits>, off the upper sheet"),
    (lambda: cell_member(PicardManinClass(-(10**5000)), 0, _GERMS),
     "membership needs a class of positive degree, got -<int of 16610 bits>"),
    (lambda: distance(PicardManinClass(10**300), line()),
     f"first class has self-intersection 1{'0' * 78}…"),
    (lambda: distance(line(), _LOWER), "pairing -<int of 16611 bits> < 1"),
    (lambda: TwistParam(HalphenVector((10**300,) + (0,) * 9)),
     f"HalphenVector(1{'0' * 64}… pairs to -3{'0' * 77}… with the canonical vector"),
    (lambda: TwistParam(HalphenVector((10**5000,) + (0,) * 9)),
     "<HalphenVector holding an int of more than 4300 digits> pairs to -<int of 16612 bits> "
     "with the canonical vector"),
    (lambda: Graph([0], [(0, 10**5000)]), "edge (0, <int of 16610 bits>) uses unknown vertices"),
    (lambda: _greedy_step(10**5000, (1, 1, 1)),
     "no factor drops the degree below <int of 16610 bits>"),
], ids=lambda p: "" if callable(p) else p[:40])
def test_huge_ints_are_echoed_cut(call, message):
    # each used to raise int()'s own "Exceeds the limit" ValueError in place
    # of its domain error, or echo all 301 digits of 10**300, nine times over
    with pytest.raises((ValueError, CremlatError)) as info:
        call()
    assert str(info.value) == message


# a vertex label, a germ label or a map label: past a printed line and past
# int()'s digit limit
LABELS = ["x" * 1000, 10**300, 10**5000, -(10**5000)]


def _family(graph, members):
    return bowditch_check(graph, SubgraphFamily(members), 0)


# each call echoes the label L; None: bowditch_check returns the message
LABEL_CALLS = {
    "edge": (lambda L: Graph([0], [(0, L)]), ValueError),
    "loop": (lambda L: Graph([L], [(L, L)]), ValueError),
    "pair": (lambda L: SubgraphFamily({(L, L): {L}}), ValueError),
    "undeclared pair": (lambda L: SubgraphFamily({}).member(0, L), MalformedFamily),
    "unknown vertex": (
        lambda L: _family(Graph([0, 1], [(0, 1)]), {(0, 1): {0, 1, L}}), MalformedFamily),
    "missed endpoint": (lambda L: _family(Graph([0, L], [(0, L)]), {(0, L): {0}}), MalformedFamily),
    "disconnected": (
        lambda L: _family(Graph([0, 1, L], [(0, 1), (1, L)]),
                          {(0, 1): {0, 1}, (0, L): {0, L}, (1, L): {1, L}}),
        MalformedFamily),
    # condition (2): Gamma(0, 1) runs through L, away from Gamma(0, 2) and Gamma(1, 2)
    "far vertex": (
        lambda L: _family(Graph([0, 1, 2, L], [(0, L), (L, 1), (0, 2), (2, 1)]),
                          {(0, 1): {0, L, 1}, (0, 2): {0, 2}, (1, 2): {1, 2},
                           (0, L): {0, L}, (1, L): {1, L}, (2, L): {2, 0, L}}),
        None),
    # condition (3): an edge's subgraph has diameter 1 > h = 0
    "diameter": (lambda L: _family(Graph([0, L], [(0, L)]), {(0, L): {0, L}}), None),
    "characteristic label": (lambda L: RunConfig().characteristic(L), KeyError),
}


@pytest.mark.parametrize("label", LABELS, ids=["long string", "10**300", "10**5000", "-10**5000"])
@pytest.mark.parametrize("call", LABEL_CALLS)
def test_labels_are_echoed_cut(call, label):
    # bare !r echoed a 1 000-character label whole (a 1 034-character edge
    # message), and 10**5000 raised int()'s "Exceeds the limit" in its place
    build, error = LABEL_CALLS[call]
    if error is None:
        message = build(label).message
    else:
        with pytest.raises(error) as info:
            build(label)
        message = str(info.value)
    assert "\n" not in message and len(message) <= 200, message
    assert "Exceeds the limit" not in message, message


def test_cut_repr_shows_a_fraction_as_its_str():
    # the str a domain message names ("got -4"), cut as an int is
    assert [cut_repr(q) for q in (Q(-4), Q(3, 2), Q(0))] == ["-4", "3/2", "0"]
    assert cut_repr(Q(10**100, 3)) == "1" + "0" * 78 + "…"
    assert cut_repr(Q(-(10**5000), 3)) == "-<int of 16610 bits>/3"
    assert cut_repr(Q(1, 10**5000)) == "1/<int of 16610 bits>"
    assert cut_repr(Q(10**5000)) == "<int of 16610 bits>" == cut_repr(10**5000)
    # a refusal of the value's type shows the type
    assert cut_repr(Q(5), typed=True) == "Fraction(5, 1)"
    assert cut_repr(Q(10**5000), typed=True) == (
        "<Fraction holding an int of more than 4300 digits>"
    )

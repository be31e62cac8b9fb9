import math
import re
from decimal import Decimal
from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from cremlat.bubble import Configuration
from cremlat.cremona import apply, jonquieres_characteristic, standard_quadratic
from cremlat.errors import InvalidPair, NotOnHyperboloid, UnknownPoint
from cremlat.lattice import (
    CurveWitness,
    PicardManinClass,
    distance,
    exceptional,
    in_E,
    intersect,
    is_special,
    line,
    self_intersection,
)
from cremlat.voronoi import GermSet, cell_member

CONIC = PicardManinClass(2, {1: 1, 2: 1, 3: 1})  # 2l - e1 - e2 - e3


def small_class(degree, *mults):
    return PicardManinClass(degree, dict(enumerate(mults)))


class TestClassArithmetic:
    def test_zero_mults_dropped(self):
        c = PicardManinClass(3, {0: 0, 1: 2})
        assert c.support == (1,)
        assert c.mult(0) == 0 and c.mult(1) == 2

    def test_coercion(self):
        c = PicardManinClass(1, {0: Q(1, 2), 1: "3/4"})
        assert isinstance(c.degree, Q) and all(isinstance(v, Q) for v in c.mults.values())
        assert isinstance((Q(1, 3) * c).degree, Q) and isinstance(intersect(c, c), Q)
        # a float coefficient used to build a class on which every pairing was inexact
        message = re.escape("class coefficient must be exact, got 0.5")
        with pytest.raises(TypeError, match=f"^{message}$"):
            PicardManinClass(0.5)
        with pytest.raises(TypeError, match=f"^{message}$"):
            PicardManinClass(1, {0: 0.5})
        with pytest.raises(TypeError):
            0.5 * line()
        with pytest.raises(TypeError, match="^class coefficient must be exact, got 0.0$"):
            PicardManinClass(1, {0: 0.0})  # checked even though the entry is dropped

    def test_point_ids_are_integers(self):
        # int() used to read point 1.7 as point 1; an integer string is read
        # as the file readers read it
        assert PicardManinClass(1, {"1": 2}) == PicardManinClass(1, {1: 2})
        assert CONIC.mult(" 1 ") == CONIC.mult(1)
        for bad in (1.7, Q(3, 2), True):
            message = re.escape(f"point id must be an integer, got {bad!r}")
            with pytest.raises(TypeError, match=f"^{message}$"):
                PicardManinClass(1, {bad: 1})
            with pytest.raises(TypeError, match=f"^{message}$"):
                CONIC.mult(bad)
        with pytest.raises(TypeError):
            PicardManinClass(1, {1.5: 0})  # checked even when the entry is dropped

    def test_bool_coefficients_are_refused(self):
        # Fraction(True) used to build the class with 1 in that place
        message = re.escape("class coefficient must be a number, got True")
        with pytest.raises(TypeError, match=f"^{message}$"):
            PicardManinClass(True)
        with pytest.raises(TypeError, match=f"^{message}$"):
            PicardManinClass(1, {0: True})
        with pytest.raises(TypeError):
            True * line()
        assert 1 * line() == line()

    def test_string_coefficients_keep_the_digit_bound(self):
        # read by exact_rational, as a JSON field is, so "1e5000" builds no 16 610-bit degree
        with pytest.raises(ValueError, match=r"^exponent out of range in '1e5000': "):
            PicardManinClass("1e5000")
        with pytest.raises(ValueError, match=r"^too many digits in '1e-4300': "):
            PicardManinClass(1, {0: "1e-4300"})
        assert PicardManinClass("3/2", {0: "1e2"}).mult(0) == 100

    def test_decimal_coefficients_are_read_through_their_string(self):
        # Fraction(Decimal("Infinity")) raises OverflowError, which used to
        # escape as it was, and Decimal("1e5000") built a 16 610-bit degree
        with pytest.raises(ValueError, match=r"^class coefficient must be a number, got 'Infinity'$"):
            PicardManinClass(Decimal("Infinity"))
        with pytest.raises(ValueError, match=r"^exponent out of range in '1E\+5000': "):
            PicardManinClass(1, {0: Decimal("1e5000")})
        assert PicardManinClass(Decimal("1.5"), {0: Decimal("1E+2")}) == PicardManinClass("3/2", {0: 100})

    def test_ops(self):
        a = small_class(1, 1)
        b = small_class(2, 0, 1)
        assert (a + b).degree == 3
        assert (a + b).mult(0) == 1 and (a + b).mult(1) == 1
        assert (a - a).degree == 0 and (a - a).support == ()
        assert (3 * a).mult(0) == 3
        assert (-a).degree == -1
        assert a == small_class(1, 1) and hash(a) == hash(small_class(1, 1))
        assert a != b

    def test_sorted_support(self):
        c = PicardManinClass(1, {5: 1, 2: 1, 9: 1})
        assert c.support == (2, 5, 9)


class TestIntersect:
    def test_line(self):
        assert intersect(line(), line()) == 1

    def test_exceptional(self):
        assert intersect(exceptional(4), exceptional(4)) == -1
        assert intersect(exceptional(4), exceptional(5)) == 0
        assert intersect(exceptional(4), line()) == 0

    def test_conic_line(self):
        assert intersect(CONIC, line()) == 2
        assert self_intersection(CONIC) == 1

    def test_gram_signature(self):
        basis = [line()] + [exceptional(p) for p in range(6)]
        for i, u in enumerate(basis):
            for j, v in enumerate(basis):
                expected = 0
                if i == j:
                    expected = 1 if i == 0 else -1
                assert intersect(u, v) == expected

    @given(
        st.integers(-9, 9),
        st.integers(-9, 9),
        st.integers(-9, 9),
        st.dictionaries(st.integers(0, 5), st.integers(-9, 9), max_size=6),
        st.dictionaries(st.integers(0, 5), st.integers(-9, 9), max_size=6),
        st.dictionaries(st.integers(0, 5), st.integers(-9, 9), max_size=6),
    )
    def test_symmetric_bilinear(self, na, nb, nc, ma, mb, mc):
        a = PicardManinClass(na, ma)
        b = PicardManinClass(nb, mb)
        c = PicardManinClass(nc, mc)
        assert intersect(a, b) == intersect(b, a)
        assert intersect(a + b, c) == intersect(a, c) + intersect(b, c)
        assert intersect(3 * a, c) == 3 * intersect(a, c)


class TestDistance:
    def test_self(self):
        assert distance(line(), line()) == 0.0

    def test_conic(self):
        assert distance(line(), CONIC) == pytest.approx(math.acosh(2), abs=1e-15)

    def test_degree_rule(self):
        # dist(l, f(l)) = argcosh(deg f) for any characteristic
        for char in (standard_quadratic(), jonquieres_characteristic(3), jonquieres_characteristic(7)):
            image = apply(char, line())
            assert distance(line(), image) == pytest.approx(math.acosh(char.degree), abs=1e-12)

    @staticmethod
    def far_class(k):
        """(2k**2 + 1) l - 2k**2 e0 - 2k e1: on the hyperboloid, pairing 2k**2 + 1 with l."""
        c = PicardManinClass(2 * k * k + 1, {0: 2 * k * k, 1: 2 * k})
        assert self_intersection(c) == 1 and intersect(line(), c) == 2 * k * k + 1
        return c

    def test_past_float_range(self):
        # float() of the pairing used to escape as an OverflowError
        for k, log_k in ((10**200, 200 * math.log(10)), (Q(10**200, 3), 200 * math.log(10) - math.log(3))):
            assert distance(line(), self.far_class(k)) == pytest.approx(math.log(4) + 2 * log_k, rel=1e-15)

    def test_float_range_edge(self):
        # 2k**2 + 1 is 1.62e308 inside the float range and 2e308 past it
        inside, past = self.far_class(9 * 10**153), self.far_class(10**154)
        near = distance(line(), inside)
        assert near == math.acosh(float(2 * (9 * 10**153) ** 2 + 1))
        assert near == pytest.approx(math.log(2) + math.log(1.62e308), rel=1e-15)
        assert distance(line(), past) - near == pytest.approx(math.log(2 / 1.62), rel=1e-9)

    def test_not_on_hyperboloid(self):
        with pytest.raises(NotOnHyperboloid):
            distance(2 * line(), line())
        with pytest.raises(NotOnHyperboloid):
            distance(line(), exceptional(0))

    def test_invalid_pair(self):
        with pytest.raises(InvalidPair):
            distance(line(), -1 * line())


# the line class and two disjoint quadratic images of it: germs of the hyperboloid
GERMS = [
    line(),
    apply(standard_quadratic((0, 1, 2), (3, 4, 5)), line()),
    apply(standard_quadratic((6, 7, 8), (9, 10, 11)), line()),
]
GERM_PAIRS = [(g, h) for g in GERMS for h in GERMS if g != h]


class TestBisector:
    """g + h is the midpoint of the segment from g to h, up to scale, exactly."""

    def test_midpoint(self):
        for g, h in GERM_PAIRS:
            mid = g + h
            assert intersect(mid, g) == intersect(mid, h)
            assert isinstance(mid.degree, Q)

    def test_half_distance_law(self):
        # cosh(D/2)**2 = (1 + cosh D)/2, read at the midpoint scaled onto the hyperboloid
        for g, h in GERM_PAIRS:
            mid = g + h
            assert 2 * intersect(mid, g) ** 2 == self_intersection(mid) * (1 + intersect(g, h))
            half = math.acosh(float(intersect(mid, g)) / math.sqrt(self_intersection(mid)))
            assert 2 * half == pytest.approx(distance(g, h), abs=1e-12)

    def test_cell_member(self):
        for g, h in GERM_PAIRS:
            germs = GermSet([("g", g), ("h", h)])
            assert cell_member(g + h, 0, germs) and cell_member(g + h, 1, germs)
            assert not cell_member(2 * g + h, 1, germs)


class TestMembership:
    def test_line_in_E(self):
        report = in_E(line(), Configuration.generic(range(9)))
        assert report.in_E
        assert report.anticanonical_margin == 3

    def test_conic_in_E(self):
        report = in_E(CONIC, Configuration.generic(range(9)))
        assert report.in_E
        assert report.bezout_witness is None

    def test_unknown_point(self):
        with pytest.raises(UnknownPoint):
            in_E(PicardManinClass(1, {99: Q(1, 2)}), Configuration.generic(range(3)))

    def test_report_is_immutable(self):
        report = in_E(line(), Configuration.generic(range(9)))
        with pytest.raises(AttributeError):
            report.bezout_witness = CurveWitness("pair_line", (0, 1), Q(-1))
        with pytest.raises(AttributeError):
            report.bezout = False
        assert report.bezout and report.in_E

    def test_fails_nonneg_only(self):
        report = in_E(PicardManinClass(1, {0: Q(-1, 2)}), Configuration.generic(range(9)))
        assert not report.nonneg_mults and report.negative_point == 0
        assert report.anticanonical and report.excesses and report.bezout
        assert not report.in_E

    def test_fails_anticanonical_only(self):
        c = PicardManinClass(1, {p: Q(3, 8) for p in range(9)})
        report = in_E(c, Configuration.generic(range(9)))
        assert not report.anticanonical and report.anticanonical_margin == Q(-3, 8)
        assert report.nonneg_mults and report.excesses and report.bezout

    def test_fails_excess_only(self):
        cfg = Configuration([0, (1, 0), 2, 3, 4])
        c = PicardManinClass(1, {0: Q(1, 4), 1: Q(1, 2)})
        report = in_E(c, cfg)
        assert not report.excesses and report.excess_point == 0
        assert report.nonneg_mults and report.anticanonical and report.bezout

    def test_fails_bezout_only_pair_line(self):
        c = PicardManinClass(1, {0: Q(3, 5), 1: Q(3, 5)})
        report = in_E(c, Configuration.generic(range(9)))
        assert not report.bezout
        assert report.bezout_witness.kind == "pair_line"
        assert report.bezout_witness.points == (0, 1)
        assert report.bezout_witness.residual == Q(-1, 5)
        assert report.nonneg_mults and report.anticanonical and report.excesses

    def test_fails_bezout_only_declared_line(self):
        cfg = Configuration(range(9), collinear=[(0, 1, 2)])
        c = PicardManinClass(1, {p: Q(1, 2) for p in range(3)})
        report = in_E(c, cfg)
        assert not report.bezout
        assert report.bezout_witness.kind == "declared_line"
        assert report.bezout_witness.residual == Q(-1, 2)
        assert report.nonneg_mults and report.anticanonical and report.excesses

    def test_fails_bezout_only_five_conic(self):
        c = PicardManinClass(1, {p: Q(5, 12) for p in range(6)})
        report = in_E(c, Configuration.generic(range(9)))
        assert not report.bezout
        assert report.bezout_witness.kind == "five_conic"
        assert report.bezout_witness.residual == Q(-1, 12)
        assert report.nonneg_mults and report.anticanonical and report.excesses

    def test_fails_bezout_only_declared_conic(self):
        cfg = Configuration(range(9), conics=[tuple(range(7))])
        c = PicardManinClass(1, {p: Q(3, 10) for p in range(7)})
        report = in_E(c, cfg)
        assert not report.bezout
        assert report.bezout_witness.kind == "declared_conic"
        assert report.bezout_witness.residual == Q(-1, 10)
        assert report.nonneg_mults and report.anticanonical and report.excesses

    @pytest.mark.parametrize("mult, collinear, conics, kind", [
        (Q(1, 2), [(6, 7, 8)], [], "declared_line"),  # five_conic fails too
        (Q(5, 12), [], [tuple(range(3, 9))], "five_conic"),  # declared_conic fails too
    ])
    def test_bezout_reports_the_first_failing_curve(self, mult, collinear, conics, kind):
        # the family is tried in order: pair line, declared lines, five-point
        # conic, declared conics
        cfg = Configuration(range(9), collinear=collinear, conics=conics)
        report = in_E(PicardManinClass(1, {p: mult for p in range(9)}), cfg)
        assert report.bezout_witness.kind == kind

    def test_overweight_single_point(self):
        # a line with a double point is not effective even with one point around
        report = in_E(PicardManinClass(1, {1: 2}), Configuration.generic([1]))
        assert not report.bezout
        assert report.bezout_witness.kind == "pair_line"
        assert report.bezout_witness.points == (1,)


class TestSpecial:
    def test_generic_points_never_special(self):
        cfg = Configuration.generic(range(9))
        c = PicardManinClass(1, {0: Q(3, 5), 1: Q(3, 10), 2: Q(3, 10)})
        assert not is_special(c, cfg)

    def test_special_example(self):
        cfg = Configuration([0, (1, 0), (2, 0), 3])
        c = PicardManinClass(1, {0: Q(3, 5), 1: Q(3, 10), 2: Q(3, 10)})
        assert is_special(c, cfg)  # 1 - 12/10 < 0

    def test_balanced_not_special(self):
        cfg = Configuration([0, (1, 0), (2, 0)])
        c = PicardManinClass(1, {0: Q(3, 10), 1: Q(1, 5), 2: Q(1, 5)})
        assert not is_special(c, cfg)  # sum 7/10 < 1

    def test_small_support(self):
        cfg = Configuration([0, (1, 0)])
        assert not is_special(PicardManinClass(1, {0: Q(3, 5), 1: Q(3, 5)}), cfg)

    def test_unknown(self):
        with pytest.raises(UnknownPoint):
            is_special(PicardManinClass(1, {9: 1}), Configuration.generic(range(2)))


class TestHyperboloidPairs:
    def test_products_at_least_one(self):
        images = [apply(jonquieres_characteristic(k), line()) for k in range(2, 7)]
        images += [apply(standard_quadratic(), line()), line(), CONIC]
        for a in images:
            assert self_intersection(a) == 1
            for b in images:
                product = intersect(a, b)
                assert product >= 1
                assert (product == 1) == (a == b)

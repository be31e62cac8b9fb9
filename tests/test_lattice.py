import math
import re
from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from cremlat.bubble import Configuration
from cremlat.cremona import apply, jonquieres_characteristic, standard_quadratic
from cremlat.errors import (
    DegenerateSegment,
    InvalidPair,
    NotOnHyperboloid,
    UnknownPoint,
)
from cremlat.lattice import (
    PicardManinClass,
    distance,
    exceptional,
    geodesic_point,
    in_E,
    intersect,
    is_special,
    line,
    self_intersection,
)

CONIC = PicardManinClass(2, {1: 1, 2: 1, 3: 1})  # 2l - e1 - e2 - e3


def small_class(degree, *mults):
    return PicardManinClass(degree, dict(enumerate(mults)))


class TestClassArithmetic:
    def test_zero_mults_dropped(self):
        c = PicardManinClass(3, {0: 0, 1: 2})
        assert c.support == (1,)
        assert c.mult(0) == 0 and c.mult(1) == 2

    def test_coercion(self):
        c = PicardManinClass(1, {0: Q(1, 2)})
        assert isinstance(c.degree, Q) and isinstance(c.mult(0), Q)
        assert c.is_exact
        f = PicardManinClass(1.0, {0: 0.5})
        assert not f.is_exact

    def test_point_ids_are_integers(self):
        # int() used to read point 1.7 as point 1
        for bad in (1.7, Q(3, 2), True, "1"):
            message = re.escape(f"point id must be an integer, got {bad!r}")
            with pytest.raises(TypeError, match=f"^{message}$"):
                PicardManinClass(1, {bad: 1})
            with pytest.raises(TypeError, match=f"^{message}$"):
                CONIC.mult(bad)
        with pytest.raises(TypeError):
            PicardManinClass(1, {1.5: 0})  # checked even when the entry is dropped

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

    def test_not_on_hyperboloid(self):
        with pytest.raises(NotOnHyperboloid):
            distance(2 * line(), line())
        with pytest.raises(NotOnHyperboloid):
            distance(line(), exceptional(0))

    def test_invalid_pair(self):
        with pytest.raises(InvalidPair):
            distance(line(), -1 * line())


class TestGeodesic:
    def test_endpoints(self):
        g0 = geodesic_point(line(), CONIC, 0)
        g1 = geodesic_point(line(), CONIC, 1)
        assert g0.degree == 1.0 and g0.support == ()
        assert g1.degree == 2.0 and g1.mult(1) == 1.0

    def test_degenerate(self):
        with pytest.raises(DegenerateSegment):
            geodesic_point(line(), line(), 0.5)

    def test_midpoint(self):
        mid = geodesic_point(line(), CONIC, 0.5)
        assert self_intersection(mid) == pytest.approx(1.0, abs=1e-9)
        # equal distance to both endpoints, evaluated through the pairing
        d0 = math.acosh(intersect(mid, line()))
        d1 = math.acosh(intersect(mid, CONIC))
        assert d0 == pytest.approx(d1, abs=1e-9)
        assert d0 + d1 == pytest.approx(distance(line(), CONIC), abs=1e-9)

    def test_interpolation_law(self):
        big_d = distance(line(), CONIC)
        for t in (0.25, 0.5, 0.75):
            g = geodesic_point(line(), CONIC, t)
            assert intersect(g, line()) == pytest.approx(math.cosh(t * big_d), abs=1e-9)


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

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cremlat.cremona import Characteristic, validate
from cremlat.errors import IdentityTwist, NotInKPerp
from cremlat.halphen import (
    HalphenVector,
    TwistParam,
    canonical,
    generator_a1,
    generator_a2,
    line_vector,
    point_vector,
    translate,
    twist_characteristic,
    twist_degree,
)


def kperp_vectors():
    """Integer vectors pairing to zero with the canonical vector."""

    def build(head, tail):
        total = -3 * head - sum(tail)
        return HalphenVector((head, *tail, total))

    return st.builds(
        build,
        st.integers(-4, 4),
        st.lists(st.integers(-4, 4), min_size=8, max_size=8),
    )


def any_vectors():
    return st.builds(
        HalphenVector, st.lists(st.integers(-9, 9), min_size=10, max_size=10)
    )


class TestVectors:
    def test_construction(self):
        with pytest.raises(ValueError):
            HalphenVector((1, 2, 3))
        v = HalphenVector(range(10))
        assert v.coords == tuple(range(10))
        assert v.degree == 0
        assert v.multiplicities() == tuple(-i for i in range(1, 10))

    def test_non_integers_are_refused(self):
        # int() used to read 1.5 as 1 and Fraction(7, 2) as 3, and True as e_1
        for bad in (1.5, Fraction(7, 2), True):
            with pytest.raises(TypeError):
                HalphenVector((bad,) + (0,) * 9)
            with pytest.raises(TypeError):
                point_vector(bad)
            with pytest.raises(TypeError):  # True * line_vector() used to be the line
                bad * line_vector()

    def test_basis_pairings(self):
        l = line_vector()
        assert l.pair(l) == 1
        for i in range(9):
            e = point_vector(i)
            assert e.pair(e) == -1
            assert e.pair(l) == 0
        assert point_vector(0).pair(point_vector(8)) == 0
        with pytest.raises(ValueError):
            point_vector(9)

    def test_canonical(self):
        k = canonical()
        assert k.pair(k) == 0
        assert k.pair(line_vector()) == -3
        assert (point_vector(1) - point_vector(0)).pair(k) == 0

    def test_arithmetic(self):
        a = point_vector(1) - point_vector(0)
        assert (2 * a).coords[1] == -2
        assert (-a) + a == HalphenVector((0,) * 10)
        assert hash(a) == hash(point_vector(1) - point_vector(0))


class TestTwistParam:
    def test_accepts_generators(self):
        assert generator_a1().vector == point_vector(1) - point_vector(0)
        assert generator_a2().vector == point_vector(2) - point_vector(0)

    def test_rejects_outside_kperp(self):
        with pytest.raises(NotInKPerp):
            TwistParam(point_vector(1))
        with pytest.raises(NotInKPerp):
            TwistParam(line_vector())

    @given(kperp_vectors())
    def test_kperp_self_pairing_always_even(self, v):
        # a.a = n^2 - sum(c^2) = n + sum(c) = -2n (mod 2): the odd case is
        # unreachable for integer vectors of K-perp, so construction succeeds
        assert v.pair(canonical()) == 0
        assert v.pair(v) % 2 == 0
        TwistParam(v)

    @given(any_vectors())
    def test_accepts_exactly_kperp(self, v):
        # an odd self-pairing puts v outside K-perp (a.a = a.K mod 2), so it is refused too
        if v.pair(canonical()) == 0:
            assert TwistParam(v).vector == v
        else:
            with pytest.raises(NotInKPerp):
                TwistParam(v)
        if v.pair(v) % 2:
            with pytest.raises(NotInKPerp):
                TwistParam(v)


class TestTranslate:
    def test_fixes_canonical(self):
        k = canonical()
        for a in (generator_a1(), generator_a2()):
            assert translate(a, k) == k
            assert translate(a, -1 * k) == -1 * k

    def test_line_image(self):
        v = translate(generator_a1(), line_vector())
        assert v.coords == (10, -6, 0, -3, -3, -3, -3, -3, -3, -3)
        assert v.multiplicities() == (6, 0, 3, 3, 3, 3, 3, 3, 3)
        assert v.pair(v) == 1  # 100 - 36 - 63

    def test_accepts_raw_vectors(self):
        a = generator_a1().vector
        assert translate(a, line_vector()) == translate(generator_a1(), line_vector())

    @given(kperp_vectors(), any_vectors())
    def test_inverse(self, a, d):
        assert translate(TwistParam(-a), translate(TwistParam(a), d)) == d

    @given(kperp_vectors(), kperp_vectors(), any_vectors())
    def test_group_law(self, a, b, d):
        lhs = translate(TwistParam(a), translate(TwistParam(b), d))
        assert lhs == translate(TwistParam(a + b), d)

    @given(kperp_vectors(), any_vectors(), any_vectors())
    def test_isometry(self, a, d, e):
        ta = TwistParam(a)
        assert translate(ta, d).pair(translate(ta, e)) == d.pair(e)


def restated_twist(n, m):
    """The (n, m) twist read off t_a(l) on plain lists, a = n(e_1 - e_0) + m(e_2 - e_0):
    degree, then base and inverse multiplicities at points 0..8."""

    def pair(x, y):
        return x[0] * y[0] - sum(x[i] * y[i] for i in range(1, 10))

    canonical = [-3] + [1] * 9
    line = [1] + [0] * 9

    def translate(a):
        kd = pair(canonical, line)
        coefficient = pair(a, line) - kd * pair(a, a) // 2
        return [line[i] - kd * a[i] + coefficient * canonical[i] for i in range(10)]

    a = [0, -n - m, n, m, 0, 0, 0, 0, 0, 0]
    forward = translate(a)
    backward = translate([-x for x in a])
    return forward[0], [-c for c in backward[1:]], [-c for c in forward[1:]]


class TestTwists:
    def test_constants_are_shared(self):
        assert canonical() is canonical() and line_vector() is line_vector()
        assert generator_a1() is generator_a1() and generator_a2() is generator_a2()
        assert canonical().coords == (-3,) + (1,) * 9
        assert line_vector().coords == (1,) + (0,) * 9

    def test_characteristics_match_restatement(self):
        shells = [
            (n, m) for n in range(-12, 13) for m in range(-12, 13) if 1 <= abs(n) + abs(m) <= 12
        ]
        assert len(shells) == 2 * 12 * 13
        for n, m in shells:
            degree, base, inverse = restated_twist(n, m)
            expected = Characteristic(
                degree,
                base=[(i, mult) for i, mult in enumerate(base) if mult],
                inverse_base=[(i, mult) for i, mult in enumerate(inverse) if mult],
            )
            assert twist_characteristic(n, m) == expected, (n, m)
            assert twist_degree(n, m) == degree, (n, m)

    def test_degrees(self):
        assert twist_degree(0, 0) == 1
        assert twist_degree(1, 0) == 10
        assert twist_degree(0, 1) == 10
        assert twist_degree(-1, 0) == 10
        assert twist_degree(2, 3) == 172
        assert twist_degree(1, 1) == 28

    def test_degree_is_the_translate_of_the_line(self):
        a1, a2 = generator_a1().vector, generator_a2().vector
        for n in range(-7, 8):
            for m in range(-7, 8):
                image = translate(TwistParam(n * a1 + m * a2), line_vector())
                assert twist_degree(n, m) == image.degree == image.pair(line_vector()), (n, m)

    @given(st.integers(-12, 12), st.integers(-12, 12))
    def test_closed_form(self, n, m):
        assert twist_degree(n, m) == 9 * (n * n + m * m + n * m) + 1

    def test_identity_rejected(self):
        with pytest.raises(IdentityTwist):
            twist_characteristic(0, 0)

    def test_non_integers_are_refused(self):
        # int() used to read (1.5, 0) as the (1, 0) twist, and True is not 1
        for n, m in ((1.5, 0), (0, 2.0), (True, 0), (0, False)):
            with pytest.raises(TypeError):
                twist_characteristic(n, m)
            with pytest.raises(TypeError):  # twist_degree(True, 0) used to be 10
                twist_degree(n, m)

    def test_characteristic_1_0(self):
        c = twist_characteristic(1, 0)
        assert c.degree == 10
        assert c.inverse_multiplicities() == (6, 3, 3, 3, 3, 3, 3, 3)
        assert c.base_multiplicities() == (6, 3, 3, 3, 3, 3, 3, 3)
        assert 1 not in dict(c.inverse_base)  # zero entry dropped
        assert 0 not in dict(c.base)
        report = validate(c)
        assert report.ok  # 27 = 27 and 99 = 99 on both sides

    def test_characteristic_1_1(self):
        c = twist_characteristic(1, 1)
        assert c.degree == 28
        assert validate(c).ok
        assert c.base_multiplicities() == (12, 12, 9, 9, 9, 9, 9, 9, 3)
        assert c.inverse_multiplicities() == (15, 9, 9, 9, 9, 9, 9, 6, 6)

    @given(st.integers(-6, 6), st.integers(-6, 6))
    def test_characteristics_validate(self, n, m):
        if (n, m) == (0, 0):
            return
        c = twist_characteristic(n, m)
        assert c.degree == twist_degree(n, m)
        assert validate(c).ok

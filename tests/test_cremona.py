from fractions import Fraction as Q

import pytest
from hypothesis import given, strategies as st

from cremlat.cremona import (
    Characteristic,
    apply,
    compose_disjoint,
    identity_characteristic,
    inverse,
    is_jonquieres,
    jonquieres_characteristic,
    md,
    standard_quadratic,
    validate,
)
from cremlat.errors import (
    BasePointCollision,
    InvalidCharacteristic,
    MissingResolutionData,
    UnsupportedClassSupport,
)
from cremlat.lattice import PicardManinClass, intersect, line, self_intersection


def char(degree, mults, inverse_mults=None, resolution=None):
    base = [(i, m) for i, m in enumerate(mults)]
    inv = [(100 + i, m) for i, m in enumerate(inverse_mults or mults)]
    return Characteristic(degree, base=base, inverse_base=inv, resolution=resolution)


def tower(n):
    """n standard quadratics with pairwise disjoint base loci."""
    result = standard_quadratic(base_ids=(0, 1, 2), inverse_ids=(1000, 1001, 1002))
    for step in range(1, n):
        fresh = standard_quadratic(
            base_ids=range(3 * step, 3 * step + 3),
            inverse_ids=range(1000 + 3 * step, 1003 + 3 * step),
        )
        result = compose_disjoint(fresh, result)
    return result


class TestConstruction:
    def test_structural_errors(self):
        with pytest.raises(ValueError):
            Characteristic(0)
        with pytest.raises(ValueError):
            Characteristic(2, base=[(0, 1), (0, 1), (1, 1)])
        with pytest.raises(ValueError):
            Characteristic(2, base=[(0, 0)])
        with pytest.raises(ValueError):
            Characteristic(2, base=[(0, 1)], inverse_base=[(1, 1)], resolution=[[1, 1]])

    @pytest.mark.parametrize(
        "degree, side, message",
        [
            (2.0, {}, "degree must be an integer, got 2.0"),
            (True, {}, "degree must be an integer, got True"),
            (2, {"base": [(0, 1.5)]}, "base multiplicity must be an integer, got 1.5"),
            (2, {"base": [(1.9, 1)]}, "base point id must be an integer, got 1.9"),
            (2, {"inverse_base": [(0, True)]}, "inverse base multiplicity must be an integer, got True"),
            # Fraction(True) used to store the entry as 1
            (2, {"base": [(0, 1), (1, 1), (2, 1)], "inverse_base": [(3, 1), (4, 1), (5, 1)],
                 "resolution": [[True, "1/2", 0.5], [1, 0, 1], [1, 1, 0]]},
             "resolution entry must be a number, got True"),
        ],
    )
    def test_non_integers_are_refused(self, degree, side, message):
        # int() used to read 2.0 as 2, 1.5 and True as 1, and point 1.9 as point 1
        with pytest.raises(TypeError, match=f"^{message}$"):
            Characteristic(degree, **side)

    @pytest.mark.parametrize("entry, message", [
        ("1e4300", r"^too many digits in '1e4300': its numerator and denominator may have "),
        ("1e5000", r"^exponent out of range in '1e5000': its magnitude must be at most "),
    ], ids=["digits", "exponent"])
    def test_resolution_string_bounds(self, entry, message):
        # the same bounds as serialize.rational_from
        with pytest.raises(ValueError, match=message):
            Characteristic(2, base=[(0, 1), (1, 1), (2, 1)], inverse_base=[(3, 1), (4, 1), (5, 1)],
                           resolution=[[entry, 0, 0], [0, 0, 0], [0, 0, 0]])

    def test_accessors(self):
        c = char(3, (2, 1, 1, 1, 1))
        assert c.degree == 3
        assert c.base_ids() == (0, 1, 2, 3, 4)
        assert c.inverse_ids() == (100, 101, 102, 103, 104)
        assert c.base_multiplicities() == (2, 1, 1, 1, 1)
        assert c.inverse_multiplicities() == (2, 1, 1, 1, 1)

    def test_eq_hash(self):
        assert char(2, (1, 1, 1)) == char(2, (1, 1, 1))
        assert hash(char(2, (1, 1, 1))) == hash(char(2, (1, 1, 1)))
        assert char(2, (1, 1, 1)) != char(3, (2, 1, 1, 1, 1))


class TestValidate:
    def test_quadratic_ok(self):
        assert validate(char(2, (1, 1, 1))).ok

    def test_cubic_ok(self):
        assert validate(char(3, (2, 1, 1, 1, 1))).ok  # 6 = 6, 8 = 8

    def test_linear_violation(self):
        report = validate(char(2, (1, 1)))
        assert not report.ok
        assert any(v.identity == "linear" for v in report.violations)

    def test_bounds_violation(self):
        report = validate(char(3, (3, 1, 1, 1)))
        assert any(v.identity == "bounds" for v in report.violations)

    def test_degree_one_with_base(self):
        report = validate(Characteristic(1, base=[(0, 1)]))
        assert any(v.identity == "bounds" and "degree 1" in v.detail for v in report.violations)

    def test_sides_checked_independently(self):
        c = Characteristic(2, base=[(0, 1), (1, 1), (2, 1)], inverse_base=[(3, 1)])
        report = validate(c)
        assert not report.ok
        assert all(v.side == "inverse" for v in report.violations)


class TestJonquieres:
    def test_patterns(self):
        assert is_jonquieres(char(3, (2, 1, 1, 1, 1)))
        assert is_jonquieres(char(2, (1, 1, 1)))
        assert is_jonquieres(identity_characteristic())
        assert not is_jonquieres(char(5, (2, 2, 2, 2, 2, 2)))  # valid: 12 = 12, 24 = 24

    def test_invalid_input(self):
        with pytest.raises(InvalidCharacteristic):
            is_jonquieres(char(3, (1, 1)))

    @pytest.mark.parametrize(
        "degree, ids, message",
        [
            (2.7, {}, "degree must be an integer, got 2.7"),
            (2, {"base_ids": [0, 1, 2.5]}, "base point id must be an integer, got 2.5"),
            (2, {"inverse_ids": [True, 4, 5]}, "inverse point id must be an integer, got True"),
        ],
    )
    def test_jonquieres_refuses_non_integers(self, degree, ids, message):
        # int() used to read degree 2.7 as 2 and point 2.5 as point 2
        with pytest.raises(TypeError, match=f"^{message}$"):
            jonquieres_characteristic(degree, **ids)

    def test_md(self):
        assert md(char(2, (1, 1, 1))) == 1
        assert md(char(3, (2, 1, 1, 1, 1))) == 2
        assert md(jonquieres_characteristic(9)) == 2
        assert md(identity_characteristic()) == 0
        for n in range(1, 7):
            assert md(tower(n)) == n


class TestApply:
    def test_line_image(self):
        sigma = standard_quadratic()
        image = apply(sigma, line())
        assert image == PicardManinClass(2, {3: 1, 4: 1, 5: 1})

    def test_round_trip(self):
        for f in (standard_quadratic(), jonquieres_characteristic(4)):
            back = apply(f, apply(inverse(f), line()))
            assert back == line()

    def test_contracts_conic_side(self):
        sigma = standard_quadratic()
        conic = PicardManinClass(2, {0: 1, 1: 1, 2: 1})
        assert apply(sigma, conic) == line()

    def test_isometry(self):
        j = jonquieres_characteristic(5)
        probe_pairs = [
            (line(), PicardManinClass(2, {0: 1, 1: 1, 9: 1})),
            (PicardManinClass(3, {0: 2, 1: 1, 2: 1, 3: 1}), line()),
        ]
        image_map = {9: 50}
        for a, b in probe_pairs:
            fa = apply(j, a, image_map=image_map)
            fb = apply(j, b, image_map=image_map)
            assert intersect(fa, fb) == intersect(a, b)
            assert self_intersection(fa) == self_intersection(a)

    def test_missing_resolution(self):
        with pytest.raises(MissingResolutionData):
            apply(char(2, (1, 1, 1)), line())

    def test_missing_image(self):
        sigma = standard_quadratic()
        with pytest.raises(UnsupportedClassSupport):
            apply(sigma, PicardManinClass(1, {9: Q(1, 2)}))

    def test_image_collision(self):
        sigma = standard_quadratic()
        c = PicardManinClass(3, {8: 1, 9: 1})
        with pytest.raises(UnsupportedClassSupport):
            apply(sigma, c, image_map={8: 4, 9: 9})  # 4 is an inverse base id
        with pytest.raises(UnsupportedClassSupport):
            apply(sigma, c, image_map={8: 7, 9: 7})  # duplicate target

    def test_transport(self):
        sigma = standard_quadratic()
        c = PicardManinClass(3, {0: 1, 9: 1})
        image = apply(sigma, c, image_map={9: 20})
        # degree 3*2 - 1; q_i coefficient 3 - a[i][0]
        assert image.degree == 5
        assert image.mult(3) == 3  # a[0][0] = 0
        assert image.mult(4) == 2 and image.mult(5) == 2
        assert image.mult(20) == 1


class TestCompose:
    def test_two_quadratics(self):
        c = tower(2)
        assert c.degree == 4
        assert c.base_multiplicities() == (2, 2, 2, 1, 1, 1)
        assert validate(c).ok

    def test_tower_three(self):
        c = tower(3)
        assert c.degree == 8
        assert c.base_multiplicities() == (4, 4, 4, 2, 2, 2, 1, 1, 1)
        # 3(8-1) = 21 = 12 + 6 + 3 and 63 = 48 + 12 + 3
        assert sum(m for _, m in c.base) == 21
        assert sum(m * m for _, m in c.base) == 63
        assert validate(c).ok

    def test_identity_neutral(self):
        f = char(3, (2, 1, 1, 1, 1))
        e = identity_characteristic()
        assert compose_disjoint(e, f) == f
        assert compose_disjoint(f, e) == f

    def test_collision_rejected(self):
        f = standard_quadratic(base_ids=(0, 1, 2), inverse_ids=(3, 4, 5))
        g = standard_quadratic(base_ids=(3, 4, 5), inverse_ids=(6, 7, 8))
        with pytest.raises(BasePointCollision):
            compose_disjoint(g, f)

    def test_id_remap_is_deterministic(self):
        f = standard_quadratic(base_ids=(0, 1, 2), inverse_ids=(3, 4, 5))
        g = standard_quadratic(base_ids=(6, 7, 8), inverse_ids=(3, 4, 5))
        c = compose_disjoint(g, f)
        # inverse side: g's inverse points keep ids 3,4,5; f's collide and move
        assert c.inverse_base == ((3, 2), (4, 2), (5, 2), (9, 1), (10, 1), (11, 1))
        assert c.base == ((0, 2), (1, 2), (2, 2), (6, 1), (7, 1), (8, 1))

    @given(st.integers(2, 5), st.integers(2, 5))
    def test_degree_multiplies(self, a, b):
        f = jonquieres_characteristic(a, base_ids=range(100, 100 + 2 * a - 1),
                                      inverse_ids=range(200, 200 + 2 * a - 1))
        g = jonquieres_characteristic(b, base_ids=range(300, 300 + 2 * b - 1),
                                      inverse_ids=range(400, 400 + 2 * b - 1))
        c = compose_disjoint(g, f)
        assert c.degree == a * b
        assert validate(c).ok


class TestGenerators:
    def test_standard_quadratic(self):
        sigma = standard_quadratic()
        assert sigma.degree == 2
        assert validate(sigma).ok
        assert sigma.resolution == ((0, 1, 1), (1, 0, 1), (1, 1, 0))
        with pytest.raises(ValueError):
            standard_quadratic(base_ids=(0, 0, 1))

    def test_jonquieres(self):
        j = jonquieres_characteristic(4)
        assert j.degree == 4
        assert j.base_multiplicities() == (3, 1, 1, 1, 1, 1, 1)
        assert validate(j).ok and is_jonquieres(j)
        assert j.resolution[0][0] == 2
        with pytest.raises(ValueError):
            jonquieres_characteristic(1)
        with pytest.raises(ValueError):
            jonquieres_characteristic(3, base_ids=(0, 1))

    @given(st.integers(2, 9))
    def test_jonquieres_isometry(self, k):
        j = jonquieres_characteristic(k)
        image = apply(j, line())
        assert self_intersection(image) == 1
        assert intersect(line(), image) == k

import pytest
from hypothesis import given, strategies as st

from cremlat.cremona import (
    Characteristic,
    compose_disjoint,
    identity_characteristic,
    is_jonquieres,
    jonquieres_characteristic,
    side_violations,
    standard_quadratic,
    validate,
)
from cremlat.errors import InvalidCharacteristic, NoDecrease, TooManyBasePoints
from cremlat.halphen import twist_characteristic
from cremlat.length import (
    greedy_length,
    greedy_predecessor,
    length_lower_deg,
    length_lower_md,
)


def char(degree, mults):
    return Characteristic(
        degree,
        base=[(i, m) for i, m in enumerate(mults)],
        inverse_base=[(100 + i, m) for i, m in enumerate(mults)],
    )


def tower(n):
    result = standard_quadratic(base_ids=(0, 1, 2), inverse_ids=(1000, 1001, 1002))
    for step in range(1, n):
        fresh = standard_quadratic(
            base_ids=range(3 * step, 3 * step + 3),
            inverse_ids=range(1000 + 3 * step, 1003 + 3 * step),
        )
        result = compose_disjoint(fresh, result)
    return result


class TestLowerMd:
    def test_examples(self):
        assert length_lower_md(jonquieres_characteristic(5)) == 1  # md 2
        assert length_lower_md(char(2, (1, 1, 1))) == 1  # md 1
        assert length_lower_md(tower(3)) == 2  # md 3
        assert length_lower_md(tower(10)) == 3  # md 10 <= 14
        assert length_lower_md(identity_characteristic()) == 0

    def test_rejects_invalid(self):
        with pytest.raises(InvalidCharacteristic):
            length_lower_md(char(2, (1, 1)))


class TestLowerDeg:
    def test_small_degrees(self):
        for c in (char(2, (1, 1, 1)), char(3, (2, 1, 1, 1, 1)),
                  char(4, (2, 2, 2, 1, 1, 1)), char(5, (2, 2, 2, 2, 2, 2))):
            assert length_lower_deg(c) == 1
        assert length_lower_deg(identity_characteristic()) == 0

    def test_twists(self):
        assert length_lower_deg(twist_characteristic(1, 0)) == 2  # ceil(sqrt(2))
        assert length_lower_deg(twist_characteristic(2, 3)) == 6  # ceil(sqrt(34.4))

    def test_too_many_base_points(self):
        with pytest.raises(TooManyBasePoints):
            length_lower_deg(tower(4))  # 12 base points


class TestGreedyPredecessor:
    def test_jonquieres_collapses_in_one_step(self):
        j = jonquieres_characteristic(5)
        step = greedy_predecessor(j)
        assert step.degree == 1 and step.base == ()
        assert step.jonquieres.degree == 5
        assert step.jonquieres.base == j.base

    def test_two_tower(self):
        step = greedy_predecessor(char(4, (2, 2, 2, 1, 1, 1)))
        # quadratic on the three multiplicity-2 points, 8 - 2 - 4 = 2
        assert step.jonquieres.degree == 2
        assert step.jonquieres.base_ids() == (0, 1, 2)
        assert step.degree == 2
        # the factor's inverse points vanish; the untouched points keep their ids
        assert step.base == ((3, 1), (4, 1), (5, 1))

    def test_twist_1_0(self):
        step = greedy_predecessor(char(10, (6, 3, 3, 3, 3, 3, 3, 3)))
        # k = 4 centered on the 6: 40 - 18 - 18 = 4
        assert step.jonquieres.degree == 4
        assert step.jonquieres.base_ids()[0] == 0
        assert step.degree == 4
        # center image 10*3 - 2*6 - 18 = 0 and six small images 10 - 6 - 3 = 1
        # at the factor's fresh inverse ids; point 7 keeps its 3
        assert step.jonquieres.inverse_ids() == tuple(range(108, 115))
        assert step.base == tuple((q, 1) for q in range(109, 115)) + ((7, 3),)

    def test_degree_one_has_no_predecessor(self):
        with pytest.raises(NoDecrease):
            greedy_predecessor(identity_characteristic())

    def test_factor_and_leftover_are_valid(self):
        step = greedy_predecessor(twist_characteristic(2, 1))
        assert validate(step.jonquieres).ok
        assert is_jonquieres(step.jonquieres)
        assert side_violations(step.degree, "base", [m for _, m in step.base]) == ()


class TestGreedyLength:
    def test_identity(self):
        bounds = greedy_length(identity_characteristic())
        assert (bounds.lower_md, bounds.lower_deg, bounds.upper_greedy) == (0, 0, 0)
        assert bounds.decomposition == ()
        assert bounds.lower == 0

    def test_two_tower(self):
        bounds = greedy_length(char(4, (2, 2, 2, 1, 1, 1)))
        assert bounds.upper_greedy == 2
        assert not is_jonquieres(char(4, (2, 2, 2, 1, 1, 1)))  # so length is exactly 2
        assert [d for _, d in bounds.decomposition] == [2, 1]

    def test_twist_1_0(self):
        bounds = greedy_length(twist_characteristic(1, 0))
        assert bounds.lower_deg == 2
        assert 2 <= bounds.upper_greedy <= 3

    def test_twist_1_1(self):
        bounds = greedy_length(twist_characteristic(1, 1))
        assert [d for _, d in bounds.decomposition] == [19, 10, 4, 1]
        assert bounds.upper_greedy == 4
        assert bounds.lower == 3

    def test_wide_base_skips_degree_bound(self):
        bounds = greedy_length(tower(4))
        assert bounds.lower_deg is None
        assert bounds.lower == bounds.lower_md
        assert bounds.upper_greedy >= 1

    @given(st.integers(-4, 4), st.integers(-4, 4))
    def test_bounds_order_on_twists(self, n, m):
        if (n, m) == (0, 0):
            return
        bounds = greedy_length(twist_characteristic(n, m))
        assert bounds.upper_greedy >= bounds.lower >= 1
        degrees = [d for _, d in bounds.decomposition]
        assert degrees[-1] == 1
        assert all(a > b for a, b in zip(degrees, degrees[1:]))
        assert all(k >= 2 for k, _ in bounds.decomposition)

    @given(st.integers(1, 8))
    def test_towers_decrease(self, n):
        bounds = greedy_length(tower(n))
        degrees = [tower(n).degree] + [d for _, d in bounds.decomposition]
        assert all(a > b for a, b in zip(degrees, degrees[1:]))
        assert degrees[-1] == 1

import pytest
from hypothesis import given, strategies as st

from cremlat import cremona, length
from cremlat.cremona import (
    Characteristic,
    compose_disjoint,
    identity_characteristic,
    is_jonquieres,
    jonquieres_characteristic,
    require_valid,
    side_violations,
    standard_quadratic,
)
from cremlat.errors import InvalidCharacteristic, NoDecrease, TooManyBasePoints
from cremlat.halphen import twist_characteristic
from cremlat.length import (
    GreedyStep,
    LengthBounds,
    _greedy_step,
    _steps_left,
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
        assert greedy_predecessor(jonquieres_characteristic(5)) == GreedyStep(5, 1, ())

    def test_two_tower(self):
        # quadratic on the three multiplicity-2 points, 8 - 2 - 4 = 2; the
        # factor's inverse points vanish and the untouched 1s are left
        assert greedy_predecessor(char(4, (2, 2, 2, 1, 1, 1))) == GreedyStep(2, 2, (1, 1, 1))

    def test_twist_1_0(self):
        # k = 4 centered on the 6: 40 - 18 - 18 = 4; center image
        # 10*3 - 2*6 - 18 = 0, six small images 10 - 6 - 3 = 1, one 3 untouched
        step = greedy_predecessor(char(10, (6, 3, 3, 3, 3, 3, 3, 3)))
        assert step == GreedyStep(4, 4, (3, 1, 1, 1, 1, 1, 1))

    def test_degree_one_has_no_predecessor(self):
        with pytest.raises(NoDecrease):
            greedy_predecessor(identity_characteristic())

    def test_factor_and_leftover_are_valid(self):
        step = greedy_predecessor(twist_characteristic(2, 1))
        assert step.k >= 2  # a pencil-preserving factor
        assert side_violations(step.degree, "base", step.mults) == ()


class TestGreedyLength:
    def test_identity(self):
        bounds = greedy_length(identity_characteristic())
        assert (bounds.lower_md, bounds.lower_deg, bounds.upper_greedy) == (0, 0, 0)
        assert bounds.decomposition == ()
        assert bounds.lower == 0

    def test_upper_is_read_off_the_decomposition(self):
        with pytest.raises(TypeError):
            LengthBounds(lower_md=0, lower_deg=0, upper_greedy=5, decomposition=())
        bounds = LengthBounds(lower_md=1, lower_deg=1, decomposition=((2, 2), (2, 1)))
        assert bounds.upper_greedy == 2

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


def slice_sum_step(d, mults):
    """The greedy step with every candidate's small points re-summed from a
    slice: the reference for the running sum in _greedy_step."""
    if d < 2:
        raise NoDecrease("degree 1 has no predecessor")
    center, rest = mults[0], mults[1:]
    best = None
    for k in range(2, 2 + (len(mults) - 1) // 2):
        new_degree = d * k - (k - 1) * center - sum(rest[: 2 * k - 2])
        if best is None or new_degree < best[1]:
            best = (k, new_degree)
    if best is None or best[1] >= d:
        raise NoDecrease(f"no factor drops the degree below {d}")
    k, new_degree = best
    smalls = rest[: 2 * k - 2]
    leftover = (
        (d * (k - 1) - (k - 2) * center - sum(smalls),)
        + tuple(d - center - m for m in smalls)
        + tuple(rest[2 * k - 2 :])
    )
    leftover = tuple(sorted((m for m in leftover if m), reverse=True))
    violations = side_violations(new_degree, "base", leftover)
    if violations:
        raise InvalidCharacteristic("; ".join(map(str, violations)))
    return GreedyStep(k, new_degree, leftover)


def composed_jonquieres(degrees):
    """The disjoint composition of pencil-preserving maps of the given degrees."""
    result = identity_characteristic()
    for i, k in enumerate(degrees):
        factor = jonquieres_characteristic(
            k,
            base_ids=range(100 * i, 100 * i + 2 * k - 1),
            inverse_ids=range(100 * i + 50, 100 * i + 49 + 2 * k),
        )
        result = compose_disjoint(factor, result)
    return result


valid_characteristics = st.one_of(
    st.tuples(st.integers(-6, 6), st.integers(-6, 6))
    .filter(lambda nm: nm != (0, 0))
    .map(lambda nm: twist_characteristic(*nm)),
    st.lists(st.integers(2, 7), min_size=1, max_size=3).map(composed_jonquieres),
    st.integers(1, 6).map(tower),
)


class TestGreedyStep:
    @given(valid_characteristics)
    def test_running_sum_matches_slice_sums(self, c):
        require_valid(c)
        degree, mults = c.degree, list(c.base_multiplicities())
        while degree > 1:  # every multiset along the chain is valid and descending
            step = _greedy_step(degree, mults)
            assert step == slice_sum_step(degree, mults)
            _, degree, mults = step

    @given(valid_characteristics)
    def test_chained_steps_are_the_decomposition(self, c):
        degree, mults, steps = c.degree, c.base_multiplicities(), []
        while degree > 1:
            steps.append(_greedy_step(degree, mults))
            _, degree, mults = steps[-1]
        assert tuple((k, d) for k, d, _ in steps) == greedy_length(c).decomposition
        assert greedy_predecessor(c) == steps[0]  # every such c has degree > 1

    def test_wide_candidate_range(self):
        # 9 points allow k = 2..5; a 3-factor composition allows more
        c = composed_jonquieres([5, 4, 3])
        mults = c.base_multiplicities()
        assert (len(mults) - 1) // 2 >= 5
        assert _greedy_step(c.degree, mults) == slice_sum_step(c.degree, mults)


def test_greedy_length_validates_once(monkeypatch):
    calls = []

    def counted(char):
        calls.append(char)
        return require_valid(char)

    monkeypatch.setattr(length, "require_valid", counted)
    monkeypatch.setattr(cremona, "require_valid", counted)  # md() looks it up here
    for c in (twist_characteristic(2, -3), tower(4), identity_characteristic()):
        calls.clear()
        greedy_length(c)
        assert calls == [c]


class TestStepMemo:
    """``_steps_left`` counts a greedy walk through a dict its caller owns."""

    def test_counts_and_records_the_walk(self):
        c = twist_characteristic(2, -3)
        memo = {}
        left = _steps_left(c.degree, c.base_multiplicities(), memo)
        assert left == greedy_length(c).upper_greedy
        degree, mults = c.degree, c.base_multiplicities()
        for expected in range(left, 0, -1):  # every state of the walk, with its own count
            assert memo.pop((degree, mults)) == expected
            _, degree, mults = _greedy_step(degree, mults)
        assert memo == {} and degree == 1
        assert _steps_left(1, (), memo) == 0 and memo == {}  # degree 1 is never stepped

    @pytest.mark.parametrize(
        "state, error",
        [
            ((2, (1, 1, 1, 1)), InvalidCharacteristic),
            ((3, (1,) * 6), NoDecrease),
            ((11, (5, 5, 5, 3, 3, 3, 3, 3)), InvalidCharacteristic),  # its second step fails
        ],
    )
    def test_raising_state_raises_again(self, state, error):
        memo = {(10, (3, 3)): 7}
        for _ in range(3):  # a walk that raises records none of its states
            with pytest.raises(error):
                _steps_left(*state, memo)
            assert memo == {(10, (3, 3)): 7}

    def test_results_do_not_depend_on_call_order(self):
        from cremlat.hypgraph import flat_growth

        chars = [twist_characteristic(n, m) for n in range(-4, 5) for m in range(-4, 5) if n or m]
        chars += [tower(5), composed_jonquieres([5, 4, 3]), identity_characteristic()]
        forward = [greedy_length(c) for c in chars]
        assert [greedy_length(c) for c in reversed(chars)] == forward[::-1]
        assert flat_growth(12) == flat_growth(12)

    def test_flat_growth_steps_each_state_once(self, monkeypatch):
        from cremlat.hypgraph import flat_growth

        states = []

        def counted(d, mults):
            states.append((d, mults))
            return _greedy_step(d, mults)

        monkeypatch.setattr(length, "_greedy_step", counted)
        flat_growth(80)
        assert len(states) == len(set(states)) == 8160  # ~1.27 k^2 states for 2 k^2 rows

    def test_flat_growth_rows_match_greedy_length(self):
        from cremlat.hypgraph import flat_growth

        for row in flat_growth(20).rows[1:]:
            c = twist_characteristic(row.n, row.m)
            bounds = greedy_length(c)
            assert (row.degree, row.lower, row.upper) == (c.degree, bounds.lower_deg, bounds.upper_greedy), row

import re

import pytest
from hypothesis import given, strategies as st

from cremlat.bubble import Configuration, almost_general_position, is_adherent
from cremlat.errors import UnknownPoint


def chain_config():
    # 0 proper, 1 above 0, 2 above 1, plus proper 3..5
    return Configuration([0, (1, 0), (2, 1), 3, 4, 5])


class TestConfiguration:
    def test_generic(self):
        cfg = Configuration.generic(range(4))
        assert cfg.point_ids == (0, 1, 2, 3)
        assert cfg.proper_points() == (0, 1, 2, 3)
        assert cfg.collinear_sets == frozenset()
        assert cfg.conic_sets == frozenset()

    def test_membership_and_require(self):
        cfg = Configuration.generic([3, 7])
        assert 3 in cfg and 7 in cfg and 5 not in cfg
        cfg.require(3)
        with pytest.raises(UnknownPoint):
            cfg.require(5)

    def test_parents_children(self):
        cfg = chain_config()
        assert cfg.parent(0) is None
        assert cfg.parent(1) == 0
        assert cfg.parent(2) == 1
        assert cfg.children(0) == (1,)
        assert cfg.children(1) == (2,)
        assert cfg.children(2) == ()
        assert cfg.is_proper(0) and not cfg.is_proper(1)
        assert cfg.proper_points() == (0, 3, 4, 5)
        assert cfg.ancestors(2) == (1, 0)
        assert cfg.ancestors(0) == ()

    def test_duplicate_id(self):
        with pytest.raises(ValueError):
            Configuration([0, 0])

    def test_unknown_parent(self):
        with pytest.raises(UnknownPoint):
            Configuration([(1, 0)])

    def test_cycle(self):
        with pytest.raises(ValueError):
            Configuration([(0, 1), (1, 0)])

    def test_incidence_sizes(self):
        with pytest.raises(ValueError):
            Configuration(range(6), collinear=[(0, 1)])
        with pytest.raises(ValueError):
            Configuration(range(6), conics=[(0, 1, 2, 3, 4)])
        Configuration(range(6), collinear=[(0, 1, 2)], conics=[(0, 1, 2, 3, 4, 5)])

    def test_incidence_unknown_points(self):
        with pytest.raises(UnknownPoint):
            Configuration(range(3), collinear=[(0, 1, 9)])
        with pytest.raises(UnknownPoint):
            Configuration(range(6), conics=[(0, 1, 2, 3, 4, 9)])

    def test_point_and_parent_not_collinear(self):
        with pytest.raises(ValueError):
            Configuration([0, (1, 0), 2], collinear=[(0, 1, 2)])

    @pytest.mark.parametrize(
        "points, sets, message",
        [
            ([1.5], {}, "point id must be an integer, got 1.5"),
            ([(2, True)], {}, "parent of point 2 must be an integer, got True"),
            ([0, (2, 0.0)], {}, "parent of point 2 must be an integer, got 0.0"),
            (range(3), {"collinear": [(0, 1, 2.0)]}, "collinear point id must be an integer, got 2.0"),
            (range(6), {"conics": [(0, 1, 2, 3, 4, "5")]}, "conic point id must be an integer, got '5'"),
        ],
    )
    def test_non_integers_are_refused(self, points, sets, message):
        # int() used to read point 1.5 as point 1 and parent True as point 1
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            Configuration(points, **sets)


class TestAdherent:
    def test_proper_pair(self):
        cfg = chain_config()
        assert not is_adherent(3, 0, cfg)

    def test_direct_parent(self):
        cfg = chain_config()
        assert is_adherent(1, 0, cfg)
        assert not is_adherent(0, 1, cfg)

    def test_grandchild_is_not_adherent(self):
        cfg = chain_config()
        assert is_adherent(2, 1, cfg)
        assert not is_adherent(2, 0, cfg)

    def test_unknown(self):
        cfg = chain_config()
        with pytest.raises(UnknownPoint):
            is_adherent(9, 0, cfg)


class TestAlmostGeneralPosition:
    def test_generic_nine(self):
        cfg = Configuration.generic(range(9))
        assert almost_general_position(range(9), cfg)

    def test_four_collinear(self):
        cfg = Configuration(range(9), collinear=[(0, 1, 2, 3)])
        assert not almost_general_position(range(9), cfg)
        # only three of the collinear set selected: fine
        assert almost_general_position([0, 1, 2, 4, 5], cfg)

    def test_seven_on_conic(self):
        cfg = Configuration(range(9), conics=[tuple(range(7))])
        assert not almost_general_position(range(9), cfg)
        assert almost_general_position(range(6), cfg)

    def test_two_children(self):
        cfg = Configuration([0, (1, 0), (2, 0), 3])
        assert not almost_general_position([0, 1, 2], cfg)
        assert almost_general_position([0, 1, 3], cfg)

    def test_ancestor_chain_must_be_inside(self):
        cfg = chain_config()
        assert almost_general_position([0, 1, 2], cfg)
        assert not almost_general_position([1, 2], cfg)
        assert not almost_general_position([2, 0], cfg)

    def test_unknown_member(self):
        cfg = Configuration.generic(range(3))
        with pytest.raises(UnknownPoint):
            almost_general_position([0, 9], cfg)

    def test_non_integer_member(self):
        # int() used to read 1.5 as point 1
        with pytest.raises(TypeError, match="^point id must be an integer, got 1.5$"):
            almost_general_position([0, 1.5], Configuration.generic(range(3)))

    @given(st.sets(st.integers(0, 19), max_size=12))
    def test_any_subset_of_generic_points_qualifies(self, points):
        cfg = Configuration.generic(range(20))
        assert almost_general_position(points, cfg)

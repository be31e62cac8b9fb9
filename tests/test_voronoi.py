import pytest

from cremlat import cremona, voronoi
from cremlat.bubble import Configuration
from cremlat.cremona import Characteristic, compose_disjoint, require_valid, standard_quadratic
from cremlat.errors import (
    IndexOutOfRange,
    InvalidCharacteristic,
    NotOnHyperboloid,
    UnknownPoint,
    WrongArity,
)
from cremlat.halphen import (
    canonical,
    generator_a1,
    generator_a2,
    translate,
    twist_characteristic,
)
from cremlat.lattice import (
    PicardManinClass,
    exceptional,
    intersect,
    line,
    self_intersection,
)
from cremlat.voronoi import (
    GENERAL_ADJACENT,
    JONQUIERES_ADJACENT,
    QUASI_ADJACENT_ONLY,
    UNCLASSIFIED,
    GermSet,
    boundary_class,
    cell_member,
    classify_germ,
)

CONIC = PicardManinClass(2, {1: 1, 2: 1, 3: 1})


def char(degree, mults):
    base = tuple((i, m) for i, m in enumerate(mults))
    inverse = tuple((100 + i, m) for i, m in enumerate(mults))
    return Characteristic(degree, base, inverse)


def tower(n):
    """Compose n quadratics with pairwise disjoint base triples."""
    result = standard_quadratic(base_ids=(0, 1, 2), inverse_ids=(1000, 1001, 1002))
    for step in range(1, n):
        nxt = standard_quadratic(
            base_ids=(3 * step, 3 * step + 1, 3 * step + 2),
            inverse_ids=(1000 + 3 * step, 1001 + 3 * step, 1002 + 3 * step),
        )
        result = compose_disjoint(nxt, result)
    return result


def two_germs():
    return GermSet([("identity", line()), ("sigma", CONIC)])


class TestGermSet:
    def test_rejects_off_hyperboloid(self):
        with pytest.raises(NotOnHyperboloid):
            GermSet([("bad", 2 * line())])
        with pytest.raises(NotOnHyperboloid):
            GermSet([("bad", exceptional(0))])

    def test_rejects_lower_sheet(self):
        # self-intersection 1, but on the sheet of negative degree
        for label, cls in (("neg", -1 * line()), ("sigma", -1 * CONIC)):
            message = f"^germ '{label}' has degree -\\d+, off the upper sheet$"
            with pytest.raises(NotOnHyperboloid, match=message):
                GermSet([("identity", line()), (label, cls)])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            GermSet([("a", line()), ("a", CONIC)])

    def test_accessors(self):
        germs = two_germs()
        assert len(germs) == 2
        assert germs.labels == ("identity", "sigma")
        assert germs[1] == CONIC


class TestCellMember:
    def test_centers_sit_in_their_own_cells(self):
        germs = two_germs()
        assert cell_member(line(), 0, germs)
        assert not cell_member(line(), 1, germs)
        assert cell_member(CONIC, 1, germs)
        assert not cell_member(CONIC, 0, germs)

    def test_wall_representative_in_both_cells(self):
        # 3l - e1 - e2 - e3 pairs to 3 with both germs: a point of the wall,
        # kept rational by skipping hyperboloid normalization
        germs = two_germs()
        mid = PicardManinClass(3, {1: 1, 2: 1, 3: 1})
        assert self_intersection(mid) == 6
        assert cell_member(mid, 0, germs)
        assert cell_member(mid, 1, germs)

    def test_scaling_invariance(self):
        germs = two_germs()
        mid = PicardManinClass(3, {1: 1, 2: 1, 3: 1})
        assert cell_member(3 * mid, 0, germs)
        assert cell_member(3 * mid, 1, germs)

    def test_index_out_of_range(self):
        germs = two_germs()
        for idx in (-1, 2):
            with pytest.raises(IndexOutOfRange):
                cell_member(line(), idx, germs)
        with pytest.raises(IndexError):  # doubles as the stdlib category
            cell_member(line(), 5, germs)
        # True used to answer for germ 1
        with pytest.raises(TypeError, match="^germ index must be an integer, got True$"):
            cell_member(line(), True, germs)

    def test_needs_positive_self_intersection(self):
        germs = two_germs()
        with pytest.raises(NotOnHyperboloid):
            cell_member(exceptional(0), 0, germs)
        with pytest.raises(NotOnHyperboloid):
            cell_member(boundary_class(range(9)), 0, germs)

    def test_refuses_lower_sheet(self):
        # -(2g + h) pairs negatively with both germs, so the smallest pairing
        # would put it in h's cell, the farthest from its antipode 2g + h
        g = line()
        h = cremona.apply(standard_quadratic(), g)
        germs = GermSet([("g", g), ("h", h)])
        c = 2 * g + h
        assert cell_member(c, 0, germs) and not cell_member(c, 1, germs)
        for idx in (0, 1):
            message = "^membership needs a class of positive degree, got -4$"
            with pytest.raises(NotOnHyperboloid, match=message):
                cell_member(-1 * c, idx, germs)


class TestClassifyGerm:
    def test_jonquieres(self):
        cfg = Configuration.generic(range(12))
        assert classify_germ(char(3, (2, 1, 1, 1, 1)), cfg) == JONQUIERES_ADJACENT

    def test_pencil_preserving_wins_over_geometry(self):
        # collinear base points do not matter once the map keeps the pencil
        cfg = Configuration(range(3), collinear=[(0, 1, 2)])
        assert classify_germ(char(2, (1, 1, 1)), cfg) == JONQUIERES_ADJACENT

    def test_general_small_base(self):
        cfg = Configuration.generic(range(12))
        assert classify_germ(char(5, (2,) * 6), cfg) == GENERAL_ADJACENT

    def test_general_eight_points(self):
        cfg = Configuration.generic(range(9))
        assert classify_germ(twist_characteristic(1, 0), cfg) == GENERAL_ADJACENT

    def test_quasi_nine_points(self):
        cfg = Configuration.generic(range(9))
        assert classify_germ(twist_characteristic(1, 1), cfg) == QUASI_ADJACENT_ONLY

    def test_collinear_base_unclassified(self):
        cfg = Configuration(range(6), collinear=[(0, 1, 2, 3)])
        assert classify_germ(char(5, (2,) * 6), cfg) == UNCLASSIFIED

    def test_many_base_points_unclassified(self):
        big = tower(4)
        assert len(big.base_ids()) == 12
        cfg = Configuration.generic(big.base_ids())
        assert classify_germ(big, cfg) == UNCLASSIFIED

    def test_unknown_base_point(self):
        with pytest.raises(UnknownPoint):
            classify_germ(char(2, (1, 1, 1)), Configuration.generic([0, 1]))

    def test_invalid_characteristic(self):
        with pytest.raises(InvalidCharacteristic):
            classify_germ(char(2, (1, 1)), Configuration.generic(range(3)))

    def test_invalid_before_unknown_point(self):
        # the CLI exits 2 on the first and 1 on the second; both faults here
        with pytest.raises(InvalidCharacteristic):
            classify_germ(char(2, (1, 1)), Configuration.generic([5]))

    def test_validates_once(self, monkeypatch):
        calls = []

        def counted(c):
            calls.append(c)
            return require_valid(c)

        monkeypatch.setattr(voronoi, "require_valid", counted, raising=False)  # a direct call counts
        monkeypatch.setattr(cremona, "require_valid", counted)  # is_jonquieres looks it up here
        cfg = Configuration.generic(range(12))
        for c in (char(3, (2, 1, 1, 1, 1)), char(5, (2,) * 6), twist_characteristic(1, 0)):
            calls.clear()
            classify_germ(c, cfg)
            assert calls == [c]


class TestBoundaryClass:
    def test_arity(self):
        with pytest.raises(WrongArity):
            boundary_class(range(8))
        with pytest.raises(WrongArity):
            boundary_class([0, 0, 1, 2, 3, 4, 5, 6, 7])

    def test_non_integer_ids(self):
        # int() used to read 8.5 as point 8
        with pytest.raises(TypeError, match="^point id must be an integer, got 8.5$"):
            boundary_class([0, 1, 2, 3, 4, 5, 6, 7, 8.5])

    def test_pairings(self):
        s = boundary_class(range(9))
        assert self_intersection(s) == 0
        assert intersect(s, line()) == 3

    def test_matches_negated_canonical_vector(self):
        s = boundary_class(range(9))
        neg = -canonical()
        assert s.degree == neg.degree
        assert tuple(s.mult(i) for i in range(9)) == neg.multiplicities()

    def test_translations_fix_the_boundary(self):
        k = canonical()
        a1, a2 = generator_a1(), generator_a2()
        params = [a1, a2, a1.vector + a2.vector, 3 * a1.vector - 2 * a2.vector, -a1.vector]
        for a in params:
            assert translate(a, k) == k
            assert translate(a, -k) == -k

import math
import random
import tracemalloc
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings, strategies as st

from cremlat import cli, hypgraph
from cremlat.errors import MalformedFamily
from cremlat.halphen import twist_characteristic
from cremlat.hypgraph import (
    BowditchResult,
    FiniteMetric,
    FlatCertificate,
    FlatRow,
    FlatTable,
    Graph,
    SubgraphFamily,
    _delta_py,
    bowditch_check,
    complete_graph,
    cycle_graph,
    delta_backend,
    flat_certificate,
    flat_growth,
    four_point_delta,
    geodesic_family,
    grid_graph,
    path_graph,
    staircase_family,
)


CYCLE4 = [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]


def star_matrix(n, rng, denominator=1):
    """Perturbed star distances: a guaranteed metric with rational entries."""
    weights = [rng.randint(50, 100) for _ in range(n)]
    matrix = [[Q(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = Q(weights[i] + weights[j] - rng.randint(0, 40), denominator)
            matrix[i][j] = matrix[j][i] = d
    return matrix


def star_metric(n, rng, denominator=1):
    return FiniteMetric(star_matrix(n, rng, denominator))


def quadruple_defect(d):
    """Brute-force oracle for max_defect: every quadruple's three pair-sums."""
    n = len(d)
    best = 0
    for i in range(n - 3):
        for j in range(i + 1, n - 2):
            for k in range(j + 1, n - 1):
                for l in range(k + 1, n):
                    sums = sorted((d[i][j] + d[k][l], d[i][k] + d[j][l], d[i][l] + d[j][k]))
                    best = max(best, sums[2] - sums[1])
    return best


@st.composite
def graph_metrics(draw):
    """Shortest-path distances of a connected graph with edge lengths 1..3.

    Short integer lengths make ties between pair-sums common.
    """
    n = draw(st.integers(0, 10))
    far = 10 * n
    d = [[0 if i == j else far for j in range(n)] for i in range(n)]
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]  # a spanning tree
    if n:
        point = st.integers(0, n - 1)
        edges += draw(st.lists(st.tuples(point, point), max_size=2 * n))
    for a, b in edges:
        if a != b:
            d[a][b] = d[b][a] = min(d[a][b], draw(st.integers(1, 3)))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                d[i][j] = min(d[i][j], d[i][k] + d[k][j])
    return d


def first_triangle_violation(matrix):
    """Brute-force restatement over Fractions: the first bad (i, j), row-major."""
    n = len(matrix)
    for i in range(n):
        for j in range(n):
            if any(matrix[i][j] > matrix[i][k] + matrix[k][j] for k in range(n)):
                return i, j
    return None


class TestGraph:
    def test_construction_errors(self):
        with pytest.raises(ValueError):
            Graph([0, 0], [])
        with pytest.raises(ValueError):
            Graph([0, 1], [(0, 2)])
        with pytest.raises(ValueError):
            Graph([0, 1], [(0, 0)])
        # True used to build a 1-vertex graph (cycle_graph: "loop at 0")
        for build, args in ((path_graph, (True,)), (cycle_graph, (True,)),
                            (complete_graph, (True,)), (grid_graph, (True, 2))):
            with pytest.raises(TypeError, match=r"^(n|rows) must be an integer, got True$"):
                build(*args)
        with pytest.raises(TypeError, match=r"^cols must be an integer, got 2\.0$"):
            grid_graph(2, 2.0)
        # negative sizes used to give the empty graph, and cycle_graph(1) failed with "loop at 0"
        for build, args, message in (
            (path_graph, (-3,), "n must be at least 0, got -3"),
            (complete_graph, (-1,), "n must be at least 0, got -1"),
            (grid_graph, (-2, 3), "rows must be at least 0, got -2"),
            (grid_graph, (3, -1), "cols must be at least 0, got -1"),
            (cycle_graph, (1,), "n must be at least 3, got 1"),
            (cycle_graph, (2,), "n must be at least 3, got 2"),
            (cycle_graph, (-4,), "n must be at least 3, got -4"),
        ):
            with pytest.raises(ValueError, match=f"^{message}$"):
                build(*args)
        assert path_graph(0).vertices == complete_graph(0).vertices == grid_graph(0, 3).vertices == ()
        assert cycle_graph(3).neighbors(0) == (1, 2)

    def test_neighbors_sorted_by_index(self):
        g = Graph([3, 1, 2], [(2, 3), (2, 1)])
        assert g.neighbors(2) == (3, 1)  # vertex order, not value order

    def test_distances(self):
        g = path_graph(5)
        assert g.bfs_distances(0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}
        assert g.is_connected()
        assert not Graph([0, 1], []).is_connected()

    def test_induced_connected(self):
        g = path_graph(5)
        assert g.induced_connected({1, 2, 3})
        assert not g.induced_connected({0, 2})
        assert not g.induced_connected(set())

    def test_builders(self):
        assert len(cycle_graph(4).vertices) == 4
        assert len(complete_graph(5).vertices) == 5
        g = grid_graph(3, 4)
        assert len(g.vertices) == 12
        assert g.bfs_distances((0, 0))[(2, 3)] == 5


class TestFiniteMetric:
    def test_validation(self):
        with pytest.raises(ValueError, match=r"^matrix must be square$"):
            FiniteMetric([[0, 1]])
        with pytest.raises(ValueError, match=r"^diagonal entry at 0 is nonzero$"):
            FiniteMetric([[1, 1], [1, 0]])
        with pytest.raises(ValueError, match=r"^asymmetry at \(0, 1\)$"):
            FiniteMetric([[0, 1], [2, 0]])
        with pytest.raises(ValueError, match=r"^nonpositive distance at \(0, 1\)$"):
            FiniteMetric([[0, 0], [0, 0]])
        with pytest.raises(ValueError, match=r"^nonpositive distance at \(0, 1\)$"):
            FiniteMetric([[0, -(2**70)], [-(2**70), 0]])  # past int64, still a clean refusal
        with pytest.raises(ValueError, match=r"^triangle inequality fails between 0 and 2$"):
            FiniteMetric([[0, 1, 5], [1, 0, 1], [5, 1, 0]])

    def test_bools_are_refused(self):
        # Fraction(True) would read it as distance 1
        with pytest.raises(TypeError, match=r"^distance must be a number, got True$"):
            FiniteMetric([[0, True, 2], [True, 0, 1], [2, 1, 0]])

    def test_unreadable_string_message_is_cut(self):
        # Fraction's own message would echo all 100 000 characters
        with pytest.raises(ValueError, match=r"^distance must be a number, got 'xxx") as info:
            FiniteMetric([[0, "x" * 100000], [1, 0]])
        assert len(str(info.value)) < 120

    def test_numerators_and_denominators(self):
        # the form metric_from_csv hands over: unreduced pairs, one unit for all
        metric = FiniteMetric([[0, 2, 6], [-2, 0, 3], [6, 3, 0]],
                              denominators=[[1, 4, 3], [-4, 1, 2], [3, 2, 1]])
        assert metric.matrix == FiniteMetric([[0, Q(1, 2), 2], [Q(1, 2), 0, Q(3, 2)],
                                              [2, Q(3, 2), 0]]).matrix
        assert metric._unit == Q(1, 2) and metric._ints.tolist() == [[0, 1, 4], [1, 0, 3], [4, 3, 0]]
        with pytest.raises(ValueError, match="^zero denominator$"):
            FiniteMetric([[0, 1], [1, 0]], denominators=[[1, 0], [1, 1]])
        with pytest.raises(ValueError, match="^matrix must be square$"):
            FiniteMetric([[0, 1], [1, 0]], denominators=[[1, 1]])

    def test_triangle_check_big_values(self):
        big = 2**63
        with pytest.raises(ValueError):
            FiniteMetric([[0, big, 1], [big, 0, big - 2], [1, big - 2, 0]])
        FiniteMetric([[0, big, 1], [big, 0, big], [1, big, 0]])

    # factor 1 checks int16 arrays.  Factor 2**62 with 1 added to every
    # distance checks object arrays: on three points or more no common factor
    # divides these entries back into int64 (on two, one distance is its own
    # gcd).  The added 1 keeps each triangle's verdict, as a broken triangle
    # misses by at least 2**62 / 6 before it
    @pytest.mark.parametrize("factor", [1, 2**62])
    def test_triangle_check_matches_brute_force(self, factor):
        rng = random.Random(f"triangle:{factor}")
        offset = 0 if factor == 1 else 1
        accepted = rejected = 0
        for _ in range(300):
            n = rng.randint(1, 7)
            low = rng.randint(1, 6)  # entries in [6, 12] always satisfy the law
            matrix = [[Q(0)] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    d = Q(rng.randint(low, 12), rng.choice((1, 1, 2, 3))) * factor + offset
                    matrix[i][j] = matrix[j][i] = d
            nums = [[x.numerator for x in row] for row in matrix]
            dens = [[x.denominator for x in row] for row in matrix]
            dtype = "object" if factor > 1 and n >= 3 else "int16"
            assert _delta_py.scaled_array(nums, dens)[0].dtype == dtype
            bad = first_triangle_violation(matrix)
            if bad is None:
                assert FiniteMetric(matrix).matrix == tuple(map(tuple, matrix))
                accepted += 1
            else:
                message = "^triangle inequality fails between %d and %d$" % bad
                with pytest.raises(ValueError, match=message):
                    FiniteMetric(matrix)
                rejected += 1
        assert accepted >= 50 and rejected >= 50

    def test_triangle_check_memory_is_quadratic(self):
        # the n^3 int64 cube this check replaced needed over 1.7 GB here
        matrix = star_matrix(600, random.Random(600))
        tracemalloc.start()
        try:
            FiniteMetric(matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    def test_labels(self):
        m = FiniteMetric([[0, 1], [1, 0]], labels=["a", "b"])
        assert m.distance("a", "b") == 1
        with pytest.raises(KeyError):
            m.distance("a", "z")
        with pytest.raises(ValueError):
            FiniteMetric([[0, 1], [1, 0]], labels=["a", "a"])

    def test_from_graph(self):
        m = FiniteMetric.from_graph(cycle_graph(6))
        assert m.size == 6
        assert m.distance(0, 3) == 3
        with pytest.raises(ValueError):
            FiniteMetric.from_graph(Graph([0, 1], []))

    def test_rational_entries(self):
        m = FiniteMetric([[0, Q(1, 2)], [Q(1, 2), 0]])
        assert m.matrix[0][1] == Q(1, 2)


class TestFourPointDelta:
    def test_paths_are_trees(self):
        for n in (2, 5, 12):
            assert four_point_delta(FiniteMetric.from_graph(path_graph(n))) == 0

    def test_four_cycle(self):
        assert four_point_delta(FiniteMetric.from_graph(cycle_graph(4))) == 1

    def test_grid(self):
        for n in (3, 4):
            metric = FiniteMetric.from_graph(grid_graph(n, n))
            assert four_point_delta(metric) >= n - 1

    def test_rational_scaling(self):
        base = FiniteMetric.from_graph(cycle_graph(4))
        scaled = FiniteMetric([[x / 3 for x in row] for row in base.matrix])
        assert four_point_delta(scaled) == Q(1, 3)

    def test_small_metrics(self):
        assert four_point_delta(FiniteMetric([[0, 1], [1, 0]])) == 0

    def test_backend_reported(self):
        assert delta_backend() == "pure-python"

    # with offset 1, factors 2**13 and 2**14, 2**29 and 2**30, 2**60 and 2**61
    # straddle the int16, int32 and int64 edges of the metric array (2 * peak
    # within the dtype's maximum); with offset 0 the common factor is divided
    # out.  Adding one offset to every off-diagonal distance keeps the
    # triangle law and makes the entries odd
    @settings(max_examples=300, deadline=None)
    @given(
        graph_metrics(),
        st.sampled_from([1, 2**13, 2**14, 2**29, 2**30, 2**60, 2**61, 2**70]),
        st.sampled_from([0, 1]),
    )
    @example(CYCLE4, 2**60 - 1, 0)  # largest entry 2**61 - 2: still int64
    @example(CYCLE4, 2**60, 0)  # largest entry 2**61: the factor 2**60 divides out
    @example(CYCLE4, 2**60, 1)  # largest entry 2**61 + 1: still int64
    @example(CYCLE4, 2**61, 1)  # largest entry 2**62 + 1: object
    def test_kernel_matches_quadruple_oracle(self, d, factor, offset):
        scaled = [[x * factor + offset if x else 0 for x in row] for row in d]
        assert _delta_py.max_defect(scaled) == quadruple_defect(scaled)

    def test_kernel_memory_is_quadratic(self):
        import numpy  # noqa: F401  (its import is not the kernel's memory)

        # a star's own array is int16; times 2**40 plus 1 (still a metric, gcd 1)
        # it is int64, where a block sized by m instead of m^2 would take 16 MB
        star = star_metric(128, random.Random(128))._ints.tolist()
        ints = [[x * 2**40 + 1 if x else 0 for x in row] for row in star]
        assert FiniteMetric(ints)._ints.dtype == "int64"
        tracemalloc.start()
        try:
            _delta_py.max_defect(ints)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    @settings(max_examples=20, deadline=None)
    @given(st.integers(4, 10), st.integers(0, 2**32 - 1))
    def test_relabeling_invariance(self, n, seed):
        rng = random.Random(seed)
        metric = star_metric(n, rng)
        perm = list(range(n))
        rng.shuffle(perm)
        permuted = FiniteMetric(
            [[metric.matrix[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        )
        assert four_point_delta(permuted) == four_point_delta(metric)

    # a primitive array's largest entry on either side of each dtype edge
    # (2 * peak <= iinfo.max), and past the int64 range
    @pytest.mark.parametrize(
        "peak, dtype",
        [(2**14 - 1, "int16"), (2**14, "int32"), (2**30 - 1, "int32"), (2**30, "int64"),
         (2**62 - 1, "int64"), (2**62, "object"), (2**63, "object")],
        ids=["2**14-1", "2**14", "2**30-1", "2**30", "2**62-1", "2**62", "2**63"],
    )
    def test_huge_values_use_fallback(self, peak, dtype):
        # a 4-cycle with its longest distance at the peak and coprime sides
        # summing to it, so the entries have gcd 1; then a broken triangle
        short = (peak - 1) // 2
        long = peak - short
        assert math.gcd(short, long) == 1
        d = [[0, short, peak, long], [short, 0, long, peak],
             [peak, long, 0, short], [long, peak, short, 0]]
        metric = FiniteMetric(d)
        assert metric._ints.dtype == dtype
        assert metric._unit == 1
        assert first_triangle_violation(d) is None
        assert four_point_delta(metric) == Q(quadruple_defect(d), 2)
        bad = [[0, peak, 1], [peak, 0, peak - 2], [1, peak - 2, 0]]
        assert first_triangle_violation(bad) == (0, 1)
        with pytest.raises(ValueError, match="^triangle inequality fails between 0 and 1$"):
            FiniteMetric(bad)

    @pytest.mark.parametrize("n", [24, 96])
    def test_common_factor_keeps_the_dtype(self, n):
        # the unit absorbs a common factor: a star times 2**70 is scanned in
        # the star's own dtype, not on the object path
        star = star_matrix(n, random.Random(n), denominator=3)
        metric = FiniteMetric(star)
        big = FiniteMetric([[x * 2**70 for x in row] for row in star])
        assert big._ints.dtype == metric._ints.dtype == "int16"
        assert four_point_delta(big) == 2**70 * four_point_delta(metric)
        assert big.matrix == tuple(tuple(x * 2**70 for x in row) for row in star)


class TestSubgraphFamily:
    def test_bad_pair(self):
        with pytest.raises(ValueError):
            SubgraphFamily({(0, 0): {0}})

    def test_missing_member(self):
        family = SubgraphFamily({(0, 1): {0, 1}})
        assert family.member(1, 0) == frozenset({0, 1})
        with pytest.raises(MalformedFamily):
            family.member(0, 2)

    def test_geodesic_family_paths(self):
        g = path_graph(4)
        family = geodesic_family(g)
        assert family.member(0, 3) == frozenset({0, 1, 2, 3})
        assert family.member(1, 2) == frozenset({1, 2})

    def test_staircase_family(self):
        g = grid_graph(3, 3)
        family = staircase_family(g)
        assert family.member((0, 0), (2, 2)) == frozenset(
            {(0, 0), (1, 0), (1, 1), (2, 1), (2, 2)}
        )


class TestBowditch:
    def test_tree_passes(self):
        tree = Graph(range(7), [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
        result = bowditch_check(tree, geodesic_family(tree), 1)
        assert result.passed and result.condition is None

    def test_k5_edge_family_passes(self):
        k5 = complete_graph(5)
        members = {(x, y): {x, y} for x in range(5) for y in range(x + 1, 5)}
        result = bowditch_check(k5, SubgraphFamily(members), 1)
        assert result.passed

    def test_grid_staircases_fail_condition_2(self):
        g = grid_graph(8, 8)
        result = bowditch_check(g, staircase_family(g), 1)
        assert not result.passed
        assert result.condition == 2
        x, y, z, v = result.witness
        # verify the witness directly: v lies in Gamma(x,y) but past the
        # 1-neighborhood of both comparison sides
        family = staircase_family(g)
        assert v in family.member(x, y)
        dists = g.bfs_distances(v)
        others = family.member(x, z) | family.member(y, z)
        assert all(dists[w] > 1 for w in others)

    def test_condition_3(self):
        g = path_graph(5)
        everything = frozenset(range(5))
        members = {(x, y): everything for x in range(5) for y in range(x + 1, 5)}
        result = bowditch_check(g, SubgraphFamily(members), 1)
        assert not result.passed
        assert result.condition == 3

    def test_verdict_is_read_off_the_condition(self):
        with pytest.raises(TypeError):
            BowditchResult(passed=True, condition=2)
        assert not BowditchResult(condition=2).passed
        assert BowditchResult().passed

    def test_malformed_families(self):
        g = path_graph(4)
        base = {(x, y): set(range(min(x, y), max(x, y) + 1)) for x in range(4) for y in range(x + 1, 4)}

        missing = dict(base)
        del missing[(0, 3)]
        with pytest.raises(MalformedFamily):
            bowditch_check(g, SubgraphFamily(missing), 1)

        no_endpoint = dict(base)
        no_endpoint[(0, 3)] = {0, 1, 2}
        with pytest.raises(MalformedFamily):
            bowditch_check(g, SubgraphFamily(no_endpoint), 1)

        disconnected = dict(base)
        disconnected[(0, 3)] = {0, 3}
        with pytest.raises(MalformedFamily):
            bowditch_check(g, SubgraphFamily(disconnected), 1)

        unknown = dict(base)
        unknown[(0, 3)] = {0, 1, 2, 3, 9}
        with pytest.raises(MalformedFamily):
            bowditch_check(g, SubgraphFamily(unknown), 1)


class TestFlatGrowth:
    def test_rows(self):
        table = flat_growth(2)
        by_key = {(r.m, r.n): r for r in table.rows}
        assert by_key[(0, 0)] == FlatRow(m=0, n=0, degree=1, lower=0, upper=0)
        assert by_key[(1, 0)].degree == 10 and by_key[(1, 0)].lower == 2
        assert by_key[(-1, 1)].degree == 10
        assert by_key[(1, 1)].degree == 28
        assert len(table.rows) == 1 + 4 + 8

    def test_row_count(self):
        assert len(flat_growth(5).rows) == 1 + 2 * 5 * 6

    def test_kmax_validation(self):
        with pytest.raises(ValueError):
            flat_growth(0)
        with pytest.raises(ValueError):
            flat_certificate(0)
        # True used to give the k_max = 1 table and certificate
        with pytest.raises(TypeError, match=r"^k_max must be an integer, got True$"):
            flat_growth(True)
        with pytest.raises(TypeError, match=r"^k_max must be an integer, got True$"):
            flat_certificate(True)

    def test_cli_builds_each_twist_once(self, monkeypatch, capsys):
        # the table certifies itself: no second sweep through flat_certificate
        calls = []

        def counted(n, m):
            calls.append((n, m))
            return twist_characteristic(n, m)

        def refused(k_max):
            raise AssertionError("flat-growth must not call flat_certificate")

        monkeypatch.setattr(hypgraph, "twist_characteristic", counted)
        monkeypatch.setattr(hypgraph, "flat_certificate", refused)
        monkeypatch.setattr(cli, "flat_certificate", refused, raising=False)  # a re-import
        assert cli.main(["flat-growth", "--kmax", "5"]) == 0
        assert capsys.readouterr().out.endswith("# certificate: PASS\n")
        assert len(calls) == 2 * 5 * 6 == len(set(calls))

    def test_table_against_closed_forms(self):
        # pinned without the greedy code: the upper side of the quasi-flat
        # (at most 2k, from the four k = 1 twists of length 2 and t_a o t_b = t_{a+b})
        # and the least degree on each sphere
        spheres = {}
        for row in flat_growth(20).rows[1:]:
            spheres.setdefault(abs(row.m) + abs(row.n), []).append(row)
        assert sorted(spheres) == list(range(1, 21))
        for k, rows in spheres.items():
            assert all(row.upper <= 2 * k for row in rows), k
            top = max(row.degree for row in rows)
            assert top == 9 * k * k + 1
            assert [row.upper for row in rows if row.degree == top] == [2 * k] * 4, k
            least = 9 * (k * k - 3 * (k // 2) * ((k + 1) // 2)) + 1
            assert min(row.degree for row in rows) == least, k

    def test_records(self):
        # the verdict is read off the minima and the certificate off the rows,
        # so no record can contradict its own data
        with pytest.raises(TypeError):
            FlatCertificate(passed=True, failing_k=3, minima=())
        with pytest.raises(TypeError):
            FlatCertificate(failing_k=3, minima=((3, 1),))
        with pytest.raises(TypeError):
            FlatTable(k_max=1, rows=(), certificate=FlatCertificate(()))
        cert = FlatCertificate(minima=((1, 2), (3, 1), (4, 1)))
        assert cert.failing_k == 3 and not cert.passed
        assert FlatCertificate(minima=((3, 1),)).failing_k == 3
        assert repr(FlatRow(1, 0, 10, 2, 2)) == "FlatRow(m=1, n=0, degree=10, lower=2, upper=2)"

    def test_certificate(self):
        cert = flat_certificate(10)
        assert cert.passed and cert.failing_k is None
        minima = dict(cert.minima)
        assert minima[1] == 2
        assert minima[2] == 2

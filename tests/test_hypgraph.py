import math
import random
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction as Q
from itertools import compress

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cremlat import _delta_py, cli, halphen, hypgraph
from cremlat._exact import rational_row
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


# a star metric on which the pure scan's best rises twice in its first row
STAR5 = [[0, 153, 170, 135, 136], [153, 0, 163, 135, 139], [170, 163, 0, 140, 125],
         [135, 135, 140, 0, 130], [136, 139, 125, 130, 0]]
CYCLE4 = [[0, 1, 2, 1], [1, 0, 1, 2], [2, 1, 0, 1], [1, 2, 1, 0]]
CHORD4 = [[0, 1, 1, 1], [1, 0, 1, 2], [1, 1, 0, 1], [1, 2, 1, 0]]  # a 4-cycle and one diagonal
PATH36 = [[abs(i - j) for j in range(36)] for i in range(36)]


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


def tree_matrix(n, rng):
    """Distances of a random tree with edge lengths 1..20: every defect is 0."""
    d = [[0]]
    for v in range(1, n):
        length = rng.randint(1, 20)
        row = [x + length for x in d[rng.randrange(v)]]
        for u, x in enumerate(row):
            d[u].append(x)
        d.append(row + [0])
    return d


def chord_tree_matrix(n, rng, chords):
    """Distances of a random tree with edge lengths 1..20 plus ``chords``
    unit-length edges between random pairs: a near-tree."""
    d = tree_matrix(n, rng)
    for _ in range(chords):
        a, b = rng.sample(range(n), 2)
        d[a][b] = d[b][a] = 1
        # a shortest path uses the new edge at most once
        d = [[min(x, row[a] + 1 + d[b][j], row[b] + 1 + d[a][j]) for j, x in enumerate(row)] for row in d]
    return d


def euclid_matrix(n, rng):
    """Euclidean distances between distinct integer points, rounded up, exactly:
    the ceiling of a sum is at most the sum of the ceilings, so this is a metric."""
    points = rng.sample([(x, y) for x in range(100) for y in range(100)], n)
    return [[math.isqrt((x - u) ** 2 + (y - v) ** 2 - 1) + 1 if (x, y) != (u, v) else 0
             for u, v in points] for x, y in points]


def band_matrix(n, rng, low):
    """Random distances in [low, 2 low]: any two sum to at least a third."""
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = rng.randint(low, 2 * low)
    return d


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
def graph_metrics(draw, max_size=10):
    """Shortest-path distances of a connected graph with edge lengths 1..3.

    Short integer lengths make ties between pair-sums common.
    """
    n = draw(st.integers(0, max_size))
    far = 10 * n
    d = [[0 if i == j else far for j in range(n)] for i in range(n)]
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)]  # a spanning tree
    if n:
        point = st.integers(0, n - 1)
        edges += draw(st.lists(st.tuples(point, point), max_size=2 * n))
    for a, b in edges:
        if a != b:
            d[a][b] = d[b][a] = min(d[a][b], draw(st.integers(1, 3)))
    for k in range(n):  # Floyd-Warshall, one row at a time
        through = d[k]
        d = [[min(x, row[k] + y) for x, y in zip(row, through)] for row in d]
    return d


@st.composite
def tree_metrics(draw, max_size=14):
    """A tree with edge lengths 1..20 plus up to two unit chords: a tree or a
    near-tree, where the best defect from the first basepoint is 0 or small."""
    n = draw(st.integers(4, max_size))
    seed = draw(st.integers(0, 2**32 - 1))
    return chord_tree_matrix(n, random.Random(seed), draw(st.integers(0, 2)))


@st.composite
def near_tree_metrics(draw, max_size=12):
    """A tree with edge lengths 1..5 plus 1-10 chords of length 1..5, as
    shortest paths: a near-tree, with its peak under 64 so that it scales to
    either side of every byte edge."""
    n = draw(st.integers(4, max_size))
    d = [[0]]
    for v in range(1, n):
        length = draw(st.integers(1, 5))
        row = [x + length for x in d[draw(st.integers(0, v - 1))]]
        for u, x in enumerate(row):
            d[u].append(x)
        d.append(row + [0])
    for _ in range(draw(st.integers(1, 10))):
        a = draw(st.integers(0, n - 1))
        b = (a + draw(st.integers(1, n - 1))) % n
        length = draw(st.integers(1, 5))
        # a shortest path uses the new edge at most once
        d = [[min(x, row[a] + length + d[b][j], row[b] + length + d[a][j]) for j, x in enumerate(row)]
             for row in d]
    return d


@st.composite
def band_metrics(draw, max_size=14):
    """Distances in [low, 2 low]: any two sum to at least a third."""
    n = draw(st.integers(4, max_size))
    return band_matrix(n, random.Random(draw(st.integers(0, 2**32 - 1))), draw(st.sampled_from([1, 3, 100])))


def first_basepoint_defect(d):
    """D0: the largest score min(P[x, z], P[y, z]) - P[x, y] over the triples
    of the other points seen from point 0, by brute force (0 for a repeated
    point, x = y = z)."""
    n = len(d)
    p = [[d[x][0] + d[y][0] - d[x][y] for y in range(n)] for x in range(n)]
    return max((min(p[x][z], p[y][z]) - p[x][y] for x in range(1, n) for y in range(1, n)
                for z in range(1, n) if len({x, y, z}) == 3), default=0)


@st.composite
def star_metrics(draw, max_size=12):
    """d(i, j) = w_i + w_j - e_ij with w in [50, 100] and e in [0, 40], as
    ``star_matrix`` draws them: few ties, so the best score seen often rises
    more than once along one row of the scan."""
    n = draw(st.integers(4, max_size))
    weights = draw(st.lists(st.integers(50, 100), min_size=n, max_size=n))
    d = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d[i][j] = d[j][i] = weights[i] + weights[j] - draw(st.integers(0, 40))
    return d


def parts(matrix):
    """The numerators and denominators of a matrix of Fractions."""
    return [[x.numerator for x in row] for row in matrix], [[x.denominator for x in row] for row in matrix]


def int64_defect(d):
    """A second oracle for max_defect, fast enough past 40 points: every
    basepoint's doubled Gromov products P in int64, every triple of later
    points, and no stop at twice the first basepoint's best.  Exact while
    twice the peak entry fits int64."""
    a = np.array(d, dtype=np.int64)
    best = 0
    for w in range(len(a) - 3):
        r = a[w, w + 1 :]
        p = r[:, None] + r - a[w + 1 :, w + 1 :]
        for px in p:
            # max over z of min(P[x, z], P[y, z]) - P[x, y], over every y
            best = max(best, int((np.minimum(px, p).max(axis=1) - px).max()))
    return best


def fits_int64(d):
    return 2 * max(map(max, d), default=0) <= 2**63 - 1


def first_triangle_violation(matrix):
    """Brute-force restatement over Fractions: the first bad (i, j), row-major."""
    n = len(matrix)
    for i in range(n):
        for j in range(n):
            if any(matrix[i][j] > matrix[i][k] + matrix[k][j] for k in range(n)):
                return i, j
    return None


def first_fault(d):
    """Brute-force restatement of the checks' message on a matrix labelled 0..n-1,
    or None for a metric: each axiom in turn, each at its first bad pair, row-major."""
    n = len(d)
    for i in range(n):
        if d[i][i]:
            return f"diagonal entry at {i} is nonzero"
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for what, bad in (("asymmetry", lambda i, j: d[i][j] != d[j][i]),
                      ("nonpositive distance", lambda i, j: d[i][j] <= 0)):
        for i, j in pairs:
            if bad(i, j):
                return f"{what} at ({i}, {j})"
    bad = first_triangle_violation(d)
    return None if bad is None else "triangle inequality fails between %d and %d" % bad


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

    def test_string_entries_keep_the_digit_bound(self):
        # read by exact_rational, as a CSV cell is: "1e5000" would be a 16 610-bit
        # distance, and "1e999999999" a ~415 MB one, were the exponent unbounded
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        with pytest.raises(ValueError, match=f"^exponent out of range in '1e5000': its "
                                             f"magnitude must be at most {limit}$"):
            FiniteMetric([[0, "1e5000"], ["1e5000", 0]])
        with pytest.raises(ValueError, match=r"^too many digits in '1e4300': "):
            FiniteMetric([[0, "1e4300"], ["1e4300", 0]])
        assert FiniteMetric([[0, "1.5e2"], ["150", 0]]).distance(0, 1) == 150

    def test_infinite_and_decimal_entries(self):
        # Fraction(inf) raises OverflowError, which used to escape as it was;
        # now every float is refused, as a class coefficient is
        with pytest.raises(TypeError, match=r"^distance must be exact, got inf$"):
            FiniteMetric([[0, float("inf")], [float("inf"), 0]])
        # a Decimal is read through its string, so it keeps the string bounds:
        # Decimal("1e5000") used to store a 16 610-bit distance
        with pytest.raises(ValueError, match=r"^exponent out of range in '1E\+5000': "):
            FiniteMetric([[0, Decimal("1e5000")], [Decimal("1e5000"), 0]])
        with pytest.raises(ValueError, match=r"^distance must be a number, got 'Infinity'$"):
            FiniteMetric([[0, Decimal("Infinity")], [1, 0]])
        assert FiniteMetric([[0, Decimal("1.50")], [Q(3, 2), 0]]).distance(0, 1) == Q(3, 2)

    def test_numerators_and_denominators(self):
        # rows of strings, as metric_from_csv hands them over: the reader keeps
        # the unreduced pairs, and the metric takes one unit for all
        rows = [["0", "2/4", "6/3"], ["2/4", "0", "3/2"], ["6/3", "3/2", "0"]]
        assert rational_row(rows[0], "distance") == ([0, 2, 6], [1, 4, 3])
        metric = FiniteMetric(rows)
        assert metric.matrix == FiniteMetric([[0, Q(1, 2), 2], [Q(1, 2), 0, Q(3, 2)],
                                              [2, Q(3, 2), 0]]).matrix
        assert metric._unit == Q(1, 2) and metric._ints == [[0, 1, 4], [1, 0, 3], [4, 3, 0]]
        numerators, denominators = zip(*(rational_row(row, "distance") for row in rows))
        assert _delta_py.scaled_rows(numerators, denominators) == (metric._ints, Q(1, 2))
        for zero in ([[0, "1/0"], ["1/0", 0]], [["0", "1/0"], ["1/0", "0"]]):
            with pytest.raises(ValueError, match="^zero denominator: '1/0'$"):
                FiniteMetric(zero)
        with pytest.raises(ValueError, match="^matrix must be square$"):
            FiniteMetric([[0, 1], [1]])

    @settings(max_examples=50, deadline=None)
    @given(matrix=star_metrics(max_size=8), denominator=st.integers(1, 12))
    def test_string_rows_and_row_generators_read_as_fractions(self, matrix, denominator):
        fractions = [[Q(x, denominator) for x in row] for row in matrix]
        strings = [[f"{x}/{denominator}" for x in row] for row in matrix]  # unreduced
        want = FiniteMetric(fractions)
        for rows in (strings, (iter(row) for row in strings), (row for row in fractions)):
            got = FiniteMetric(rows)
            assert (got.matrix, got._ints, got._unit) == (want.matrix, want._ints, want._unit)

    def test_triangle_check_big_values(self):
        big = 2**63
        with pytest.raises(ValueError):
            FiniteMetric([[0, big, 1], [big, 0, big - 2], [1, big - 2, 0]])
        FiniteMetric([[0, big, 1], [big, 0, big], [1, big, 0]])

    def test_triangle_check_across_field_widths(self):
        # the check on rows sums two rows packed into fixed-width fields.  A
        # path 0-1-2-3 with a point 4 at t from all: the pair (0, 3) is tested,
        # and its two-step path through 4, 2 t against a side of 3, fills its
        # field most; t sits at each edge of a byte of field width
        for t in (2, 63, 64, 127, 128, 2**14 - 1, 2**14, 2**15, 2**62, 2**70):
            good = [[abs(i - j) if i < 4 > j else t for j in range(5)] for i in range(5)]
            for i in range(5):
                good[i][i] = 0
            assert first_fault(good) is None
            _delta_py.check_rows(good, range(5))
            good[0][3] = good[3][0] = 4  # longer than 0-1-3
            assert first_fault(good) == "triangle inequality fails between 0 and 3"
            with pytest.raises(ValueError, match="^triangle inequality fails between 0 and 3$"):
                _delta_py.check_rows(good, range(5))

    # FiniteMetric checks these small matrices on Python int rows.  Factor
    # 2**62 with 1 added to every distance puts the entries past int64: on
    # three points or more no common factor divides them back into it (on
    # two, one distance is its own gcd).  The added 1 keeps each triangle's
    # verdict, as a broken triangle misses by at least 2**62 / 6 before it
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
            ints, _ = _delta_py.scaled_rows(*parts(matrix))
            assert fits_int64(ints) == (factor == 1 or n < 3)
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

    # with offset 1, factors 2**13 to 2**70 spread the entries over 2- to
    # 10-byte fields of the packed rows, and 2**61 and 2**70 take twice the
    # peak past int64; with offset 0 the common factor is divided out.
    # Adding one offset to every off-diagonal distance keeps the triangle law
    # and makes the entries odd
    @settings(max_examples=300, deadline=None)
    @given(
        graph_metrics(),
        st.sampled_from([1, 2**13, 2**14, 2**29, 2**30, 2**60, 2**61, 2**70]),
        st.sampled_from([0, 1]),
    )
    @example(CYCLE4, 2**60 - 1, 0)  # largest entry 2**61 - 2: 8-byte fields
    @example(CYCLE4, 2**60, 0)  # largest entry 2**61: the factor 2**60 divides out
    @example(CYCLE4, 2**60, 1)  # largest entry 2**61 + 1: 8-byte fields
    @example(CYCLE4, 2**61, 1)  # largest entry 2**62 + 1: 9-byte fields
    @example(CHORD4, 1, 0)  # defect 1, the smallest a scan can miss
    def test_kernel_matches_quadruple_oracle(self, d, factor, offset):
        scaled = [[x * factor + offset if x else 0 for x in row] for row in d]
        assert _delta_py.max_defect(scaled) == quadruple_defect(scaled)

    # the scan tests a pair on packed rows of Gromov products, each field's top
    # bit above twice the peak, as _packed sets it for the triangle check.
    # Scaled to a peak of 2**(8k - 2) - 1, twice the peak is just under the
    # byte edge 2**(8k - 1), where a product near twice the peak leaves one
    # bit to spare; at 2**(8k - 2) it is just over, where the field gains a
    # byte.  Adding one offset to every off-diagonal distance keeps the
    # triangle law
    @settings(max_examples=300, deadline=None)
    @given(near_tree_metrics(), st.integers(1, 10), st.sampled_from(["under", "over", "2**70+1"]))
    def test_pair_test_at_field_width_edges(self, d, k, side):
        peak = max(map(max, d))
        if side == "2**70+1":
            factor, offset = 2**70 + 1, 1
        else:
            top = 2 ** (8 * k - 2) - (side == "under")
            factor, offset = divmod(top, peak)
        scaled = [[x * factor + offset if x else 0 for x in row] for row in d]
        assert _delta_py.max_defect(scaled) == quadruple_defect(scaled)

    # the pure scan takes every row maximum of P at once, as one fieldwise
    # maximum of packed rows: each field holds its top bit plus a value below
    # it, here 1-, 2- and 9-11-byte fields with ties, zeros and the largest
    # value a field holds, and a single row
    @pytest.mark.parametrize("size", [1, 2, 9, 10, 11])
    def test_field_max_is_the_plain_fieldwise_max(self, size):
        rng = random.Random(size)
        bit = 1 << (8 * size - 1)
        guard = int.from_bytes((bytes(size - 1) + b"\x80") * 7, "little")

        def pack(values):
            return sum((bit + v) << (8 * size * k) for k, v in enumerate(values))

        for count in (1, 2, 3, 8):
            for _ in range(50):
                pool = [0, 1, bit - 1, rng.randrange(bit), rng.randrange(bit)]
                rows = [[rng.choice(pool) for _ in range(7)] for _ in range(count)]
                want = pack(map(max, zip(*rows)))
                assert _delta_py._field_max([pack(row) for row in rows], guard) == want

    # at every basepoint, starting from the oracle's best so that no pair
    # hits, the scan tests exactly the pairs x < y of later points whose
    # P[x, y] + best + 1 is at most M[x] and M[y], M[x] being the largest
    # P[x, z] over z != x: the pairs the row bound keeps
    @pytest.mark.parametrize("factor, offset", [(1, 0), (2**70 + 1, 1)], ids=["1", "2**70+1"])
    def test_pure_scan_tests_exactly_the_bounded_pairs(self, monkeypatch, factor, offset):
        seen = []

        def spy(data, selectors):
            kept = list(compress(data, selectors))
            seen.extend((data.start - 1, y) for y in kept)  # data starts at x + 1
            return kept

        monkeypatch.setattr(_delta_py, "compress", spy)
        total = 0
        for d in (star_matrix(14, random.Random(14)), chord_tree_matrix(16, random.Random(16), 2),
                  chord_tree_matrix(16, random.Random(17), 6), euclid_matrix(14, random.Random(14)),
                  tree_matrix(14, random.Random(14)), [row[:12] for row in PATH36[:12]]):
            d = [[int(x) * factor + offset if x else 0 for x in row] for row in d]
            best = quadruple_defect(d)
            packed = _delta_py._packed(d)
            for w in range(len(d) - 3):
                r = d[w][w + 1 :]
                p = [[r[x] + r[y] - d[w + 1 + x][w + 1 + y] for y in range(len(r))] for x in range(len(r))]
                tops = [max(row[:x] + row[x + 1 :]) for x, row in enumerate(p)]
                want = [(x, y) for x in range(len(r)) for y in range(x + 1, len(r))
                        if p[x][y] + best + 1 <= min(tops[x], tops[y])]
                seen.clear()
                assert _delta_py._rows_from(d, w, best, *packed) == best
                assert sorted(seen) == want
                total += len(want)
        assert total > 100

    def test_kernel_memory_is_quadratic(self):
        # a 128-point star times 2**40 plus 1 (still a metric, gcd 1) packs
        # into 7-byte fields: the scan keeps the packed metric and one
        # basepoint's packed rows, ~0.27 MB, where every basepoint's rows at
        # once would take ~5 MB
        star = star_metric(128, random.Random(128))._ints
        ints = FiniteMetric([[x * 2**40 + 1 if x else 0 for x in row] for row in star])._ints
        assert _delta_py._packed(ints)[2].bit_length() == 128 * 7 * 8
        tracemalloc.start()
        try:
            _delta_py.max_defect(ints)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("factor, offset", [(1, 0), (2**70, 1)], ids=["1", "2**70+1"])
    def test_pure_kernel_memory(self, factor, offset):
        # the pure scan keeps the packed metric and one basepoint's packed
        # rows of Gromov products at a time: 0.03-0.11 MB on a 64-point star
        # and 0.06-0.22 MB on a 96-point star or a 96-point tree with ten
        # chords, plain and past 2**70, against 6-8 MB at 64 points for every
        # basepoint's rows at once
        for d in (star_matrix(64, random.Random(64)), star_matrix(96, random.Random(96)),
                  chord_tree_matrix(96, random.Random(96), 10)):
            ints = [[int(x) * factor + offset if x else 0 for x in row] for row in d]
            tracemalloc.start()
            try:
                _delta_py.max_defect(ints)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20

    def test_pure_scan_of_a_tree_stops_after_one_basepoint(self, monkeypatch):
        # the first basepoint's best is 0 on a tree, and twice 0 bounds every
        # quadruple, so only that basepoint is scanned; without the stop the
        # row bound keeps most pairs at every basepoint and all 93 are
        d = tree_matrix(96, random.Random(96))
        calls = []
        rows_from = _delta_py._rows_from
        monkeypatch.setattr(_delta_py, "_rows_from", lambda *a: calls.append(a[1]) or rows_from(*a))
        assert _delta_py.max_defect(d) == 0
        assert calls == [0]

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

    # a primitive metric's largest entry on either side of the edges where
    # _packed's fields gain a byte (its top bit above 2 * peak), which are
    # also where twice the peak passes int16, int32 and int64
    @pytest.mark.parametrize(
        "peak, size",
        [(2**14 - 1, 2), (2**14, 3), (2**30 - 1, 4), (2**30, 5), (2**62 - 1, 8), (2**62, 9), (2**63, 9)],
        ids=["2**14-1", "2**14", "2**30-1", "2**30", "2**62-1", "2**62", "2**63"],
    )
    def test_huge_values_use_fallback(self, peak, size):
        # a 4-cycle with its longest distance at the peak and coprime sides
        # summing to it, so the entries have gcd 1; then a broken triangle
        short = (peak - 1) // 2
        long = peak - short
        assert math.gcd(short, long) == 1
        d = [[0, short, peak, long], [short, 0, long, peak],
             [peak, long, 0, short], [long, peak, short, 0]]
        _, _, guard = _delta_py._packed(d)
        assert guard.bit_length() == 4 * 8 * size  # four fields of ``size`` bytes
        metric = FiniteMetric(d)
        assert metric._ints == d
        assert metric._unit == 1
        assert first_triangle_violation(d) is None
        assert four_point_delta(metric) == Q(quadruple_defect(d), 2)
        bad = [[0, peak, 1], [peak, 0, peak - 2], [1, peak - 2, 0]]
        assert first_triangle_violation(bad) == (0, 1)
        with pytest.raises(ValueError, match="^triangle inequality fails between 0 and 1$"):
            FiniteMetric(bad)

    # 97 points, one past the size up to which rows once held every metric,
    # with twice the peak on either side of the int64 maximum: both are rows
    # of Python ints.  Distances p and p - 1 are a metric with gcd 1 and peak p
    @pytest.mark.parametrize("peak", [2**62 - 1, 2**62], ids=["2**62-1", "2**62"])
    def test_twice_the_peak_either_side_of_int64(self, peak):
        n = 97
        d = [[0 if i == j else peak - (i + j) % 2 for j in range(n)] for i in range(n)]
        metric = FiniteMetric(d)
        assert (metric._unit, metric.matrix[0][2], metric.matrix[0][1]) == (1, peak, peak - 1)
        assert metric._ints == d
        assert four_point_delta(metric) == 1
        if fits_int64(d):
            assert int64_defect(d) == 2

    def test_huge_entries_stay_on_rows(self):
        # a 104-point star with each distance d made d (2**70 + 1) + 1: still a
        # metric, with gcd 1 and entries past int64, so every defect is
        # 2**70 + 1 times the star's.  FiniteMetric and four_point_delta took
        # 0.72-0.98 s when numpy held such entries as an object array and take
        # ~55 ms on rows (2-vCPU Xeon VM, Python 3.11): 0.3 s is over 5x the
        # rows' time and under half the object array's.  The tracemalloc peak was
        # 1.57 MB on the object array and is 0.62 MB on rows
        star = star_matrix(104, random.Random(104))
        d = [[x * (2**70 + 1) + 1 if x else x for x in row] for row in star]
        started = time.perf_counter()
        metric = FiniteMetric(d)
        delta = four_point_delta(metric)
        elapsed = time.perf_counter() - started
        assert delta == (2**70 + 1) * four_point_delta(FiniteMetric(star))
        assert elapsed < 0.3
        assert isinstance(metric._ints, list) and metric._unit == 1
        tracemalloc.start()
        try:
            four_point_delta(FiniteMetric(d))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("n", [24, 96])
    def test_common_factor_goes_to_the_unit(self, n):
        # the unit absorbs a common factor: a star times 2**70 gets the star's
        # own primitive rows, and packs into the star's own field width
        star = star_matrix(n, random.Random(n), denominator=3)
        big_star = [[x * 2**70 for x in row] for row in star]
        rows, unit = _delta_py.scaled_rows(*parts(star))
        big_rows, big_unit = _delta_py.scaled_rows(*parts(big_star))
        assert big_rows == rows and big_unit == 2**70 * unit
        assert fits_int64(rows)
        metric, big = FiniteMetric(star), FiniteMetric(big_star)
        assert four_point_delta(big) == 2**70 * four_point_delta(metric)
        assert big.matrix == tuple(map(tuple, big_star))


def faults():
    """One broken axiom: (kind, a, b, amount), with a and b read modulo the size."""
    return st.tuples(st.sampled_from(["diagonal", "asymmetry", "nonpositive", "triangle"]),
                     st.integers(0, 39), st.integers(0, 39), st.integers(0, 2**70))


def apply_fault(d, kind, a, b, amount):
    n = len(d)
    if kind == "diagonal" and n:
        d[a % n][a % n] = amount or 1
    elif kind in ("asymmetry", "nonpositive") and n >= 2:
        i, j = a % n, (a + 1 + b % (n - 1)) % n  # i != j
        if kind == "asymmetry":
            d[i][j] += amount or 1
        else:
            d[i][j] = d[j][i] = -amount
    elif kind == "triangle" and n >= 3:
        i, k, j = a % n, (a + 1) % n, (a + 2 + b % (n - 2)) % n  # distinct
        d[i][j] = d[j][i] = d[i][k] + d[k][j] + amount + 1


def outcome(build, check, scan, numerators, denominators, labels):
    """What one path makes of a matrix: its entries, unit and defect, or its error."""
    try:
        matrix, unit = build(numerators, denominators)
        check(matrix, labels)
    except ValueError as error:
        return str(error)
    return matrix, unit, scan(matrix)


class TestPathsAgree:
    """The builder, checker and kernel on Python int rows against references
    of each: called directly, at every size up to 40 and on stars and grids
    from 56 to 104 points, the rows' entries, unit, first fault and defect
    match brute force, and ``int64_defect`` wherever twice the peak fits
    int64."""

    # factors 2**61 and 2**70 with offset 1 put entries past 2**62, where the
    # defect is held to the quadruple oracle; each fault breaks one axiom,
    # and two faults race for which message comes first
    @settings(max_examples=120, deadline=None)
    @given(
        graph_metrics(40),
        st.sampled_from([1, 2**13, 2**61, 2**70]),
        st.sampled_from([0, 1]),
        st.lists(faults(), max_size=2),
        st.integers(0, 2**32 - 1),
    )
    @example(CYCLE4, 2**61, 1, [], 0)  # valid, entries past 2**62
    @example(CYCLE4, 1, 0, [("diagonal", 2, 0, 5), ("diagonal", 0, 0, 1)], 0)
    @example(CYCLE4, 1, 0, [("asymmetry", 3, 1, 1)], 0)
    @example(CYCLE4, 2**70, 1, [("nonpositive", 1, 1, 0)], 0)
    @example(CYCLE4, 2**70, 1, [("triangle", 0, 0, 0)], 0)
    @example(CYCLE4, 1, 0, [("triangle", 1, 0, 0), ("nonpositive", 0, 1, 0)], 0)
    @example(CYCLE4, 1, 0, [("triangle", 3, 1, 2**70), ("triangle", 0, 0, 0)], 0)
    @example(PATH36, 2**61, 1, [], 0)
    @example(PATH36, 1, 0, [("triangle", 3, 5, 0)], 0)
    @example(PATH36, 2**70, 1, [("triangle", 30, 1, 7)], 1)
    def test_builders_checkers_and_kernels(self, d, factor, offset, broken, seed):
        d = [[x * factor + offset if x else 0 for x in row] for row in d]
        for fault in broken:
            apply_fault(d, *fault)
        # unreduced pairs: each value d[i][j] written over a drawn denominator
        rng = random.Random(seed)
        n = len(d)
        dens = [[1] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                dens[i][j] = dens[j][i] = rng.choice((1, 1, 2, 3, 6))
        nums = [[x * q for x, q in zip(row, qs)] for row, qs in zip(d, dens)]
        labels = tuple(range(n))
        pure = outcome(_delta_py.scaled_rows, _delta_py.check_rows, _delta_py.max_defect,
                       nums, dens, labels)
        if (message := first_fault(d)) is not None:
            assert pure == message
        else:
            rows, unit, defect = pure
            assert [[x * unit for x in row] for row in rows] == d
            assert defect == (int64_defect if fits_int64(rows) else quadruple_defect)(rows)

    # grids with many ties, stars with few, on either side of 96 points, up to
    # which rows once held every metric.  Times 2**70 plus 1 the entries pass
    # 2**62 with gcd 1; each pair-sum of distinct points gains exactly 2, so
    # every defect is 2**70 times the plain metric's, as ``int64_defect``
    # scans it.  A grid of n points is the first n cells of rows of c, under
    # the l1 distance
    @pytest.mark.parametrize("factor, offset", [(1, 0), (2**70, 1)], ids=["1", "2**70+1"])
    @pytest.mark.parametrize("shape", ["star", "grid"])
    @pytest.mark.parametrize("n", [56, 64, 65, 72, 88, 96, 97, 104])
    def test_kernels_across_the_cutoff(self, n, shape, factor, offset):
        if shape == "star":
            d = [[int(x) for x in row] for row in star_matrix(n, random.Random(n))]
        else:
            c = {56: 8, 64: 8, 65: 13, 72: 9, 88: 11, 96: 12, 97: 10, 104: 13}[n]
            cells = [divmod(i, c) for i in range(n)]
            d = [[abs(i - k) + abs(j - l) for k, l in cells] for i, j in cells]
        oracle = int64_defect(d)
        if offset:
            huge = [[x * factor + offset if x else 0 for x in row] for row in d]
            d, big_unit = _delta_py.scaled_rows(huge, [[1] * n for _ in range(n)])
            _delta_py.check_rows(d, range(n))
            assert d == huge and big_unit == 1
        assert _delta_py.max_defect(d) == factor * oracle

    # the pure scan's row bound keeps most pairs of a tree, where best never
    # rises past 0, and few on the other shapes
    @pytest.mark.parametrize("build, n", [
        (tree_matrix, 48), (tree_matrix, 64), (euclid_matrix, 48),
        (lambda n, rng: band_matrix(n, rng, 100), 48), (lambda n, rng: band_matrix(n, rng, 1000), 48),
    ], ids=["tree-48", "tree-64", "euclid-48", "band-100-48", "band-1000-48"])
    def test_kernels_match_quadruple_oracle_on_shapes(self, build, n):
        d = build(n, random.Random(n))
        oracle = quadruple_defect(d)
        assert (oracle == 0) == (build is tree_matrix)
        assert _delta_py.max_defect(d) == int64_defect(d) == oracle

    # each hit of the pure scan raises best, and with it the cut on the rest
    # of the row
    @settings(max_examples=150, deadline=None)
    @given(star_metrics())
    @example(STAR5)
    def test_kernels_match_quadruple_oracle_as_best_rises(self, d):
        assert _delta_py.max_defect(d) == int64_defect(d) == quadruple_defect(d)

    # the scan stops once best reaches twice D0, the first basepoint's best
    # (int64_defect does not stop): exact only if no quadruple scores more,
    # which the basepoint-change lemma says; trees stop at once, near-trees
    # and bands rarely
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(star_metrics(14), tree_metrics(), band_metrics()))
    @example(CHORD4)
    @example(PATH36)
    def test_kernels_stop_at_twice_the_first_basepoint(self, d):
        oracle = quadruple_defect(d)
        assert oracle <= 2 * first_basepoint_defect(d)
        assert _delta_py.max_defect(d) == int64_defect(d) == oracle


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

    @pytest.mark.parametrize("h, error, message", [
        (True, TypeError, r"^h must be a number, got True$"),
        (0.5, TypeError, r"^h must be exact, got 0\.5$"),
        ("1/0", ValueError, r"^zero denominator: '1/0'$"),
    ], ids=["bool", "float", "zero-denominator"])
    def test_h_is_read_exactly(self, h, error, message):
        # Q(h) used to run True as h = 1, 0.5 at its binary value and "1/0"
        # into a raw ZeroDivisionError
        tree = path_graph(3)
        with pytest.raises(error, match=message):
            bowditch_check(tree, geodesic_family(tree), h)
        assert bowditch_check(tree, geodesic_family(tree), "3/2").passed

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

        monkeypatch.setattr(halphen, "twist_characteristic", counted)  # flat_growth imports it here
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

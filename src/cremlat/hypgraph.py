"""Finite hyperbolicity diagnostics.

Three instruments:

* four_point_delta: the exact four-point constant of a FiniteMetric,
  computed over every quadruple of the integers the metric stores (its
  distances as multiples of one rational unit) as one primitive matrix of
  Python int rows, which _delta_py builds, checks and scans for doubled
  Gromov products from each basepoint.  The scan is exact at any size,
  stops once its best reaches twice the first basepoint's (so a tree costs
  one basepoint), and the result, times the unit, comes back as a Fraction.
  Trees give 0; an N x N grid gives at least N - 1, which is the finite
  shadow of a quasi-flat.

* bowditch_check: a thin-triangles criterion over an explicit family of
  connected subgraphs Gamma(x, y), one per vertex pair.

* flat_growth: the degree lower bound of the twist family grows linearly
  in |m| + |n|, so word length does too; the table's certificate is read
  off its own lower bounds, and flat_certificate returns that certificate.
  Only flat_growth runs the Halphen and length legs, and it imports them
  when it runs, so the metric and graph code load no Cremona code; the
  metric code imports _delta_py the same way, so flat_growth does not.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ._exact import cut_repr, exact_int, exact_rational, rational_row
from .errors import MalformedFamily

Q = Fraction

# this and delta_backend() are read by perfbench/; a benchmark-definition change retires them
COMPILED_DELTA = False


def delta_backend() -> str:
    return "pure-python"


# ---------------------------------------------------------------------------
# graphs


class Graph:
    """Undirected graph with hashable vertex labels and unit edge lengths."""

    __slots__ = ("_vertices", "_index", "_neighbors")

    def __init__(self, vertices: Iterable, edges: Iterable[Tuple]) -> None:
        self._vertices = tuple(vertices)
        if len(set(self._vertices)) != len(self._vertices):
            raise ValueError("duplicate vertices")
        self._index = {v: i for i, v in enumerate(self._vertices)}
        neighbors: Dict[object, set] = {v: set() for v in self._vertices}
        for a, b in edges:
            if a not in self._index or b not in self._index:
                raise ValueError(f"edge ({cut_repr(a)}, {cut_repr(b)}) uses unknown vertices")
            if a == b:
                raise ValueError(f"loop at {cut_repr(a)}")
            neighbors[a].add(b)
            neighbors[b].add(a)
        self._neighbors = {v: tuple(sorted(ns, key=self._index.__getitem__)) for v, ns in neighbors.items()}

    @property
    def vertices(self) -> Tuple:
        return self._vertices

    def __contains__(self, v) -> bool:
        return v in self._index

    def index(self, v) -> int:
        return self._index[v]

    def neighbors(self, v) -> Tuple:
        return self._neighbors[v]

    def _reach(self, source, within=None) -> Dict[object, int]:
        # distances from source by breadth-first search, through ``within`` alone if given
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for w in self._neighbors[u]:
                    if w not in dist and (within is None or w in within):
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        return dist

    def bfs_distances(self, source) -> Dict[object, int]:
        return self._reach(source)

    def all_distances(self) -> Dict[object, Dict[object, int]]:
        return {v: self.bfs_distances(v) for v in self._vertices}

    def is_connected(self) -> bool:
        return not self._vertices or len(self._reach(self._vertices[0])) == len(self._vertices)

    def induced_connected(self, subset: Iterable) -> bool:
        subset = set(subset)
        return bool(subset) and self._reach(next(iter(subset)), subset).keys() == subset


def _size(value, what: str, least: int = 0) -> int:
    """A graph size: an exact int, refusing True, and at least ``least``."""
    value = exact_int(value, what)
    if value < least:
        raise ValueError(f"{what} must be at least {least}, got {cut_repr(value)}")
    return value


def path_graph(n: int) -> Graph:
    n = _size(n, "n")
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    n = _size(n, "n", 3)  # fewer vertices close no cycle: a loop, or one edge twice
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    n = _size(n, "n")
    return Graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


def grid_graph(rows: int, cols: int) -> Graph:
    """Rows x cols lattice; vertices are (row, col) pairs."""
    rows, cols = _size(rows, "rows"), _size(cols, "cols")
    vertices = [(r, c) for r in range(rows) for c in range(cols)]
    edges = []
    for r in range(rows):
        for c in range(cols):
            if r + 1 < rows:
                edges.append(((r, c), (r + 1, c)))
            if c + 1 < cols:
                edges.append(((r, c), (r, c + 1)))
    return Graph(vertices, edges)


# ---------------------------------------------------------------------------
# metrics and the four-point constant


class FiniteMetric:
    """Rational metric with the axioms enforced, stored once as a primitive integer matrix.

    Invariant: d(i, j) == _ints[i][j] * _unit, where (_ints, _unit) is the pair
    _delta_py.scaled_rows returns and _delta_py.check_rows has checked: _unit
    is the largest rational of which every distance is an integer multiple,
    and _ints the rows of Python ints of those multiples; _packing is what
    check_rows returns, _ints packed once for the check and the scan alike.
    ``matrix`` is a derived view.

    ``matrix`` is an iterable of rows of rationals: ints, Fractions, or
    anything ``exact_rational`` reads, such as the "num/den" strings of a
    CSV.  Every row is read by ``_exact.rational_row``.
    """

    __slots__ = ("_labels", "_index", "_ints", "_unit", "_packing")

    def __init__(self, matrix: Iterable[Iterable], labels: Optional[Sequence] = None) -> None:
        rows = [rational_row(row, "distance") for row in matrix]
        n = len(rows)
        if any(len(nums) != n for nums, _ in rows):
            raise ValueError("matrix must be square")
        if labels is None:
            labels = tuple(range(n))
        else:
            labels = tuple(labels)
            if len(labels) != n or len(set(labels)) != n:
                raise ValueError("labels must be distinct and match the size")
        numerators, denominators = [nums for nums, _ in rows], [dens for _, dens in rows]
        from . import _delta_py

        self._ints, self._unit = _delta_py.scaled_rows(numerators, denominators)
        self._packing = _delta_py.check_rows(self._ints, labels)
        self._labels = labels
        self._index = {label: i for i, label in enumerate(labels)}

    @classmethod
    def from_graph(cls, graph: Graph) -> "FiniteMetric":
        if not graph.is_connected():
            raise ValueError("graph metric needs a connected graph")
        order = graph.vertices
        dists = graph.all_distances()
        matrix = [[dists[u][v] for v in order] for u in order]
        return cls(matrix, labels=order)

    @property
    def size(self) -> int:
        return len(self._labels)

    @property
    def labels(self) -> Tuple:
        return self._labels

    @property
    def matrix(self) -> Tuple[Tuple[Q, ...], ...]:
        step, scale = self._unit.numerator, self._unit.denominator
        return tuple(tuple(Q(x * step, scale) for x in row) for row in self._ints)

    def distance(self, a, b) -> Q:
        return self._ints[self._index[a]][self._index[b]] * self._unit


def four_point_delta(metric: FiniteMetric) -> Q:
    """Exact four-point constant: max over quadruples of (S1 - S2) / 2.

    S1 >= S2 >= S3 are the three pair-sums of the quadruple.  0 on any
    tree metric; positive curvature-scale defects otherwise.  The scan runs
    on the metric's rows and their packing, and the unit scales its result back.
    """
    from . import _delta_py

    return _delta_py.max_defect(metric._ints, *metric._packing) * metric._unit / 2


# ---------------------------------------------------------------------------
# subgraph families and the thin-triangles criterion


class SubgraphFamily:
    """One vertex subset Gamma(x, y) per unordered pair of distinct vertices."""

    __slots__ = ("_members",)

    def __init__(self, members: Mapping) -> None:
        store: Dict[FrozenSet, FrozenSet] = {}
        for pair, subset in members.items():
            key = frozenset(pair)
            if len(key) != 2:
                raise ValueError(f"pair {cut_repr(tuple(pair))} must have two distinct vertices")
            store[key] = frozenset(subset)
        self._members = store

    def member(self, x, y) -> FrozenSet:
        key = frozenset((x, y))
        if key not in self._members:
            raise MalformedFamily(f"no subgraph declared for pair ({cut_repr(x)}, {cut_repr(y)})")
        return self._members[key]


def geodesic_family(graph: Graph) -> SubgraphFamily:
    """One shortest path per pair, following lowest-index parents."""
    order = graph.vertices
    dists = graph.all_distances()
    members = {}
    for i, x in enumerate(order):
        dx = dists[x]
        for y in order[i + 1 :]:
            path = [y]
            cur = y
            while cur != x:
                # step to the lowest-index neighbor strictly closer to x
                cur = next(w for w in graph.neighbors(cur) if dx[w] == dx[cur] - 1)
                path.append(cur)
            members[(x, y)] = frozenset(path)
    return SubgraphFamily(members)


def staircase_family(graph: Graph) -> SubgraphFamily:
    """Balanced monotone staircases between grid vertices (r, c).

    Each Gamma(x, y) is the L1 geodesic whose row and column steps
    alternate as evenly as possible, a unique deterministic choice.
    """
    order = graph.vertices
    members = {}
    for i, x in enumerate(order):
        for y in order[i + 1 :]:
            members[(x, y)] = frozenset(_staircase(x, y))
    return SubgraphFamily(members)


def _staircase(x: Tuple[int, int], y: Tuple[int, int]) -> List[Tuple[int, int]]:
    (r, c), (r2, c2) = x, y
    dr = 1 if r2 > r else -1
    dc = 1 if c2 > c else -1
    rows_left = abs(r2 - r)
    cols_left = abs(c2 - c)
    path = [(r, c)]
    while rows_left or cols_left:
        # the direction with more ground left steps first; ties step a row
        if rows_left >= cols_left:
            r += dr
            rows_left -= 1
        else:
            c += dc
            cols_left -= 1
        path.append((r, c))
    return path


class BowditchResult(NamedTuple):
    condition: Optional[int] = None  # the first violated condition, 2 or 3
    witness: Optional[Tuple] = None
    message: str = ""

    @property
    def passed(self) -> bool:
        return self.condition is None


def bowditch_check(graph: Graph, family: SubgraphFamily, h) -> BowditchResult:
    """Check the subgraph-family criterion at thinness parameter h.

    Validation first: every pair of distinct vertices must have a declared
    subgraph that contains both endpoints and induces a connected subgraph
    (MalformedFamily otherwise, which covers condition (1)).  Then
    condition (2): for every triple of distinct vertices x, y, z,
    Gamma(x, y) lies in the h-neighborhood of Gamma(x, z) union
    Gamma(y, z); and condition (3): pairs with d(x, y) <= 1 have
    diam Gamma(x, y) <= h in the ambient graph.  Returns the first
    violation in vertex order.
    """
    h = exact_rational(h, "h")
    order = graph.vertices
    n = len(order)
    dists = graph.all_distances()

    masks: Dict[FrozenSet, int] = {}
    for i, x in enumerate(order):
        for y in order[i + 1 :]:
            subset = family.member(x, y)
            unknown = [v for v in subset if v not in graph]
            if unknown:
                raise MalformedFamily(
                    f"Gamma({cut_repr(x)}, {cut_repr(y)}) uses unknown vertices {cut_repr(unknown)}"
                )
            if x not in subset or y not in subset:
                raise MalformedFamily(f"Gamma({cut_repr(x)}, {cut_repr(y)}) misses an endpoint")
            if not graph.induced_connected(subset):
                raise MalformedFamily(
                    f"Gamma({cut_repr(x)}, {cut_repr(y)}) induces a disconnected subgraph"
                )
            masks[frozenset((x, y))] = _mask(subset, graph)

    # h-balls around each vertex, as bitmasks over the vertex order
    ball: List[int] = []
    for v in order:
        dv = dists[v]
        ball.append(_mask((w for w in order if dv[w] <= h), graph))
    hoods: Dict[FrozenSet, int] = {}
    for key, mask in masks.items():
        acc = 0
        m = mask
        while m:
            low = m & -m
            acc |= ball[low.bit_length() - 1]
            m ^= low
        hoods[key] = acc

    # condition (2) over all triples of distinct vertices
    for i, x in enumerate(order):
        for j in range(i + 1, n):
            y = order[j]
            gxy = masks[frozenset((x, y))]
            for z in order:
                if z == x or z == y:
                    continue
                allowed = hoods[frozenset((x, z))] | hoods[frozenset((y, z))]
                stray = gxy & ~allowed
                if stray:
                    v = order[(stray & -stray).bit_length() - 1]
                    return BowditchResult(
                        condition=2,
                        witness=(x, y, z, v),
                        message=(
                            f"Gamma({cut_repr(x)}, {cut_repr(y)}) contains {cut_repr(v)}, "
                            f"farther than {cut_repr(h)} from Gamma({cut_repr(x)}, {cut_repr(z)}) "
                            f"union Gamma({cut_repr(y)}, {cut_repr(z)})"
                        ),
                    )

    # condition (3): close pairs have uniformly small subgraphs
    for i, x in enumerate(order):
        for y in order[i + 1 :]:
            if dists[x].get(y) is None or dists[x][y] > 1:
                continue
            subset = sorted(family.member(x, y), key=graph.index)
            for a_i, a in enumerate(subset):
                for b in subset[a_i + 1 :]:
                    if dists[a][b] > h:
                        return BowditchResult(
                            condition=3,
                            witness=(x, y, a, b),
                            message=(
                                f"Gamma({cut_repr(x)}, {cut_repr(y)}) has diameter > {cut_repr(h)}"
                                f": d({cut_repr(a)}, {cut_repr(b)}) = {cut_repr(dists[a][b])}"
                            ),
                        )
    return BowditchResult()


def _mask(subset: Iterable, graph: Graph) -> int:
    acc = 0
    for v in subset:
        acc |= 1 << graph.index(v)
    return acc


# ---------------------------------------------------------------------------
# the quasi-flat growth table


class FlatRow(NamedTuple):
    m: int
    n: int
    degree: int
    lower: int
    upper: int


class FlatCertificate(NamedTuple):
    """The least lower bound on each sphere |m| + |n| = k, as (k, bound) pairs, k ascending.

    Growth is linear when each is >= ceil(0.6 k); ``failing_k`` is the first k below it.
    The threshold 0.6 sits strictly below sqrt(9/20) ~ 0.6708, the exact asymptotic slope
    of the degree bound on the worst diagonal, leaving room for ceiling effects at small k.
    """

    minima: Tuple[Tuple[int, int], ...]

    @property
    def failing_k(self) -> Optional[int]:
        return next((k for k, low in self.minima if low < -(-3 * k // 5)), None)

    @property
    def passed(self) -> bool:
        return self.failing_k is None


class FlatTable(NamedTuple):
    """The rows of flat_growth(k_max); the certificate is read off their ``lower`` column."""

    k_max: int
    rows: Tuple[FlatRow, ...]

    @property
    def certificate(self) -> FlatCertificate:
        minima: Dict[int, int] = {}
        for r in self.rows[1:]:
            k = abs(r.m) + abs(r.n)
            minima[k] = min(r.lower, minima.get(k, r.lower))
        return FlatCertificate(tuple(minima.items()))


def flat_growth(k_max: int) -> FlatTable:
    """Degree and length-bound table over |m| + |n| <= k_max, certified by its lower bounds.

    The twist rows follow the identity row, sorted by |m| + |n|, then m, then n.
    Each row holds greedy_length's lower_deg and upper_greedy; the greedy walks
    share one dict for the call, so each distinct state is stepped once.
    """
    from .cremona import require_valid
    from .halphen import twist_characteristic
    from .length import _lower_deg, _steps_left

    k_max = _size(k_max, "k_max", 1)
    rows = [FlatRow(m=0, n=0, degree=1, lower=0, upper=0)]
    steps_left: Dict[Tuple[int, Tuple[int, ...]], int] = {}
    for k in range(1, k_max + 1):
        for m in range(-k, k + 1):
            r = k - abs(m)
            for n in (-r, r) if r else (0,):
                char = twist_characteristic(n, m)
                require_valid(char)
                degree, mults = char.degree, char.base_multiplicities()
                rows.append(FlatRow(m, n, degree, _lower_deg(degree, mults), _steps_left(degree, mults, steps_left)))
    return FlatTable(k_max=k_max, rows=tuple(rows))


def flat_certificate(k_max: int) -> FlatCertificate:
    """The certificate of flat_growth(k_max), which it builds."""
    return flat_growth(k_max).certificate

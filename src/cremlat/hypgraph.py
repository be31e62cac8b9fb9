"""Finite hyperbolicity diagnostics.

Three instruments:

* four_point_delta: the exact four-point constant of a FiniteMetric,
  computed over every quadruple of the integers the metric stores (its
  distances times their common denominator).  The compiled quadruple
  kernel runs when the extension is importable and the values fit 64 bits;
  otherwise _delta_py scans doubled Gromov products from each basepoint
  with numpy.  Both are exact and the result comes back as a Fraction.
  Trees give 0; an N x N grid gives at least N - 1, which is the finite
  shadow of a quasi-flat.

* bowditch_check: a thin-triangles criterion over an explicit family of
  connected subgraphs Gamma(x, y), one per vertex pair.

* flat_growth / flat_certificate: the degree lower bound of the twist
  family grows linearly in |m| + |n|, so word length does too; the
  certificate checks min lower bound >= ceil(0.6 k) on every sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from .errors import MalformedFamily
from . import _delta_py
from ._delta_py import _INT64_SAFE
from .halphen import twist_characteristic
from .length import greedy_length, length_lower_deg

try:  # compiled kernel, built by setup.py when Cython and a C compiler exist
    from . import _delta_cy

    COMPILED_DELTA = True
except ImportError:  # pragma: no cover - depends on build environment
    _delta_cy = None
    COMPILED_DELTA = False

Q = Fraction


def delta_backend() -> str:
    return "compiled" if COMPILED_DELTA else "pure-python"


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
                raise ValueError(f"edge ({a!r}, {b!r}) uses unknown vertices")
            if a == b:
                raise ValueError(f"loop at {a!r}")
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

    def bfs_distances(self, source) -> Dict[object, int]:
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for w in self._neighbors[u]:
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        nxt.append(w)
            frontier = nxt
        return dist

    def all_distances(self) -> Dict[object, Dict[object, int]]:
        return {v: self.bfs_distances(v) for v in self._vertices}

    def is_connected(self) -> bool:
        if not self._vertices:
            return True
        return len(self.bfs_distances(self._vertices[0])) == len(self._vertices)

    def induced_connected(self, subset: Iterable) -> bool:
        subset = set(subset)
        if not subset:
            return False
        start = next(iter(subset))
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for u in frontier:
                for w in self._neighbors[u]:
                    if w in subset and w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        return seen == subset


def path_graph(n: int) -> Graph:
    return Graph(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(range(n), [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(range(n), [(i, j) for i in range(n) for j in range(i + 1, n)])


def grid_graph(rows: int, cols: int) -> Graph:
    """Rows x cols lattice; vertices are (row, col) pairs."""
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
    """Rational metric with the axioms enforced, stored once as scaled integers.

    Invariant: d(i, j) == Fraction(_ints[i][j], _scale), where _scale is the
    least common denominator of the entries; ``matrix`` is a derived view.
    """

    __slots__ = ("_labels", "_index", "_ints", "_scale")

    def __init__(self, matrix: Sequence[Sequence], labels: Optional[Sequence] = None) -> None:
        # serialize.metric_from_csv already hands over Fractions
        rows = [tuple(x if isinstance(x, Q) else Q(x) for x in row) for row in matrix]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise ValueError("matrix must be square")
        if labels is None:
            labels = tuple(range(n))
        else:
            labels = tuple(labels)
            if len(labels) != n or len(set(labels)) != n:
                raise ValueError("labels must be distinct and match the size")
        ints, scale = _scaled_int_matrix(rows)
        for i in range(n):
            if ints[i][i] != 0:
                raise ValueError(f"diagonal entry at {labels[i]!r} is nonzero")
            for j in range(i + 1, n):
                if ints[i][j] != ints[j][i]:
                    raise ValueError(f"asymmetry at ({labels[i]!r}, {labels[j]!r})")
                if ints[i][j] <= 0:
                    raise ValueError(f"nonpositive distance at ({labels[i]!r}, {labels[j]!r})")
        _check_triangle(ints, labels)
        self._labels = labels
        self._index = {label: i for i, label in enumerate(labels)}
        self._ints = ints
        self._scale = scale

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
        scale = self._scale
        return tuple(tuple(Q(x, scale) for x in row) for row in self._ints)

    def distance(self, a, b) -> Q:
        return Q(self._ints[self._index[a]][self._index[b]], self._scale)


def _scaled_int_matrix(rows) -> Tuple[List[List[int]], int]:
    """Clear denominators: integer matrix plus the common scale factor."""
    scale = math.lcm(*{x.denominator for row in rows for x in row})
    ints = [[x.numerator * (scale // x.denominator) for x in row] for row in rows]
    return ints, scale


def _check_triangle(ints: Sequence[Sequence[int]], labels: Sequence) -> None:
    """Reject the first (i, j), row-major, with d(i, j) > min_k d(i, k) + d(k, j).

    One row of min-plus sums at a time keeps memory O(n^2); entries past the
    int64 window run the same code on Python ints (object dtype).
    """
    n = len(ints)
    if n <= 2:
        return
    # deferred: subcommands that never build a metric skip numpy's start-up cost
    import numpy as np

    peak = max(map(max, ints))
    arr = np.array(ints, dtype=np.int64 if peak < _INT64_SAFE else object)
    for i in range(n):
        bad = np.flatnonzero((arr[i][:, None] + arr).min(axis=0) < arr[i])
        if bad.size:
            raise ValueError(
                f"triangle inequality fails between {labels[i]!r} and {labels[int(bad[0])]!r}"
            )


def four_point_delta(metric: FiniteMetric) -> Q:
    """Exact four-point constant: max over quadruples of (S1 - S2) / 2.

    S1 >= S2 >= S3 are the three pair-sums of the quadruple.  0 on any
    tree metric; positive curvature-scale defects otherwise.
    """
    ints = metric._ints
    if COMPILED_DELTA and metric.size >= 4 and max(map(max, ints)) < _INT64_SAFE // 2:
        # deferred, as in _check_triangle: only the compiled kernel needs an array
        import numpy as np

        defect = int(_delta_cy.max_defect(np.array(ints, dtype=np.int64)))
    else:
        defect = _delta_py.max_defect(ints)
    return Q(defect, 2 * metric._scale)


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
                raise ValueError(f"pair {tuple(pair)!r} must have two distinct vertices")
            store[key] = frozenset(subset)
        self._members = store

    def member(self, x, y) -> FrozenSet:
        key = frozenset((x, y))
        if key not in self._members:
            raise MalformedFamily(f"no subgraph declared for pair ({x!r}, {y!r})")
        return self._members[key]

    def pairs(self) -> Iterable[FrozenSet]:
        return self._members.keys()


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


@dataclass(frozen=True)
class BowditchResult:
    passed: bool
    condition: Optional[int] = None
    witness: Optional[Tuple] = None
    message: str = ""


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
    h = Q(h)
    order = graph.vertices
    n = len(order)
    dists = graph.all_distances()

    masks: Dict[FrozenSet, int] = {}
    for i, x in enumerate(order):
        for y in order[i + 1 :]:
            subset = family.member(x, y)
            unknown = [v for v in subset if v not in graph]
            if unknown:
                raise MalformedFamily(f"Gamma({x!r}, {y!r}) uses unknown vertices {unknown!r}")
            if x not in subset or y not in subset:
                raise MalformedFamily(f"Gamma({x!r}, {y!r}) misses an endpoint")
            if not graph.induced_connected(subset):
                raise MalformedFamily(f"Gamma({x!r}, {y!r}) induces a disconnected subgraph")
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
                        passed=False,
                        condition=2,
                        witness=(x, y, z, v),
                        message=(
                            f"Gamma({x!r}, {y!r}) contains {v!r}, farther than {h} "
                            f"from Gamma({x!r}, {z!r}) union Gamma({y!r}, {z!r})"
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
                            passed=False,
                            condition=3,
                            witness=(x, y, a, b),
                            message=(
                                f"Gamma({x!r}, {y!r}) has diameter > {h}: "
                                f"d({a!r}, {b!r}) = {dists[a][b]}"
                            ),
                        )
    return BowditchResult(passed=True)


def _mask(subset: Iterable, graph: Graph) -> int:
    acc = 0
    for v in subset:
        acc |= 1 << graph.index(v)
    return acc


# ---------------------------------------------------------------------------
# the quasi-flat growth table


@dataclass(frozen=True)
class FlatRow:
    m: int
    n: int
    degree: int
    lower: int
    upper: int


@dataclass(frozen=True)
class FlatTable:
    k_max: int
    rows: Tuple[FlatRow, ...]


@dataclass(frozen=True)
class FlatCertificate:
    passed: bool
    failing_k: Optional[int]
    minima: Tuple[Tuple[int, int], ...]  # (k, min lower bound on the sphere)


def flat_growth(k_max: int) -> FlatTable:
    """Degree and length-bound table over |m| + |n| <= k_max."""
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    rows = []
    for k in range(k_max + 1):
        for m, n in _sphere(k):
            if (m, n) == (0, 0):
                rows.append(FlatRow(m=0, n=0, degree=1, lower=0, upper=0))
                continue
            char = twist_characteristic(n, m)
            bounds = greedy_length(char)
            rows.append(
                FlatRow(
                    m=m,
                    n=n,
                    degree=char.degree,
                    lower=bounds.lower_deg,
                    upper=bounds.upper_greedy,
                )
            )
    return FlatTable(k_max=k_max, rows=tuple(rows))


def flat_certificate(k_max: int) -> FlatCertificate:
    """Linear growth check: min lower bound on sphere k is >= ceil(0.6 k).

    The threshold 0.6 sits strictly below sqrt(9/20) ~ 0.6708, the exact
    asymptotic slope of the degree bound on the worst diagonal, leaving
    room for ceiling effects at small k.
    """
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    minima = []
    failing = None
    for k in range(1, k_max + 1):
        sphere_min = None
        for m, n in _sphere(k):
            lower = length_lower_deg(twist_characteristic(n, m))
            if sphere_min is None or lower < sphere_min:
                sphere_min = lower
        minima.append((k, sphere_min))
        threshold = -(-3 * k // 5)  # ceil(0.6 k) exactly
        if sphere_min < threshold and failing is None:
            failing = k
    return FlatCertificate(passed=failing is None, failing_k=failing, minima=tuple(minima))


def _sphere(k: int) -> List[Tuple[int, int]]:
    """Lattice points with |m| + |n| = k, in deterministic order."""
    if k == 0:
        return [(0, 0)]
    out = []
    for m in range(-k, k + 1):
        r = k - abs(m)
        if r == 0:
            out.append((m, 0))
        else:
            out.append((m, -r))
            out.append((m, r))
    return sorted(out)

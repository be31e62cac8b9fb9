"""A metric as one primitive integer matrix: scaled, built, checked and scanned.

The unit of a metric is the largest rational of which every entry is an
integer multiple (the gcd of the entries over their least common
denominator), so its matrix is primitive: the entries have gcd 1.

One size rule picks the matrix's form.  A metric of at most ``_SMALL``
points is a list of rows of Python ints, checked and scanned in plain
Python, and numpy is never imported for it: numpy's import costs more than
the whole check and scan at that size, where the scan tests each pair of
points with one AND of two bitsets.  A larger metric is a numpy array in the
narrowest dtype the checks and the scan cannot overflow: int16, int32 or
int64 while twice the largest magnitude fits, Python ints (object dtype)
past that.  Both forms are exact, and numpy loads on the first large metric.

The four-point kernel scans doubled Gromov products (Fournier, Ismail and
Vigneron, "Computing the Gromov hyperbolicity of a discrete metric space",
IPL 2015): seen from a basepoint w,

    P[x, y] = d(x, w) + d(y, w) - d(x, y)
    defect(x, y, z, w) = min(P[x, z], P[y, z]) - P[x, y]

is the pair-sum d(x, y) + d(z, w) minus the larger of the other two, so the
maximum over the three choices of {x, y} among {x, y, z} is the quadruple's
largest pair-sum minus its second largest.  This is the package's only
numpy module.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate
from operator import add, or_
from typing import List, Sequence, Tuple

from ._exact import cut_repr

# the largest metric checked and scanned on Python int rows; at 64 points the
# pure check and scan take ~50-70 ms, against ~6-9 ms in numpy after its
# ~90-100 ms import, and at 72 points ~95-100 ms against ~10 ms (seeded star
# metrics on a 2-vCPU Xeon VM, Python 3.11, numpy 2.4)
_SMALL = 64

# elements of one min(P[x], P[y]) block; keeps the numpy scan's memory O(n^2)
_CHUNK = 2**17


def _primitive(numerators: Sequence[Sequence[int]],
               denominators: Sequence[Sequence[int]]) -> Tuple[List[int], Fraction]:
    """The entries numerators[i][j] / denominators[i][j], row-major, as
    ``(ints, unit)``: the primitive integers and the positive Fraction unit
    with entry == int * unit."""
    dens = [d for row in denominators for d in row]
    distinct = set(dens)
    scale = math.lcm(*distinct)
    if not scale:
        raise ValueError("zero denominator")
    ints = [x for row in numerators for x in row]
    if scale != 1:
        factor = {d: scale // d for d in distinct}
        ints = [x * factor[d] for x, d in zip(ints, dens)]
    common = math.gcd(*ints) or 1
    if common != 1:
        ints = [x // common for x in ints]
    return ints, Fraction(common, scale)


def scaled_rows(numerators: Sequence[Sequence[int]], denominators: Sequence[Sequence[int]]):
    """The square matrix of rationals numerators[i][j] / denominators[i][j] as
    ``(rows, unit)``: n lists of primitive Python ints, d(i, j) = rows[i][j] * unit."""
    ints, unit = _primitive(numerators, denominators)
    n = len(numerators)
    return [ints[i * n : i * n + n] for i in range(n)], unit


def scaled_array(numerators: Sequence[Sequence[int]], denominators: Sequence[Sequence[int]]):
    """The square matrix of rationals numerators[i][j] / denominators[i][j] as ``(array, unit)``.

    ``unit`` is a positive Fraction and ``array`` the n x n primitive integer
    entries with d(i, j) = array[i, j] * unit.  Every value the checks and the
    scan form lies within twice the peak magnitude, so the dtype is the first
    of int16, int32 and int64 whose maximum holds 2 * peak, and object dtype
    (exact Python ints) past that.  The peak is taken over Python ints: it
    cannot wrap, and a huge negative entry reaches the positivity check.
    """
    import numpy as np

    ints, unit = _primitive(numerators, denominators)
    n = len(numerators)
    peak = max(max(ints, default=0), -min(ints, default=0))
    dtype = next((t for t in (np.int16, np.int32, np.int64) if 2 * peak <= np.iinfo(t).max), object)
    return np.array(ints, dtype=dtype).reshape(n, n), unit


def metric_array(numerators: Sequence[Sequence[int]], denominators: Sequence[Sequence[int]],
                 labels: Sequence):
    """The checked primitive matrix of a metric and its unit: ``scaled_rows``
    for at most ``_SMALL`` points, ``scaled_array`` past that.  A failed axiom
    raises ValueError naming its first bad pair, row-major, in either form."""
    if len(numerators) <= _SMALL:
        rows, unit = scaled_rows(numerators, denominators)
        check_rows(rows, labels)
        return rows, unit
    arr, unit = scaled_array(numerators, denominators)
    check_array(arr, labels)
    return arr, unit


def check_rows(rows: List[List[int]], labels: Sequence) -> None:
    """The metric axioms on rows of ints: zero diagonal, symmetry, positivity
    above the diagonal, then the triangle law, each naming its first bad pair."""
    n = len(rows)
    for i in range(n):
        if rows[i][i]:
            raise ValueError(f"diagonal entry at {cut_repr(labels[i])} is nonzero")
    # an asymmetric pair's mirror is asymmetric too, so the first, row-major, has i < j
    for i, row in enumerate(rows):
        for j in range(i + 1, n):
            if row[j] != rows[j][i]:
                raise ValueError(f"asymmetry at ({cut_repr(labels[i])}, {cut_repr(labels[j])})")
    for i, row in enumerate(rows):
        for j in range(i + 1, n):
            if row[j] <= 0:
                raise ValueError(
                    f"nonpositive distance at ({cut_repr(labels[i])}, {cut_repr(labels[j])})"
                )
    # with symmetry, min over k of d(i, k) + d(j, k) is the shortest two-step path
    # from i to j; a failure at (i, j) is one at (j, i), so the first has i < j
    for i, row in enumerate(rows):
        for j in range(i + 1, n):
            if min(map(add, row, rows[j])) < row[j]:
                raise ValueError(
                    f"triangle inequality fails between {cut_repr(labels[i])} and {cut_repr(labels[j])}"
                )


def check_array(arr, labels: Sequence) -> None:
    """``check_rows`` on a numpy array; the triangle check takes one row of
    min-plus sums at a time."""
    import numpy as np

    bad = np.flatnonzero(np.diagonal(arr))
    if bad.size:
        raise ValueError(f"diagonal entry at {cut_repr(labels[bad[0]])} is nonzero")
    # arr != arr.T is symmetric and positivity is read above the diagonal, so i < j
    for what, mask in ("asymmetry", arr != arr.T), ("nonpositive distance", np.triu(arr <= 0, 1)):
        for i, j in np.argwhere(mask)[:1]:  # the first hit, if any
            raise ValueError(f"{what} at ({cut_repr(labels[i])}, {cut_repr(labels[j])})")
    for i in range(len(arr)):
        for j in np.flatnonzero((arr[i][:, None] + arr).min(axis=0) < arr[i])[:1]:
            raise ValueError(
                f"triangle inequality fails between {cut_repr(labels[i])} and {cut_repr(labels[j])}"
            )


def max_defect(d) -> int:
    """Largest difference of the two largest pair-sums over all quadruples.

    For each quadruple i<j<k<l the three pairings are d[i][j]+d[k][l],
    d[i][k]+d[j][l], d[i][l]+d[j][k]; the defect is (largest - second
    largest).  Returns the maximum defect, 0 for fewer than four points.
    ``d`` must be a metric: the triangle law makes every choice with
    repeated points score <= 0.  It is what ``metric_array`` returns, as a
    FiniteMetric stores it (rows up to ``_SMALL`` points, an array past
    that), or any square list of lists of ints; both scans are exact at
    any size.
    """
    return rows_defect(d) if isinstance(d, list) else array_defect(d)


def rows_defect(rows: Sequence[Sequence[int]]) -> int:
    """``max_defect`` of rows of ints, by the basepoint scan in plain Python.

    A pair (x, y) beats ``best`` exactly when some z has both P[x, z] and
    P[y, z] at least t = P[x, y] + best + 1.  With each row's indices sorted
    by value, the z holding a row's entries >= t are its top k for k found by
    bisection, kept as one bitset per k, so the pair is tested by one AND of
    two Python ints.  Only a hit re-scores the pair, exactly, over every z.
    Nothing is rounded, so the test is exact for ints of any size.
    """
    n = len(rows)
    best = 0
    # every quadruple is seen once from its smallest point w
    for w in range(n - 3):
        r = rows[w][w + 1 :]
        prod = [[a + b - c for b, c in zip(r, rows[x][w + 1 :])] for x, a in enumerate(r, w + 1)]
        m = len(prod)
        one = [1 << z for z in range(m)]
        # asc[x]: row x ascending; tops[x][k]: the bitset of the z holding its k largest
        asc, tops = [], []
        for px in prod:
            order = sorted(range(m), key=px.__getitem__)
            asc.append(list(map(px.__getitem__, order)))
            tops.append([0, *accumulate(map(one.__getitem__, reversed(order)), or_)])
        for x, px in enumerate(prod):
            ax, tx = asc[x], tops[x]
            # the score is symmetric in x and y, and 0 at most when y == x
            for y in range(x + 1, m):
                t = px[y] + best + 1
                if tx[m - bisect_left(ax, t)] & tops[y][m - bisect_left(asc[y], t)]:
                    best = max([p if p < q else q for p, q in zip(px, prod[y])]) - px[y]
    return best


def array_defect(arr) -> int:
    """``max_defect`` of a numpy array, by the basepoint scan in row chunks."""
    import numpy as np

    n = len(arr)
    best = 0
    # every quadruple is seen once from its smallest point w
    for w in range(n - 3):
        r = arr[w, w + 1 :]
        prod = r[:, None] + r[None, :] - arr[w + 1 :, w + 1 :]
        m = n - w - 1
        step = max(1, _CHUNK // (m * m))
        for lo in range(0, m, step):
            # the score is symmetric in x and y, so y < lo was met as an x row
            rows = prod[lo : lo + step]
            pairs = np.minimum(rows[:, None, :], prod[None, lo:]).max(axis=2)
            top = (pairs - rows[:, lo:]).max()
            if top > best:
                best = top
    return int(best)

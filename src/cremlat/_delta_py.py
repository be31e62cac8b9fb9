"""A metric as one primitive integer numpy array: scaled, built, checked and scanned.

``scaled_array`` is the one builder of a metric's array.  From numerators
and denominators it picks the unit, the largest rational of which every
entry is an integer multiple (the gcd of the entries over their least
common denominator), so the array is primitive: its entries have gcd 1.
It then picks the narrowest dtype the checks and the scan cannot overflow:
int16, int32 or int64 while twice the largest magnitude fits, Python ints
(object dtype) past that.

The four-point kernel is a numpy scan over doubled Gromov products
(Fournier, Ismail and Vigneron, "Computing the Gromov hyperbolicity of a
discrete metric space", IPL 2015): seen from a basepoint w,

    P[x, y] = d(x, w) + d(y, w) - d(x, y)
    defect(x, y, z, w) = min(P[x, z], P[y, z]) - P[x, y]

is the pair-sum d(x, y) + d(z, w) minus the larger of the other two, so the
maximum over the three choices of {x, y} among {x, y, z} is the quadruple's
largest pair-sum minus its second largest.  This is the package's only
numpy module, and numpy loads on its first use.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from ._exact import cut_repr

# elements of one min(P[x], P[y]) block; keeps the scan's memory O(n^2)
_CHUNK = 2**17


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

    n = len(numerators)
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
    peak = max(max(ints, default=0), -min(ints, default=0))
    dtype = next((t for t in (np.int16, np.int32, np.int64) if 2 * peak <= np.iinfo(t).max), object)
    return np.array(ints, dtype=dtype).reshape(n, n), Fraction(common, scale)


def metric_array(numerators: Sequence[Sequence[int]], denominators: Sequence[Sequence[int]],
                 labels: Sequence):
    """``scaled_array(numerators, denominators)`` after checking the metric
    axioms on its array; a failed axiom raises ValueError naming its first bad
    pair, row-major.  The triangle check takes one row of min-plus sums at a
    time."""
    import numpy as np

    arr, unit = scaled_array(numerators, denominators)
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
    return arr, unit


def max_defect(d) -> int:
    """Largest difference of the two largest pair-sums over all quadruples.

    For each quadruple i<j<k<l the three pairings are d[i][j]+d[k][l],
    d[i][k]+d[j][l], d[i][l]+d[j][k]; the defect is (largest - second
    largest).  Returns the maximum defect, 0 for fewer than four points.
    ``d`` must be a metric: the triangle law makes every choice with
    repeated points score <= 0.  It is an array from ``scaled_array``, as a
    FiniteMetric stores it, or a square list of lists of ints, whose own
    defect is returned: the defect of its primitive array times the unit.
    """
    import numpy as np

    if not isinstance(d, np.ndarray):
        arr, unit = scaled_array(d, [[1] * len(row) for row in d])
        return max_defect(arr) * unit.numerator
    arr = d
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

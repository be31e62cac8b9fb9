"""A metric as one scaled integer numpy array: scaled, built, checked and scanned.

``scaled_array`` is the one place that picks both the scale (the least
common denominator) and the dtype (int64, or object past its range).

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
from typing import Sequence

from ._exact import cut_repr

# the checks and the scan stay within [-2 peak, 2 peak]: int64 while 2 peak is below this
_INT64_SAFE = 2**62

# elements of one min(P[x], P[y]) block; keeps the scan's memory O(n^2)
_CHUNK = 2**17


def scaled_array(rows: Sequence[Sequence]):
    """The square matrix of rationals (ints or Fractions) as ``(array, scale)``.

    ``scale`` is the least common denominator and ``array`` the n x n entries
    times it: int64 while every value the checks and the scan form fits,
    Python ints (object dtype) past that, so they are exact.  The peak is a
    magnitude over the Python ints: it cannot wrap, and a huge negative
    entry reaches the positivity check.
    """
    import numpy as np

    scale = math.lcm(*{x.denominator for row in rows for x in row})
    ints = [[x.numerator * (scale // x.denominator) for x in row] for row in rows]
    peak = max(max(map(max, ints), default=0), -min(map(min, ints), default=0))
    dtype = np.int64 if 2 * peak < _INT64_SAFE else object
    return np.array(ints, dtype=dtype).reshape(len(ints), len(ints)), scale


def metric_array(rows: Sequence[Sequence], labels: Sequence):
    """``scaled_array(rows)`` after checking the metric axioms on its array; a
    failed axiom raises ValueError naming its first bad pair, row-major.  The
    triangle check takes one row of min-plus sums at a time."""
    import numpy as np

    arr, scale = scaled_array(rows)
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
    return arr, scale


def max_defect(d) -> int:
    """Largest difference of the two largest pair-sums over all quadruples.

    For each quadruple i<j<k<l the three pairings are d[i][j]+d[k][l],
    d[i][k]+d[j][l], d[i][l]+d[j][k]; the defect is (largest - second
    largest).  Returns the maximum defect, 0 for fewer than four points.
    ``d`` must be a metric: the triangle law makes every choice with
    repeated points score <= 0.  It is an array from ``scaled_array``, as a
    FiniteMetric stores it, or a square list of lists of ints.
    """
    import numpy as np

    arr = d if isinstance(d, np.ndarray) else scaled_array(d)[0]
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

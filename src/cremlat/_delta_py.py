"""Four-point kernel used when the compiled extension is not built.

Same contract as _delta_cy.pyx: the largest four-point defect of an integer
distance matrix.  It runs as a numpy scan over doubled Gromov products
(Fournier, Ismail and Vigneron, "Computing the Gromov hyperbolicity of a
discrete metric space", IPL 2015): seen from a basepoint w,

    P[x, y] = d(x, w) + d(y, w) - d(x, y)
    defect(x, y, z, w) = min(P[x, z], P[y, z]) - P[x, y]

is the pair-sum d(x, y) + d(z, w) minus the larger of the other two, so the
maximum over the three choices of {x, y} among {x, y, z} is the quadruple's
largest pair-sum minus its second largest.  int64 arithmetic while every
value fits, Python ints (object dtype) past that, so the answer is exact.
"""

from __future__ import annotations

from typing import Sequence

# pair-sums of two scaled entries must fit a signed 64-bit value
_INT64_SAFE = 2**62

# elements of one min(P[x], P[y]) block; keeps the scan's memory O(n^2)
_CHUNK = 2**17


def max_defect(d: Sequence[Sequence[int]]) -> int:
    """Largest difference of the two largest pair-sums over all quadruples.

    For each quadruple i<j<k<l the three pairings are d[i][j]+d[k][l],
    d[i][k]+d[j][l], d[i][l]+d[j][k]; the defect is (largest - second
    largest).  Returns the maximum defect, 0 for fewer than four points.
    ``d`` must be a metric: the triangle law makes every choice with
    repeated points score <= 0.
    """
    n = len(d)
    if n < 4:
        return 0
    import numpy as np  # deferred like hypgraph's: only metrics need it

    peak = int(max(map(max, d)))  # an int64 array's max could wrap when doubled
    # Gromov products and their differences stay within [-2 peak, 2 peak]
    arr = np.array(d, dtype=np.int64 if 2 * peak < _INT64_SAFE else object)
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

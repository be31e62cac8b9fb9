"""A metric as one primitive integer matrix: scaled, built, checked and scanned.

The unit of a metric is the largest rational of which every entry is an
integer multiple (the gcd of the entries over their least common
denominator), so its matrix is primitive: the entries have gcd 1.

One rule on the size and the values picks the matrix's form.  A metric of
at most ``_SMALL`` points, or one whose doubled peak entry passes int64, is
a list of rows of Python ints, checked and scanned in plain Python, exactly
at any size, and numpy is never imported for it.  At that size numpy's
import costs more than the whole check and scan.  The scan packs each
basepoint's rows of Gromov products one field per point, as the triangle
check packs the metric: one fieldwise maximum of them bounds every row, one
mask per point keeps the few pairs that pass the bounds, and a kept pair is
tested with two differences and two ANDs.  Past int64 numpy would hold each
entry as a Python object and do the arithmetic one element at a time,
slower than the rows on every metric measured.  Any other metric is a numpy
array in the narrowest dtype the checks and the scan cannot overflow: the
first of int16, int32 and int64 whose maximum holds twice the peak.  numpy
loads on the first such metric.

The four-point kernel scans doubled Gromov products (Fournier, Ismail and
Vigneron, "Computing the Gromov hyperbolicity of a discrete metric space",
IPL 2015): seen from a basepoint w,

    P[x, y] = d(x, w) + d(y, w) - d(x, y)
    defect(x, y, z, w) = min(P[x, z], P[y, z]) - P[x, y]

is the pair-sum d(x, y) + d(z, w) minus the larger of the other two, so the
maximum over the three choices of {x, y} among {x, y, z} is the quadruple's
largest pair-sum minus its second largest.  Both scans stop by Gromov's
basepoint-change lemma (Ghys and de la Harpe, "Sur les groupes hyperboliques
d'apres Mikhael Gromov", ch. 2): if no triple seen from one basepoint scores
more than D, no quadruple scores more than 2 D.  This is the package's only
numpy module.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress, repeat
from operator import sub
from typing import List, Sequence, Tuple

from ._exact import cut_repr

# the most points of a metric checked and scanned on Python int rows whatever
# its entries; past it only one whose doubled peak passes int64.  At 96 points
# the pure check and scan take ~16-19 ms on star, grid and random-band metrics,
# ~6 ms on a tree (the scan stops after one basepoint), ~23 ms on rounded
# Euclidean ones and ~40-80 ms on a tree plus two to ten chords, where the row
# bound keeps the most pairs, against ~19-25 ms in numpy after its ~75-110 ms
# import.  Rows still beat numpy's import plus check plus scan on all these
# shapes at 104 and 128 points, but no benchmark job has more than 96 points
# yet (seeded metrics, 2-vCPU Xeon VM, Python 3.11, numpy 2.4)
_SMALL = 96

# the largest int64; an array holds a metric only while twice its peak is at most this
_INT64_MAX = 2**63 - 1

# elements of one min(P[x], P[y]) block; keeps the numpy scan's memory O(n^2)
_CHUNK = 2**17


def _primitive(numerators: Sequence[Sequence[int]],
               denominators: Sequence[Sequence[int]]) -> Tuple[List[int], Fraction]:
    """The entries numerators[i][j] / denominators[i][j], row-major, as
    ``(ints, unit)``: the primitive integers and the positive Fraction unit
    with entry == int * unit.  Denominators are positive, as
    ``_exact.rational_row`` reads them."""
    dens = [d for row in denominators for d in row]
    distinct = set(dens)
    scale = math.lcm(*distinct)
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
    return _rows(ints, len(numerators)), unit


def _rows(ints: List[int], n: int) -> List[List[int]]:
    return [ints[i * n : i * n + n] for i in range(n)]


def _peak(ints: List[int]) -> int:
    """The largest magnitude among ``ints``, taken over Python ints: it cannot
    wrap, and a huge negative entry reaches the positivity check."""
    return max(max(ints, default=0), -min(ints, default=0))


def scaled_array(numerators: Sequence[Sequence[int]], denominators: Sequence[Sequence[int]]):
    """The square matrix of rationals numerators[i][j] / denominators[i][j] as ``(array, unit)``.

    ``unit`` is a positive Fraction and ``array`` the n x n primitive integer
    entries with d(i, j) = array[i, j] * unit.  Every value the checks and the
    scan form lies within twice the peak magnitude, so the dtype is the first
    of int16, int32 and int64 whose maximum holds 2 * peak.  Past that it
    raises OverflowError: ``metric_array`` keeps such a metric on rows.
    """
    ints, unit = _primitive(numerators, denominators)
    return _array(ints, len(numerators), _peak(ints)), unit


def _array(ints: List[int], n: int, peak: int):
    import numpy as np

    for dtype in np.int16, np.int32, np.int64:
        if 2 * peak <= np.iinfo(dtype).max:
            return np.array(ints, dtype=dtype).reshape(n, n)
    raise OverflowError("twice the peak entry passes int64")


def metric_array(numerators: Sequence[Sequence[int]], denominators: Sequence[Sequence[int]],
                 labels: Sequence):
    """The checked primitive matrix of a metric and its unit: rows of Python
    ints, as ``scaled_rows`` builds them, for at most ``_SMALL`` points or
    where twice the peak entry passes int64, and ``scaled_array``'s array
    otherwise.  A failed axiom raises ValueError naming its first bad pair,
    row-major, in either form."""
    ints, unit = _primitive(numerators, denominators)
    n = len(numerators)
    if n <= _SMALL or 2 * (peak := _peak(ints)) > _INT64_MAX:
        rows = _rows(ints, n)
        check_rows(rows, labels)
        return rows, unit
    arr = _array(ints, n, peak)
    check_array(arr, labels)
    return arr, unit


def check_rows(rows: List[List[int]], labels: Sequence) -> None:
    """The metric axioms on rows of ints: zero diagonal, symmetry, positivity
    above the diagonal, then the triangle law, each naming its first bad pair.
    A pair's triangle test sums its two rows packed into one int each, every
    two-step path at once."""
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
    # from i to j; a failure at (i, j) is one at (j, i), so the first has i < j.
    # Every two-step path from i to j is at least near[i] + near[j], the
    # distances from i and from j to their nearest other points, so a pair no
    # longer than that meets the law and is not tested
    near = [min(row[:i] + row[i + 1 :], default=0) for i, row in enumerate(rows)]
    packed = None
    for i, row in enumerate(rows):
        ni = near[i]
        for j in range(i + 1, n):
            if row[j] - near[j] > ni:
                if packed is None:
                    packed, ones, guard = _packed(rows)
                # field k holds its top bit plus d(i, k) + d(j, k) - d(i, j): the
                # bit stays set exactly when the path through k is no shorter
                if (packed[i] + packed[j] + guard - row[j] * ones) & guard != guard:
                    raise ValueError(
                        f"triangle inequality fails between {cut_repr(labels[i])} and {cut_repr(labels[j])}"
                    )


def _packed(rows: List[List[int]]) -> Tuple[List[int], int, int]:
    """Each row of nonnegative ints as one int of fixed-width fields, entry k
    in field k, with ``ones`` (1 in every field) and ``guard`` (the top bit of
    every field).  The top bit lies above twice the largest entry, so
    ``guard`` plus, in every field, a value up to that less another neither
    carries nor borrows between fields: two rows' sum less one entry, or a
    Gromov product less a threshold."""
    size = ((2 * max(map(max, rows), default=0)).bit_length() + 8) // 8  # bytes per field
    packed = [int.from_bytes(b"".join([x.to_bytes(size, "little") for x in row]), "little") for row in rows]
    ones = int.from_bytes((b"\x01" + bytes(size - 1)) * len(rows), "little")
    return packed, ones, ones << (8 * size - 1)


def check_array(arr, labels: Sequence) -> None:
    """``check_rows`` on a numpy array from ``scaled_array``; the triangle
    check takes one row of min-plus sums at a time.  Its sums lie within
    twice the peak, so it is exact only in a dtype that holds that, as
    ``scaled_array`` picks it, and not on an array of Python-int (object)
    elements."""
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
    FiniteMetric stores it (rows up to ``_SMALL`` points and past int64, an
    array otherwise), or any square list of lists of ints.  The rows scan is
    exact for ints of any size; the array scan while twice the peak fits
    the dtype, as ``scaled_array`` picks it.  Both stop once the best
    defect reaches twice the first basepoint's, the most any quadruple can
    score.  The rule holds only through ``FiniteMetric`` and
    ``metric_array``: a list is always scanned in pure Python, so a list of
    more than ``_SMALL`` rows gets the pure scan.
    """
    return rows_defect(d) if isinstance(d, list) else array_defect(d)


def _basepoint_scan(d, scan_from, *extra) -> int:
    """``max_defect`` of the metric ``d``, where ``scan_from(d, w, best,
    *extra)`` is the larger of ``best`` and the largest score of the
    quadruples whose smallest point is w, so that every quadruple is seen
    once.

    The first basepoint sees every triple of the other points, so its best
    is D0, the constant of Gromov's product inequality at that basepoint.
    By the basepoint-change lemma no quadruple scores more than 2 * D0, so
    the scan stops once ``best`` reaches that.  On a tree D0 is 0 and one
    basepoint is scanned."""
    best = 0
    for w in range(len(d) - 3):
        best = scan_from(d, w, best, *extra)
        if not w:
            cap = 2 * best
        if best >= cap:
            break
    return best


def rows_defect(rows: Sequence[Sequence[int]]) -> int:
    """``max_defect`` of rows of ints, by the basepoint scan in plain Python.

    From basepoint w, let M[x] be the largest P[x, z] over z != x.  A pair
    (x, y) beats ``best`` exactly when some z has both P[x, z] and P[y, z]
    at least t = P[x, y] + best + 1, so only if t <= M[x] and t <= M[y].
    Each step runs on the rows of P packed one field per later point, in
    the fields ``check_rows`` packs the metric in.  P is symmetric, so one
    fieldwise maximum of the rows holds every M[x].  One mask per x keeps
    the y after it that pass both bounds: 16-76 of the ~41 700 pairs of a
    64-point star, grid or band metric, but most pairs of a tree, where best
    stays 0.  A kept pair is tested with t in every field, two differences
    and two ANDs, and only a hit re-scores it, exactly, over every z.
    Nothing is rounded, so the scan is exact for ints of any size.  It stops
    as ``_basepoint_scan`` says, so a tree costs one basepoint.
    """
    return _basepoint_scan(rows, _rows_from, *_packed(rows))


def _rows_from(rows: Sequence[Sequence[int]], w: int, best: int, packed, ones, guard) -> int:
    """The scan of ``rows_defect`` from basepoint w, starting at ``best``,
    on the metric as ``_packed`` packs it.

    Every packed value whose fields are read holds in each field guard's
    bit plus some v with |v| <= twice the peak, which is below that bit, so
    no field carries into or borrows from the next.  P and M lie in
    [0, 2 peak], and so does best + 1, a defect being below the largest
    pair-sum; a mask's M - best - 1 - P[x, y] is at least -(best + 1), as
    P[x, y] <= M[x] and P[x, y] <= M[y]; and a kept pair's t is at most M[x].
    The row maxima are read less guard's bit, as M itself."""
    off = w + 1
    r = rows[w][off:]
    m = len(r)
    # the fields of w and the points before it are shifted out (guard's bit
    # length is n fields), so field z of ps[x] holds guard's bit plus
    # P[x, off + z].  Field x is cleared from 2 d(x, w) to 0, as z == x
    # never helps a pair (x, y)
    width = guard.bit_length() // len(rows)
    shift = off * width
    ones >>= shift
    guard >>= shift
    pw = (packed[w] >> shift) + guard
    ps = [rz * ones + pw - (pz >> shift) - ((rz + rz) << z * width)
          for z, (rz, pz) in enumerate(zip(r, packed[off:]))]
    # P is symmetric, so field x of the fieldwise maximum holds M[x]
    top = _field_max(ps, guard)
    size = width // 8
    tops = (top - guard).to_bytes(m * size, "little")
    ms = [int.from_bytes(tops[i : i + size], "little") for i in range(0, m * size, size)]
    floor = None  # the best that ``bar`` and ``cap`` are for
    for x, (px, mx) in enumerate(zip(ps, ms)):
        start = x + 1  # the score is symmetric in x and y, and at most 0 when y == x
        while mx > best:
            if floor != best:
                floor = best
                step = (best + 1) * ones
                bar = guard + guard - step
                cap = top + guard - step
            # field y keeps guard's bit exactly when P[x, y] <= M[x] - best - 1 and
            # P[x, y] <= M[y] - best - 1.  P[x, y] <= M[y], so the second
            # difference is at least -(best + 1), and negative wherever M[y] <= best
            kept = ((mx * ones + bar - px) & (cap - px) & guard) >> start * width
            if not kept:
                break
            rx, dx = r[x] + best + 1, rows[off + x]
            # the top byte of each field of ``kept`` is guard's bit or 0
            for y in compress(range(start, m), kept.to_bytes((m - start) * size, "little")[size - 1 :: size]):
                # field z keeps guard's bit less t exactly when P[., z] >= t
                t = (rx + r[y] - dx[off + y]) * ones
                if (px - t) & (ps[y] - t) & guard:
                    # with V[x][z] = d(z, w) - d(x, z), P[x, z] - P[x, y] = V[x][z] - V[x][y],
                    # and so for y; z == x and z == y score at most 0
                    vx = list(map(sub, r, dx[off:]))
                    vy = list(map(sub, r, rows[off + y][off:]))
                    best = max(map(min, map(sub, vx, repeat(vx[y])), map(sub, vy, repeat(vy[x]))))
                    start = y + 1  # the rest of x's pairs against the new best
                    break
            else:
                break
    return best


def _field_max(rows: Sequence[int], guard: int) -> int:
    """The fieldwise maximum of ints of fixed-width fields, each field
    holding guard's bit plus a value below that bit, as ``_rows_from``'s rows
    hold them; so does the result.  Per row: one difference holds, in every
    field, guard's bit plus the maximum so far less the row's value, keeping
    that bit where the maximum is at least the row's; the bit, spread below
    itself, selects that excess, and the row plus the excess is the larger."""
    k = (guard & -guard).bit_length() - 1  # a field's top bit
    low = guard - (guard >> k)  # every bit of every field below its top bit
    top = rows[0]
    for p in rows[1:]:
        diff = top - (p & low)
        ge = diff & guard
        top = p + (diff & (ge - (ge >> k)))
    return top


def array_defect(arr) -> int:
    """``max_defect`` of a numpy array from ``scaled_array``, by the basepoint
    scan in row chunks, stopped as ``_basepoint_scan`` says."""
    return _basepoint_scan(arr, _array_from)


def _array_from(arr, w: int, best: int) -> int:
    """The scan of ``array_defect`` from basepoint w, starting at ``best``.
    Every value it forms lies within twice the peak, so it is exact only in
    a dtype that holds that, as ``scaled_array`` picks it, and not on an
    array of Python-int (object) elements."""
    import numpy as np

    r = arr[w, w + 1 :]
    prod = r[:, None] + r[None, :] - arr[w + 1 :, w + 1 :]
    m = len(r)
    step = max(1, _CHUNK // (m * m))
    for lo in range(0, m, step):
        # the score is symmetric in x and y, so y < lo was met as an x row
        rows = prod[lo : lo + step]
        pairs = np.minimum(rows[:, None, :], prod[None, lo:]).max(axis=2)
        # a Python int, so that twice it cannot wrap: twice an int16 best can
        best = max(best, int((pairs - rows[:, lo:]).max()))
    return best

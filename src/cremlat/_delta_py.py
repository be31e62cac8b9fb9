"""A metric as one primitive integer matrix: scaled, checked and scanned.

The unit of a metric is the largest rational of which every entry is an
integer multiple (the gcd of the entries over their least common
denominator), so its matrix is primitive: the entries have gcd 1.

The matrix is a list of rows of Python ints, checked and scanned in plain
Python, exactly at any size and for entries of any size.  The triangle
check packs each row once into one int, one fixed-width field per point,
tests a pair's every two-step path with one sum, and hands the packing to
the scan, which forms each basepoint's rows of Gromov products in the same
fields: one fieldwise maximum of them bounds every row, one mask per point
keeps the few pairs that pass the bounds, and a kept pair is tested with two
differences and two ANDs.

The four-point kernel scans doubled Gromov products (Fournier, Ismail and
Vigneron, "Computing the Gromov hyperbolicity of a discrete metric space",
IPL 2015): seen from a basepoint w,

    P[x, y] = d(x, w) + d(y, w) - d(x, y)
    defect(x, y, z, w) = min(P[x, z], P[y, z]) - P[x, y]

is the pair-sum d(x, y) + d(z, w) minus the larger of the other two, so the
maximum over the three choices of {x, y} among {x, y, z} is the quadruple's
largest pair-sum minus its second largest.  The scan stops by Gromov's
basepoint-change lemma (Ghys and de la Harpe, "Sur les groupes hyperboliques
d'apres Mikhael Gromov", ch. 2): if no triple seen from one basepoint scores
more than D, no quadruple scores more than 2 D.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress, repeat
from operator import sub
from typing import List, Sequence, Tuple

from ._exact import cut_repr


def scaled_rows(numerators: Sequence[List[int]], denominators: Sequence[Sequence[int]]):
    """The square matrix of rationals numerators[i][j] / denominators[i][j] as
    ``(rows, unit)``: n lists of primitive Python ints and the positive
    Fraction unit, with d(i, j) = rows[i][j] * unit.  Denominators are
    positive, as ``_exact.rational_row`` reads them.  Each row is scaled on
    its own, and rows already primitive are ``numerators``' own lists."""
    scale = math.lcm(*{d for row in denominators for d in row})
    rows = numerators
    if scale != 1:
        rows = [[x * (scale // d) for x, d in zip(row, dens)] for row, dens in zip(rows, denominators)]
    common = math.gcd(*[math.gcd(*row) for row in rows]) or 1
    if common != 1:
        rows = [[x // common for x in row] for row in rows]
    return rows, Fraction(common, scale)


def check_rows(rows: List[List[int]], labels: Sequence) -> Tuple[List[int], int, int]:
    """The metric axioms on rows of ints: zero diagonal, symmetry, positivity
    above the diagonal, then the triangle law, each naming its first bad pair.
    A pair's triangle test sums its two rows packed by ``_packed``, every
    two-step path at once; the packing is returned for ``max_defect``."""
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
    # packed only now: a negative entry has no field, and its message comes first
    packed, ones, guard = _packed(rows)
    # with symmetry, min over k of d(i, k) + d(j, k) is the shortest two-step path
    # from i to j; a failure at (i, j) is one at (j, i), so the first has i < j.
    # Every two-step path from i to j is at least near[i] + near[j], the
    # distances from i and from j to their nearest other points, so a pair no
    # longer than that meets the law and is not tested
    near = [min(row[:i] + row[i + 1 :], default=0) for i, row in enumerate(rows)]
    for i, row in enumerate(rows):
        ni = near[i]
        for j in range(i + 1, n):
            # field k holds its top bit plus d(i, k) + d(j, k) - d(i, j): the
            # bit stays set exactly when the path through k is no shorter
            if row[j] - near[j] > ni and (packed[i] + packed[j] + guard - row[j] * ones) & guard != guard:
                raise ValueError(
                    f"triangle inequality fails between {cut_repr(labels[i])} and {cut_repr(labels[j])}"
                )
    return packed, ones, guard


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


def max_defect(rows: Sequence[Sequence[int]], packed: List[int], ones: int, guard: int) -> int:
    """Largest difference of the two largest pair-sums over all quadruples.

    For each quadruple i<j<k<l the three pairings are d[i][j]+d[k][l],
    d[i][k]+d[j][l], d[i][l]+d[j][k]; the defect is (largest - second
    largest).  Returns the maximum defect, 0 for fewer than four points.
    ``rows`` must be a metric given as a square list of rows of ints, as
    ``scaled_rows`` builds and ``check_rows`` checks it, and ``packed``,
    ``ones`` and ``guard`` the packing ``check_rows`` returns: the triangle
    law makes every choice with repeated points score <= 0.

    The scan runs from each basepoint w in turn over the quadruples whose
    smallest point is w, so that every quadruple is seen once.  From w, let
    M[x] be the largest P[x, z] over z != x.  A pair (x, y) beats ``best``
    exactly when some z has both P[x, z] and P[y, z] at least
    t = P[x, y] + best + 1, so only if t <= M[x] and t <= M[y].  Each step
    runs on the rows of P packed one field per later point, in the fields
    of ``packed``.  P is symmetric, so one fieldwise maximum of the rows
    holds every M[x].  One mask per x keeps the y after it that pass both
    bounds: 16-76 of the ~41 700 pairs of a 64-point star, grid or band
    metric, but most pairs of a tree, where best stays 0.  A
    kept pair is tested with t in every field, two differences and two ANDs,
    and only a hit re-scores it, exactly, over every z.  Nothing is rounded,
    so the scan is exact for ints of any size.

    The first basepoint sees every triple of the other points, so its best
    is D0, the constant of Gromov's product inequality at that basepoint.
    By the basepoint-change lemma no quadruple scores more than 2 * D0, so
    the scan stops once ``best`` reaches that.  On a tree D0 is 0 and one
    basepoint is scanned.
    """
    best = 0
    for w in range(len(rows) - 3):
        best = _rows_from(rows, w, best, packed, ones, guard)
        if not w:
            cap = 2 * best
        if best >= cap:
            break
    return best


def _rows_from(rows: Sequence[Sequence[int]], w: int, best: int, packed, ones, guard) -> int:
    """The scan of ``max_defect`` from basepoint w, starting at ``best``,
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

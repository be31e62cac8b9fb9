"""Numerical characteristics of plane birational maps.

A characteristic records a degree d, the base points of the map with their
multiplicities, the base points of the inverse with theirs, and optionally
the resolution intersection matrix a[i][j] pairing the total transforms
above inverse point q_i and base point p_j.  The two identities

    3(d - 1) = sum(m) = sum(m')        (linear)
    d^2 - 1  = sum(m^2) = sum(m'^2)    (quadratic)

hold for every plane birational map; validate() checks them and the bound
1 <= m <= d - 1.  Construction only enforces structural sanity so that
validate() can report violations instead of never being reachable.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple

from ._exact import cut_repr, exact_int, exact_rational
from .bubble import PointId
from .errors import (
    BasePointCollision,
    InvalidCharacteristic,
    MissingResolutionData,
    UnsupportedClassSupport,
)

if TYPE_CHECKING:
    from .lattice import PicardManinClass

Q = Fraction
Weighted = Tuple[PointId, int]


def _freeze_side(side: Iterable, name: str) -> Tuple[Weighted, ...]:
    out = []
    seen = set()
    pid_what, mult_what = f"{name} point id", f"{name} multiplicity"
    for pid, mult in side:
        pid = exact_int(pid, pid_what)
        mult = exact_int(mult, mult_what)
        if pid in seen:
            raise ValueError(f"duplicate {name} point {cut_repr(pid)}")
        if mult <= 0:
            raise ValueError(
                f"{name} multiplicity at {cut_repr(pid)} must be positive, got {cut_repr(mult)}"
            )
        seen.add(pid)
        out.append((pid, mult))
    return tuple(out)


class Characteristic:
    __slots__ = ("_degree", "_base", "_inverse", "_resolution")

    def __init__(
        self,
        degree: int,
        base: Iterable[Weighted] = (),
        inverse_base: Iterable[Weighted] = (),
        resolution: Optional[Sequence[Sequence]] = None,
    ) -> None:
        degree = exact_int(degree, "degree")
        if degree < 1:
            raise ValueError(f"degree must be positive, got {cut_repr(degree)}")
        self._degree = degree
        self._base = _freeze_side(base, "base")
        self._inverse = _freeze_side(inverse_base, "inverse base")
        if resolution is None:
            self._resolution = None
        else:
            rows = tuple(
                tuple(exact_rational(x, "resolution entry") for x in row) for row in resolution
            )
            if len(rows) != len(self._inverse) or any(
                len(row) != len(self._base) for row in rows
            ):
                raise ValueError(
                    "resolution matrix must have one row per inverse point "
                    "and one column per base point"
                )
            self._resolution = rows

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def base(self) -> Tuple[Weighted, ...]:
        return self._base

    @property
    def inverse_base(self) -> Tuple[Weighted, ...]:
        return self._inverse

    @property
    def resolution(self) -> Optional[Tuple[Tuple[Q, ...], ...]]:
        return self._resolution

    def base_ids(self) -> Tuple[PointId, ...]:
        return tuple(p for p, _ in self._base)

    def inverse_ids(self) -> Tuple[PointId, ...]:
        return tuple(q for q, _ in self._inverse)

    def base_multiplicities(self) -> Tuple[int, ...]:
        return tuple(sorted((m for _, m in self._base), reverse=True))

    def inverse_multiplicities(self) -> Tuple[int, ...]:
        return tuple(sorted((m for _, m in self._inverse), reverse=True))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Characteristic):
            return NotImplemented
        return (
            self._degree == other._degree
            and self._base == other._base
            and self._inverse == other._inverse
            and self._resolution == other._resolution
        )

    def __hash__(self) -> int:
        return hash((self._degree, self._base, self._inverse))

    def __repr__(self) -> str:
        mults = ",".join(str(m) for m in self.base_multiplicities())
        return f"Characteristic(degree={self._degree}, mults=[{mults}])"


class NoetherViolation(NamedTuple):
    identity: str  # linear | quadratic | bounds
    side: str  # base | inverse
    detail: str

    def __str__(self) -> str:
        return f"{self.identity}/{self.side}: {self.detail}"


class CharacteristicReport(NamedTuple):
    violations: Tuple[NoetherViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def side_violations(d: int, side: str, mults: Sequence[int]) -> Tuple[NoetherViolation, ...]:
    """Check both identities and the multiplicity bounds on one side of degree d."""
    violations = []
    linear = sum(mults)
    if linear != 3 * (d - 1):
        violations.append(
            NoetherViolation(
                "linear", side, f"sum {cut_repr(linear)} != 3(d-1) = {cut_repr(3 * (d - 1))}"
            )
        )
    quadratic = sum(m * m for m in mults)
    if quadratic != d * d - 1:
        violations.append(
            NoetherViolation(
                "quadratic",
                side,
                f"sum of squares {cut_repr(quadratic)} != d^2-1 = {cut_repr(d * d - 1)}",
            )
        )
    if d == 1:
        if mults:
            violations.append(NoetherViolation("bounds", side, "degree 1 must have no base points"))
    else:
        bad = [m for m in mults if not 1 <= m <= d - 1]
        if bad:
            violations.append(
                NoetherViolation(
                    "bounds", side, f"multiplicities {cut_repr(bad)} outside [1, {cut_repr(d - 1)}]"
                )
            )
    return tuple(violations)


def validate(char: Characteristic) -> CharacteristicReport:
    """Check both identities and the multiplicity bounds on each side."""
    d = char.degree
    violations = side_violations(d, "base", [m for _, m in char.base]) + side_violations(
        d, "inverse", [m for _, m in char.inverse_base]
    )
    return CharacteristicReport(violations)


def require_valid(char: Characteristic) -> None:
    report = validate(char)
    if not report.ok:
        raise InvalidCharacteristic("; ".join(map(str, report.violations)))


def is_jonquieres(char: Characteristic) -> bool:
    """True iff the base multiset is (d-1, 1^(2d-2)); degrees 1 and 2 qualify."""
    require_valid(char)
    d = char.degree
    if d <= 2:
        return True
    counts = Counter(m for _, m in char.base)
    return counts == Counter({d - 1: 1, 1: 2 * d - 2})


def md(char: Characteristic) -> int:
    """Number of distinct base multiplicities; zero for degree 1."""
    require_valid(char)
    return len({m for _, m in char.base})


def apply(
    char: Characteristic,
    c: PicardManinClass,
    image_map: Optional[Mapping[PointId, PointId]] = None,
) -> PicardManinClass:
    """Push a class through the map's action on the lattice.

    New degree is n*d - sum(lambda_j * m_j) over the base points; the
    multiplicity at inverse point q_i is n*m'_i - sum(lambda_j * a[i][j]);
    support away from the base is carried by ``image_map``.  The action is
    an isometry of the pairing.
    """
    from .lattice import PicardManinClass

    if char.resolution is None:
        raise MissingResolutionData("apply needs the resolution matrix")
    image_map = dict(image_map or {})
    base_ids = char.base_ids()
    base_index = {p: j for j, p in enumerate(base_ids)}
    outside = [p for p in c.support if p not in base_index]
    missing = [p for p in outside if p not in image_map]
    if missing:
        raise UnsupportedClassSupport(f"no image for support points {cut_repr(sorted(missing))}")
    inverse_ids = set(char.inverse_ids())
    targets = [image_map[p] for p in outside]
    if len(set(targets)) != len(targets) or inverse_ids & set(targets):
        raise UnsupportedClassSupport("image points collide with inverse base points")

    n = c.degree
    lam = [c.mult(p) for p in base_ids]
    new_degree = n * char.degree - sum(l * m for l, (_, m) in zip(lam, char.base))
    mults: Dict[PointId, Q] = {}
    for i, (q, m_prime) in enumerate(char.inverse_base):
        row = char.resolution[i]
        mults[q] = n * m_prime - sum(l * a for l, a in zip(lam, row))
    for p in outside:
        mults[image_map[p]] = c.mult(p)
    return PicardManinClass(new_degree, mults)


def inverse(char: Characteristic) -> Characteristic:
    """Characteristic of the inverse map: sides swapped, matrix transposed."""
    resolution = None
    if char.resolution is not None:
        resolution = tuple(zip(*char.resolution)) if char.resolution else ()
    return Characteristic(
        char.degree,
        base=char.inverse_base,
        inverse_base=char.base,
        resolution=resolution,
    )


def compose_disjoint(g: Characteristic, f: Characteristic) -> Characteristic:
    """Characteristic of g o f when the relevant loci share no points.

    Requires the base ids of g and the inverse-base ids of f to be
    disjoint; the composed degree is then the product.  Base side: f's
    points with multiplicities scaled by deg(g), plus g's base points
    pulled back with unchanged multiplicities.  Inverse side symmetric.
    Pulled-back points keep their ids unless that would collide with a
    retained id on the same side, in which case fresh ids are assigned
    deterministically (max id + 1, ascending).
    """
    if set(g.base_ids()) & set(f.inverse_ids()):
        shared = sorted(set(g.base_ids()) & set(f.inverse_ids()))
        raise BasePointCollision(
            f"base of outer map meets inverse base of inner map: {cut_repr(shared)}"
        )

    all_ids = set(g.base_ids()) | set(g.inverse_ids()) | set(f.base_ids()) | set(f.inverse_ids())
    next_fresh = max(all_ids, default=-1) + 1

    def merge(scaled: Tuple[Weighted, ...], factor: int, carried: Tuple[Weighted, ...]):
        nonlocal next_fresh
        out = [(p, m * factor) for p, m in scaled]
        taken = {p for p, _ in out}
        for p, m in carried:
            if p in taken:
                p = next_fresh
                next_fresh += 1
            taken.add(p)
            out.append((p, m))
        return tuple(out)

    base = merge(f.base, g.degree, g.base)
    inverse_side = merge(g.inverse_base, f.degree, f.inverse_base)
    return Characteristic(g.degree * f.degree, base=base, inverse_base=inverse_side)


def identity_characteristic() -> Characteristic:
    return Characteristic(1)


def standard_quadratic(
    base_ids: Sequence[PointId] = (0, 1, 2),
    inverse_ids: Sequence[PointId] = (3, 4, 5),
) -> Characteristic:
    """The quadratic map blowing up three points and blowing down three lines.

    The resolution matrix is a[i][j] = 1 - delta(i, j): the line joining
    p_j and p_k is contracted onto q_i for {i, j, k} = {0, 1, 2}.
    """
    if len(set(base_ids)) != 3 or len(set(inverse_ids)) != 3:
        raise ValueError("standard quadratic needs three base and three inverse ids")
    matrix = [[0 if i == j else 1 for j in range(3)] for i in range(3)]
    return Characteristic(
        2,
        base=[(p, 1) for p in base_ids],
        inverse_base=[(q, 1) for q in inverse_ids],
        resolution=matrix,
    )


def jonquieres_characteristic(
    degree: int,
    base_ids: Optional[Sequence[PointId]] = None,
    inverse_ids: Optional[Sequence[PointId]] = None,
) -> Characteristic:
    """A pencil-preserving characteristic of the given degree, with matrix.

    Base pattern (d-1, 1^(2d-2)); id sequences list the center first.  The
    resolution matrix pairs small points one to one: a[0][0] = d - 2,
    first row and column 1 elsewhere, identity on the small block.
    """
    k = exact_int(degree, "degree")
    if k < 2:
        raise ValueError("pencil-preserving characteristics start at degree 2")
    count = 2 * k - 1
    if base_ids is None:
        base_ids = tuple(range(count))
    if inverse_ids is None:
        inverse_ids = tuple(range(count, 2 * count))
    base_ids = tuple(exact_int(p, "base point id") for p in base_ids)
    inverse_ids = tuple(exact_int(q, "inverse point id") for q in inverse_ids)
    if len(set(base_ids)) != count or len(set(inverse_ids)) != count:
        raise ValueError(f"degree {cut_repr(k)} needs {cut_repr(count)} distinct ids per side")
    matrix = [[Q(0)] * count for _ in range(count)]
    matrix[0][0] = Q(k - 2)
    for i in range(1, count):
        matrix[0][i] = Q(1)
        matrix[i][0] = Q(1)
        matrix[i][i] = Q(1)
    mults = (k - 1,) + (1,) * (2 * k - 2)
    return Characteristic(
        k,
        base=list(zip(base_ids, mults)),
        inverse_base=list(zip(inverse_ids, mults)),
        resolution=matrix,
    )

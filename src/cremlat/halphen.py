"""The rank-10 lattice Z*l + Z*e_0 + ... + Z*e_8 and its twist translations.

Vectors are stored as basis coefficients (n, c_0, ..., c_8), meaning
n*l + sum(c_i * e_i); the pairing is n*n' - sum(c_i * c'_i).  The canonical
vector K = -3l + e_0 + ... + e_8 has K.K = 0, and every a with a.K = 0 and
a.a even defines the lattice translation

    t_a(d) = d - (K.d) a + (a.d - (K.d)(a.a)/2) K,

an isometry fixing K, with t_a o t_b = t_{a+b}.  Iterating on the line
class produces the degree-growth quadratic form 9(n^2 + m^2 + nm) + 1.

Every pairing (HalphenVector.pair, the TwistParam checks, translate) runs
on one kernel, _pair, over plain int coordinate tuples.  A TwistParam keeps
the a.a / 2 its check computes, so a translation pairs a only with K and d.

When a vector is read as a map characteristic the multiplicities are the
negated e-coefficients; multiplicities() exposes that reading.
"""

from __future__ import annotations

import operator
from typing import TYPE_CHECKING, Sequence, Tuple, Union

from ._exact import cut_repr, exact_int
from .errors import IdentityTwist, NotInKPerp

if TYPE_CHECKING:
    from .cremona import Characteristic

RANK = 10


def _pair(a: Tuple[int, ...], b: Tuple[int, ...]) -> int:
    """The pairing on coordinate tuples: the one kernel every pairing runs on."""
    # n*n' - sum(c_i * c'_i), with the l term counted twice in the full sum
    return 2 * a[0] * b[0] - sum(map(operator.mul, a, b))


class HalphenVector:
    """Immutable integer vector in the rank-10 lattice."""

    __slots__ = ("_coords",)

    def __init__(self, coords: Sequence[int]) -> None:
        coords = tuple(exact_int(x, "coordinate") for x in coords)
        if len(coords) != RANK:
            raise ValueError(f"need {RANK} coordinates, got {len(coords)}")
        self._coords = coords

    @classmethod
    def _of(cls, coords: Tuple[int, ...]) -> "HalphenVector":
        """Wrap RANK plain ints without checks: only for results of arithmetic
        on vectors, whose coordinates are plain ints already."""
        vector = object.__new__(cls)
        vector._coords = coords
        return vector

    @property
    def coords(self) -> Tuple[int, ...]:
        return self._coords

    @property
    def degree(self) -> int:
        return self._coords[0]

    def multiplicities(self) -> Tuple[int, ...]:
        """The nine e-coefficients negated (the characteristic reading)."""
        return tuple(-c for c in self._coords[1:])

    def pair(self, other: "HalphenVector") -> int:
        return _pair(self._coords, other._coords)

    def __add__(self, other: "HalphenVector") -> "HalphenVector":
        if not isinstance(other, HalphenVector):
            return NotImplemented
        return HalphenVector._of(tuple(map(operator.add, self._coords, other._coords)))

    def __sub__(self, other: "HalphenVector") -> "HalphenVector":
        if not isinstance(other, HalphenVector):
            return NotImplemented
        return HalphenVector._of(tuple(map(operator.sub, self._coords, other._coords)))

    def __rmul__(self, scalar: int) -> "HalphenVector":
        if type(scalar) is not int:
            if isinstance(scalar, bool) or not isinstance(scalar, int):
                return NotImplemented  # True is not 1
            scalar = operator.index(scalar)  # a plain int, whatever the subclass's *
        return HalphenVector._of(tuple(scalar * x for x in self._coords))

    def __neg__(self) -> "HalphenVector":
        return HalphenVector._of(tuple(map(operator.neg, self._coords)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HalphenVector):
            return NotImplemented
        return self._coords == other._coords

    def __hash__(self) -> int:
        return hash(self._coords)

    def __repr__(self) -> str:
        return f"HalphenVector{self._coords}"


_LINE = HalphenVector((1,) + (0,) * 9)
_K = HalphenVector((-3,) + (1,) * 9)
_K_COORDS = _K.coords


def line_vector() -> HalphenVector:
    return _LINE


def point_vector(i: int) -> HalphenVector:
    """The exceptional basis vector e_i, 0 <= i <= 8."""
    i = exact_int(i, "point index")
    if not 0 <= i <= 8:
        raise ValueError("point index must be in 0..8")
    coords = [0] * RANK
    coords[1 + i] = 1
    return HalphenVector(coords)


def canonical() -> HalphenVector:
    """K = -3l + e_0 + ... + e_8; self-pairing 0."""
    return _K


class TwistParam:
    """A translation parameter: pairs to zero with K, so its self-pairing is even.

    Keeps a.a / 2, which every translation needs.
    """

    __slots__ = ("_vector", "_half_square")

    def __init__(self, vector: HalphenVector) -> None:
        coords = vector._coords
        k_pairing = _pair(coords, _K_COORDS)
        if k_pairing != 0:
            raise NotInKPerp(
                f"{cut_repr(vector)} pairs to {cut_repr(k_pairing)} with the canonical vector"
            )
        # K is characteristic (a.a = a.K mod 2), so a in K-perp has even self-pairing
        self._vector = vector
        self._half_square = _pair(coords, coords) // 2

    @property
    def vector(self) -> HalphenVector:
        return self._vector

    def __repr__(self) -> str:
        return f"TwistParam{self._vector.coords}"


_A1 = TwistParam(point_vector(1) - point_vector(0))
_A2 = TwistParam(point_vector(2) - point_vector(0))


def generator_a1() -> TwistParam:
    """e_1 - e_0, the first of the two commuting twist directions."""
    return _A1


def generator_a2() -> TwistParam:
    """e_2 - e_0, the second twist direction."""
    return _A2


def translate(a: Union[TwistParam, HalphenVector], d: HalphenVector) -> HalphenVector:
    """Apply the translation isometry t_a to d.

    The (K.d)(a.a)/2 term is integral because a.a is even, so the output
    stays in the integer lattice.
    """
    if not isinstance(a, TwistParam):
        a = TwistParam(a)
    vec, coords = a._vector._coords, d._coords
    kd = _pair(_K_COORDS, coords)
    coefficient = _pair(vec, coords) - kd * a._half_square
    return HalphenVector._of(
        tuple(x - kd * y + coefficient * k for x, y, k in zip(coords, vec, _K_COORDS))
    )


def _twist_vector(n: int, m: int) -> TwistParam:
    """n a_1 + m a_2 = (m + n)(-e_0) + n e_1 + m e_2, the (n, m) twist's parameter."""
    n, m = exact_int(n, "n"), exact_int(m, "m")  # refuses 1.5 and True
    return TwistParam(HalphenVector._of((0, -n - m, n, m, 0, 0, 0, 0, 0, 0)))


def twist_degree(n: int, m: int) -> int:
    """Degree of the (n, m) twist, computed in the lattice.

    Equals 9(n^2 + m^2 + nm) + 1; tests compare against that closed form.
    """
    return translate(_twist_vector(n, m), _LINE)._coords[0]


def twist_characteristic(n: int, m: int) -> Characteristic:
    """Characteristic of the (n, m) twist, read off the lattice action.

    Inverse-base multiplicities come from the forward translate of the line
    class, base multiplicities from the backward translate; both sides use
    the marked point ids 0..8, dropping zero entries.
    """
    from .cremona import Characteristic

    a = _twist_vector(n, m)
    if not any(a.vector.coords):
        raise IdentityTwist("the (0, 0) twist is the identity")
    forward = translate(a, _LINE)
    backward = translate(-a.vector, _LINE)
    base = [(i, mult) for i, mult in enumerate(backward.multiplicities()) if mult != 0]
    inverse = [(i, mult) for i, mult in enumerate(forward.multiplicities()) if mult != 0]
    return Characteristic(forward.degree, base=base, inverse_base=inverse)

"""Finitely supported classes n*l - sum(lambda_p * e_p) and their geometry.

The pairing is n*n' - sum(lambda_p * lambda'_p): the line class l has
self-intersection 1, each exceptional class e_p has -1, and the basis is
orthogonal, so the form has signature (1, k) on any finite support.
Classes of self-intersection 1 with n > 0 form the hyperboloid model, with
distance argcosh of the pairing.

Every coefficient is a Fraction and all arithmetic is exact; only distance
produces a float.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Mapping, NamedTuple, Optional, Tuple, Union

from ._exact import cut_repr, exact_int, exact_rational
from .bubble import Configuration, PointId
from .errors import InvalidPair, NotOnHyperboloid, UnknownPoint

Q = Fraction
Scalar = Union[int, Fraction]


class PicardManinClass:
    """Immutable class with degree coefficient and multiplicity map.

    ``mults[p]`` is the multiplicity lambda_p, so the class equals
    degree * l - sum(mults[p] * e_p).  Zero multiplicities are dropped.
    """

    __slots__ = ("_degree", "_mults")

    def __init__(self, degree: Scalar, mults: Optional[Mapping[PointId, Scalar]] = None) -> None:
        self._degree = exact_rational(degree, "class coefficient")
        items: Dict[PointId, Fraction] = {}
        if mults:
            for p, v in mults.items():
                p, v = exact_int(p, "point id"), exact_rational(v, "class coefficient")
                if v != 0:
                    items[p] = v
        self._mults = dict(sorted(items.items()))

    @property
    def degree(self) -> Fraction:
        return self._degree

    @property
    def mults(self) -> Dict[PointId, Fraction]:
        return dict(self._mults)

    @property
    def support(self) -> Tuple[PointId, ...]:
        return tuple(self._mults)

    def mult(self, p: PointId) -> Fraction:
        return self._mults.get(exact_int(p, "point id"), Q(0))

    def __add__(self, other: "PicardManinClass") -> "PicardManinClass":
        if not isinstance(other, PicardManinClass):
            return NotImplemented
        mults = dict(self._mults)
        for p, v in other._mults.items():
            mults[p] = mults.get(p, 0) + v
        return PicardManinClass(self._degree + other._degree, mults)

    def __sub__(self, other: "PicardManinClass") -> "PicardManinClass":
        if not isinstance(other, PicardManinClass):
            return NotImplemented
        mults = dict(self._mults)
        for p, v in other._mults.items():
            mults[p] = mults.get(p, 0) - v
        return PicardManinClass(self._degree - other._degree, mults)

    def __rmul__(self, scalar: Scalar) -> "PicardManinClass":
        if isinstance(scalar, bool) or not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return PicardManinClass(
            scalar * self._degree, {p: scalar * v for p, v in self._mults.items()}
        )

    def __neg__(self) -> "PicardManinClass":
        return -1 * self

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PicardManinClass):
            return NotImplemented
        return self._degree == other._degree and self._mults == other._mults

    def __hash__(self) -> int:
        return hash((self._degree, tuple(self._mults.items())))

    def __repr__(self) -> str:
        if not self._mults:
            return f"PicardManinClass({self._degree!r})"
        body = ", ".join(f"{p}: {v!r}" for p, v in self._mults.items())
        return f"PicardManinClass({self._degree!r}, {{{body}}})"


def line() -> PicardManinClass:
    """The class of a general line."""
    return PicardManinClass(1)


def exceptional(p: PointId) -> PicardManinClass:
    """The class e_p of the exceptional divisor above p."""
    return PicardManinClass(0, {p: -1})


def intersect(c: PicardManinClass, d: PicardManinClass) -> Fraction:
    """Exact pairing n*n' - sum over common support of lambda*lambda'."""
    total = c.degree * d.degree
    small, large = (c, d) if len(c.support) <= len(d.support) else (d, c)
    for p, v in small._mults.items():
        w = large._mults.get(p)
        if w is not None:
            total -= v * w
    return total


def self_intersection(c: PicardManinClass) -> Fraction:
    return intersect(c, c)


def distance(c: PicardManinClass, d: PicardManinClass) -> float:
    """Hyperbolic distance argcosh(c . d) between hyperboloid classes.

    Past the float range argcosh(p) is log 2 + log p to within one ulp, and
    log reads the numerator and denominator of the exact pairing as they are.
    """
    for label, cls in (("first", c), ("second", d)):
        if self_intersection(cls) != 1:
            raise NotOnHyperboloid(
                f"{label} class has self-intersection {cut_repr(self_intersection(cls))}"
            )
    product = intersect(c, d)
    if product < 1:
        raise InvalidPair(f"pairing {cut_repr(product)} < 1")
    try:
        return math.acosh(float(product))
    except OverflowError:
        return math.log(2) + math.log(product.numerator) - math.log(product.denominator)


class CurveWitness(NamedTuple):
    """A curve of the checked family on which the product count went negative."""

    kind: str  # pair_line | declared_line | five_conic | declared_conic
    points: Tuple[PointId, ...]
    residual: Fraction


class ECheckReport(NamedTuple):
    """Outcome of the four membership conditions: each holds exactly when
    it has no witness (for the anticanonical one, when the margin is >= 0)."""

    negative_point: Optional[PointId]
    anticanonical_margin: Fraction
    excess_point: Optional[PointId]
    bezout_witness: Optional[CurveWitness]

    @property
    def nonneg_mults(self) -> bool:
        return self.negative_point is None

    @property
    def anticanonical(self) -> bool:
        return self.anticanonical_margin >= 0

    @property
    def excesses(self) -> bool:
        return self.excess_point is None

    @property
    def bezout(self) -> bool:
        return self.bezout_witness is None

    @property
    def in_E(self) -> bool:
        return self.nonneg_mults and self.anticanonical and self.excesses and self.bezout


def _bezout_witness(c: PicardManinClass, config: Configuration) -> Optional[CurveWitness]:
    """First failing curve among the implemented family, or None.

    The family: lines through two distinct proper points, declared
    collinear sets, conics through five proper points, declared conic
    sets.  Higher-degree curves are not enumerated; this makes the check
    an under-approximation for adversarial inputs.

    For the pair and five-point families the minimum residual is attained
    at the proper points of largest multiplicity, so only that extremal
    curve is tested: the proper support ranked by multiplicity (ties by
    ascending id), then the proper points outside the support by id (their
    multiplicity is zero).  A configuration short on points just checks the
    curve through the points that exist (such a curve always does).
    """
    n = c.degree
    ranked = sorted((p for p in c.support if config.is_proper(p)), key=lambda p: (-c.mult(p), p))
    ranked += [p for p in config.proper_points() if p not in c._mults]
    curves = [
        ("pair_line", 1, ranked[:2]),
        *(("declared_line", 1, s) for s in sorted(config.collinear_sets, key=sorted)),
        ("five_conic", 2, ranked[:5]),
        *(("declared_conic", 2, s) for s in sorted(config.conic_sets, key=sorted)),
    ]
    for kind, curve_degree, points in curves:
        residual = curve_degree * n - sum(c.mult(p) for p in points)
        if points and residual < 0:
            return CurveWitness(kind, tuple(sorted(points)), residual)
    return None


def _require_support(c: PicardManinClass, config: Configuration) -> None:
    for p in c.support:
        if p not in config:
            raise UnknownPoint(f"class supported at {cut_repr(p)}, absent from configuration")


def in_E(c: PicardManinClass, config: Configuration) -> ECheckReport:
    """Membership report for the convex set of effective-side classes.

    Conditions: (1) every multiplicity nonnegative; (2) pairing against the
    anti-canonical class nonnegative, i.e. 3n - sum(lambda) >= 0; (3) at
    every point with children, the excess lambda_p - sum of the children's
    lambda is nonnegative (at childless points the excess equals condition
    (1), so it is not re-checked); (4) the product count against the
    implemented curve family is nonnegative.
    """
    _require_support(c, config)

    negative = [p for p in c.support if c.mult(p) < 0]
    margin = 3 * c.degree - sum(c._mults.values())

    excess_witness = None
    for p in sorted(c.support):
        kids = config.children(p)
        if not kids:
            continue
        excess = c.mult(p) - sum(c.mult(q) for q in kids)
        if excess < 0:
            excess_witness = p
            break

    return ECheckReport(
        negative_point=min(negative, default=None),
        anticanonical_margin=margin,
        excess_point=excess_witness,
        bezout_witness=_bezout_witness(c, config),
    )


def is_special(c: PicardManinClass, config: Configuration) -> bool:
    """Whether the three heaviest points form the off-balance pattern.

    Ranks the support by multiplicity (ties by ascending id), takes the top
    three points p0, p1, p2, and requires p1 and p2 to be adherent to p0
    with n - lambda_0 - lambda_1 - lambda_2 < 0.
    """
    _require_support(c, config)
    if len(c.support) < 3:
        return False
    ranked = sorted(c.support, key=lambda p: (-c.mult(p), p))
    p0, p1, p2 = ranked[:3]
    if config.parent(p1) != p0 or config.parent(p2) != p0:
        return False
    return c.degree - c.mult(p0) - c.mult(p1) - c.mult(p2) < 0

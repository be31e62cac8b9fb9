"""Decomposition-length bounds for plane birational maps.

The number of pencil-preserving factors needed to write a map is bounded
below by two proven quantities (one from the count of distinct base
multiplicities, one from the degree when there are at most nine base
points) and above by a greedy search.  Each greedy step reads only the
degree and the base multiset: it divides out the pencil-preserving factor
that minimizes the composed degree and revalidates the leftover base side.
The greedy model assumes generic positions: any center plus small-point
choice is deemed feasible.  Its step count is a true upper bound in that
model and a heuristic otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .cremona import (
    Characteristic,
    Weighted,
    jonquieres_characteristic,
    md,
    require_valid,
    side_violations,
)
from .errors import InvalidCharacteristic, NoDecrease, TooManyBasePoints


@dataclass(frozen=True)
class LengthBounds:
    """Two lower bounds and the greedy upper bound on the length.

    ``lower_deg`` is None past nine base points.  ``decomposition`` lists
    the greedy factors in the order they are divided out, each as
    (k, degree after it), where k is the degree of the pencil-preserving
    factor; ``upper_greedy`` is its length.
    """

    lower_md: int
    lower_deg: Optional[int]
    upper_greedy: int
    decomposition: Tuple[Tuple[int, int], ...]

    @property
    def lower(self) -> int:
        return max(self.lower_md, self.lower_deg or 0)


def length_lower_md(char: Characteristic) -> int:
    """Least L >= 0 with md <= 2^(L+1) - 2.

    A product of L pencil-preserving maps carries at most 2^(L+1) - 2
    distinct base multiplicities, so L factors are forced.
    """
    require_valid(char)
    count = md(char)
    return (count + 1).bit_length() - 1


def length_lower_deg(char: Characteristic) -> int:
    """ceil(sqrt(d / 5)), valid only with at most nine base points.

    A length-L word of such maps has degree at most 5 L^2.  Degree 1 is
    the empty word, bound 0.
    """
    require_valid(char)
    if len(char.base) > 9:
        raise TooManyBasePoints(
            f"degree bound needs <= 9 base points, got {len(char.base)}"
        )
    d = char.degree
    if d == 1:
        return 0
    target = -(-d // 5)  # ceil(d / 5)
    root = math.isqrt(target - 1) + 1  # ceil of the square root
    return root


@dataclass(frozen=True)
class GreedyStep:
    """One greedy factor and the base side left after dividing it out.

    ``base`` is the exact base side of the leftover map, of degree
    ``degree``: untouched base points keep their ids and the factor's
    inverse points carry fresh ones.  The leftover's inverse side is not
    determined by the record alone and is not modelled.
    """

    jonquieres: Characteristic
    degree: int
    base: Tuple[Weighted, ...]


def _greedy_step(d: int, mults: Sequence[int]) -> Tuple[int, int, Tuple[int, ...]]:
    """One greedy factor on a base multiset listed in descending order.

    The center is mults[0]; for each k from 2 to 1 + floor((#mults - 1) / 2)
    the 2k - 2 small points are the next largest, and k minimizes the
    composed degree d*k - (k-1)*m0 - sum(smalls), ties to the smaller k.
    Returns (k, new degree, leftover) with leftover aligned to mults: slot
    i < 2k - 1 holds the multiplicity at the factor's i-th inverse point
    (zero when it is not a base point of the leftover), later slots keep
    mults[i].  The leftover side is checked against both identities and
    the bounds.
    """
    if d < 2:
        raise NoDecrease("degree 1 has no predecessor")
    center, rest = mults[0], mults[1:]
    best = None
    for k in range(2, 2 + (len(mults) - 1) // 2):
        new_degree = d * k - (k - 1) * center - sum(rest[: 2 * k - 2])
        if best is None or new_degree < best[1]:
            best = (k, new_degree)
    if best is None or best[1] >= d:
        raise NoDecrease(f"no factor drops the degree below {d}")
    k, new_degree = best
    smalls = rest[: 2 * k - 2]
    leftover = (
        (d * (k - 1) - (k - 2) * center - sum(smalls),)
        + tuple(d - center - m for m in smalls)
        + tuple(rest[2 * k - 2 :])
    )
    violations = side_violations(new_degree, "base", [m for m in leftover if m])
    if violations:
        raise InvalidCharacteristic("; ".join(map(str, violations)))
    return k, new_degree, leftover


def greedy_predecessor(char: Characteristic) -> GreedyStep:
    """Best single pencil-preserving factor under the generic-position model.

    The center sits at a base point of maximal multiplicity (smallest id on
    ties) and the small points are the next largest, again by id on ties;
    k follows the greedy rule.  The factor's inverse points take fresh ids
    above every id of the characteristic.
    """
    require_valid(char)
    entries = sorted(char.base, key=lambda pm: (-pm[1], pm[0]))
    k, new_degree, leftover = _greedy_step(char.degree, [m for _, m in entries])
    used = {p for p, _ in char.base} | {q for q, _ in char.inverse_base}
    fresh = max(used) + 1
    inverse_ids = tuple(range(fresh, fresh + 2 * k - 1))
    factor = jonquieres_characteristic(
        k,
        base_ids=[p for p, _ in entries[: 2 * k - 1]],
        inverse_ids=inverse_ids,
    )
    ids = inverse_ids + tuple(p for p, _ in entries[2 * k - 1 :])
    base = tuple((p, m) for p, m in zip(ids, leftover) if m)
    return GreedyStep(jonquieres=factor, degree=new_degree, base=base)


def greedy_length(char: Characteristic) -> LengthBounds:
    """Iterate the greedy step to degree 1 and package all three bounds."""
    lower_md = length_lower_md(char)  # validates char
    lower_deg = length_lower_deg(char) if len(char.base) <= 9 else None
    steps: List[Tuple[int, int]] = []
    degree, mults = char.degree, char.base_multiplicities()
    while degree > 1:
        k, degree, leftover = _greedy_step(degree, mults)
        steps.append((k, degree))
        mults = sorted((m for m in leftover if m), reverse=True)
    return LengthBounds(
        lower_md=lower_md,
        lower_deg=lower_deg,
        upper_greedy=len(steps),
        decomposition=tuple(steps),
    )

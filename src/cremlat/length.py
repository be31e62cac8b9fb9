"""Decomposition-length bounds for plane birational maps.

The number of pencil-preserving factors needed to write a map is bounded
below by two proven quantities (one from the count of distinct base
multiplicities, one from the degree when there are at most nine base
points) and above by a greedy search.  Each greedy step reads only the
degree and the base multiset: it divides out the pencil-preserving factor
that minimizes the composed degree and revalidates the leftover base side.
A step is therefore a pure function of its state (degree, descending
multiset), and walks from different maps meet the same states again and
again (the flat-growth table up to k = 12 takes 4 556 steps through 204
states).  ``_step``, a bounded LRU memo around ``_greedy_step``, does the
work of each state once per process; a step that raises is not cached.
The greedy model assumes generic positions: any center plus small-point
choice is deemed feasible.  Its step count is a true upper bound in that
model and a heuristic otherwise.
"""

from __future__ import annotations

import functools
import math
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .cremona import Characteristic, md, require_valid, side_violations
from .errors import InvalidCharacteristic, NoDecrease, TooManyBasePoints


class LengthBounds(NamedTuple):
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
    return _md_bound(md(char))  # md validates char


def _md_bound(count: int) -> int:
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
    return _deg_bound(char.degree)


def _deg_bound(d: int) -> int:
    if d == 1:
        return 0
    target = -(-d // 5)  # ceil(d / 5)
    return math.isqrt(target - 1) + 1  # ceil of the square root


class GreedyStep(NamedTuple):
    """One greedy factor and the map left after dividing it out.

    ``k`` is the degree of the pencil-preserving factor, ``degree`` that of
    the leftover map and ``mults`` its base multiplicities, descending and
    nonzero.  The leftover's inverse side is not determined by the step and
    is not modelled.
    """

    k: int
    degree: int
    mults: Tuple[int, ...]


def _greedy_step(d: int, mults: Sequence[int]) -> GreedyStep:
    """One greedy factor on a base multiset listed in descending order.

    The center is mults[0]; for each k from 2 to 1 + floor((#mults - 1) / 2)
    the 2k - 2 small points are the next largest, and k minimizes the
    composed degree d*k - (k-1)*m0 - sum(smalls), ties to the smaller k.
    The leftover multiset (the images of the factor's inverse points and
    the untouched mults) is checked against both identities and the bounds.
    """
    if d < 2:
        raise NoDecrease("degree 1 has no predecessor")
    center = mults[0]
    best = None
    smalls = 0  # sum of mults[1 : 2k - 1], the 2k - 2 small points
    for k in range(2, 2 + (len(mults) - 1) // 2):
        smalls += mults[2 * k - 3] + mults[2 * k - 2]
        new_degree = d * k - (k - 1) * center - smalls
        if best is None or new_degree < best[1]:
            best = (k, new_degree, smalls)
    if best is None or best[1] >= d:
        raise NoDecrease(f"no factor drops the degree below {d}")
    k, new_degree, smalls = best
    leftover = [d * (k - 1) - (k - 2) * center - smalls]
    leftover += (d - center - m for m in mults[1 : 2 * k - 1])
    leftover += mults[2 * k - 1 :]
    leftover = tuple(sorted(filter(None, leftover), reverse=True))
    violations = side_violations(new_degree, "base", leftover)
    if violations:
        raise InvalidCharacteristic("; ".join(map(str, violations)))
    return GreedyStep(k, new_degree, leftover)


# Keyed on (degree, descending multiset tuple).  The bound keeps memory flat on
# long tables: the flat-growth table up to k = 20 meets 540 states.
_step = functools.lru_cache(maxsize=2048)(_greedy_step)


def greedy_predecessor(char: Characteristic) -> GreedyStep:
    """Best single pencil-preserving factor under the generic-position model.

    The center sits at a base point of maximal multiplicity and the small
    points are the next largest; k follows the greedy rule.
    """
    require_valid(char)
    return _step(char.degree, char.base_multiplicities())


def greedy_length(char: Characteristic) -> LengthBounds:
    """Iterate the greedy step to degree 1 and package all three bounds."""
    require_valid(char)
    degree, mults = char.degree, char.base_multiplicities()
    lower_md = _md_bound(len(set(mults)))
    lower_deg = _deg_bound(degree) if len(mults) <= 9 else None
    steps: List[Tuple[int, int]] = []
    while degree > 1:
        k, degree, mults = _step(degree, mults)
        steps.append((k, degree))
    return LengthBounds(
        lower_md=lower_md,
        lower_deg=lower_deg,
        upper_greedy=len(steps),
        decomposition=tuple(steps),
    )

"""Symbolic point configurations over the plane.

Points are opaque integer ids.  A point is either proper (no parent) or
infinitely near its parent; the parent relation must form a forest.
Collinearity and co-conicity are declared relations, never inferred from
coordinates: the predicates here only consume incidence combinatorics.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

from ._exact import cut_repr, exact_int
from .errors import UnknownPoint

PointId = int


class Configuration:
    """An immutable set of bubble points with declared incidences.

    ``points`` is an iterable of either bare ids (proper points) or
    ``(id, parent_id_or_None)`` pairs.  ``collinear`` members need at least
    three ids, ``conics`` members at least six.
    """

    __slots__ = ("_parents", "_children", "_collinear", "_conics")

    def __init__(
        self,
        points: Iterable,
        collinear: Iterable[Iterable[PointId]] = (),
        conics: Iterable[Iterable[PointId]] = (),
    ) -> None:
        parents: Dict[PointId, Optional[PointId]] = {}
        for entry in points:
            if isinstance(entry, tuple):
                pid, parent = entry
            else:
                pid, parent = entry, None
            pid = exact_int(pid, "point id")
            if pid in parents:
                raise ValueError(f"duplicate point id {cut_repr(pid)}")
            if parent is not None:
                parent = exact_int(parent, f"parent of point {cut_repr(pid)}")
            parents[pid] = parent
        for pid, parent in parents.items():
            if parent is not None and parent not in parents:
                raise UnknownPoint(
                    f"parent {cut_repr(parent)} of point {cut_repr(pid)} not in configuration"
                )
        # acyclicity: walk every ancestor chain once
        for pid in parents:
            seen = {pid}
            cur = parents[pid]
            while cur is not None:
                if cur in seen:
                    raise ValueError(f"proximity cycle through point {cut_repr(pid)}")
                seen.add(cur)
                cur = parents[cur]
        children: Dict[PointId, Tuple[PointId, ...]] = {pid: () for pid in parents}
        for pid in sorted(parents):
            parent = parents[pid]
            if parent is not None:
                children[parent] = children[parent] + (pid,)

        def freeze(sets: Iterable[Iterable[PointId]], minimum: int, kind: str):
            out = []
            for raw in sets:
                s = frozenset(exact_int(p, f"{kind} point id") for p in raw)
                if len(s) < minimum:
                    raise ValueError(
                        f"{kind} set needs at least {minimum} points, got {cut_repr(sorted(s))}"
                    )
                missing = [p for p in s if p not in parents]
                if missing:
                    raise UnknownPoint(
                        f"{kind} set references unknown points {cut_repr(sorted(missing))}"
                    )
                out.append(s)
            return frozenset(out)

        self._parents = parents
        self._children = children
        self._collinear = freeze(collinear, 3, "collinear")
        self._conics = freeze(conics, 6, "conic")
        # a point and its parent may not lie on one declared line
        for line in self._collinear:
            for pid in line:
                if parents[pid] is not None and parents[pid] in line:
                    raise ValueError(
                        f"collinear set {cut_repr(sorted(line))} contains point "
                        f"{cut_repr(pid)} and its parent"
                    )

    @classmethod
    def generic(cls, points: Iterable[PointId]) -> "Configuration":
        """Proper points with no declared incidences."""
        return cls(list(points))

    @property
    def point_ids(self) -> Tuple[PointId, ...]:
        return tuple(sorted(self._parents))

    @property
    def collinear_sets(self) -> FrozenSet[FrozenSet[PointId]]:
        return self._collinear

    @property
    def conic_sets(self) -> FrozenSet[FrozenSet[PointId]]:
        return self._conics

    def __contains__(self, pid: PointId) -> bool:
        return pid in self._parents

    def require(self, pid: PointId) -> None:
        if pid not in self._parents:
            raise UnknownPoint(f"point {cut_repr(pid)} not in configuration")

    def parent(self, pid: PointId) -> Optional[PointId]:
        self.require(pid)
        return self._parents[pid]

    def children(self, pid: PointId) -> Tuple[PointId, ...]:
        self.require(pid)
        return self._children[pid]

    def is_proper(self, pid: PointId) -> bool:
        self.require(pid)
        return self._parents[pid] is None

    def proper_points(self) -> Tuple[PointId, ...]:
        return tuple(p for p in sorted(self._parents) if self._parents[p] is None)

    def ancestors(self, pid: PointId) -> Tuple[PointId, ...]:
        """Parent, grandparent, ... in order; empty for proper points."""
        self.require(pid)
        chain = []
        cur = self._parents[pid]
        while cur is not None:
            chain.append(cur)
            cur = self._parents[cur]
        return tuple(chain)

    def __repr__(self) -> str:
        return (
            f"Configuration({len(self._parents)} points, "
            f"{len(self._collinear)} lines, {len(self._conics)} conics)"
        )


def is_adherent(q: PointId, p: PointId, config: Configuration) -> bool:
    """True iff q is infinitely near p of first order (direct parent only).

    The relation is deliberately non-transitive; a grandchild is not
    adherent to its grandparent.
    """
    config.require(q)
    config.require(p)
    return config.parent(q) == p


def almost_general_position(S: Iterable[PointId], config: Configuration) -> bool:
    """Whether the point set is in almost general position.

    All of the following must hold:
      (a) the ancestor chain of every member lies inside the set;
      (b) no four members share a declared collinear set;
      (c) no seven members share a declared conic set;
      (d) no two members are adherent to a third member.
    """
    points = frozenset(exact_int(p, "point id") for p in S)
    for p in points:
        config.require(p)
    for p in points:
        if any(a not in points for a in config.ancestors(p)):
            return False
    for line in config.collinear_sets:
        if len(points & line) >= 4:
            return False
    for conic in config.conic_sets:
        if len(points & conic) >= 7:
            return False
    for p in sorted(points):
        inside = [q for q in config.children(p) if q in points]
        if len(inside) >= 2:
            return False
    return True

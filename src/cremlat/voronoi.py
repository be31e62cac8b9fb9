"""Cell membership against finite germ sets, and germ classification.

A germ set lists finitely many hyperboloid classes (orbit points of the
line class).  Because argcosh is monotone, "closest germ" reduces to the
smallest exact pairing, so membership decisions never touch floating
point.  Cells here are relative to the explicit competitors supplied:
membership against a finite germ set is a necessary condition for
membership against the full orbit, and exact whenever the set contains
every relevant competitor.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

from ._exact import cut_repr, exact_int
from .bubble import Configuration, PointId, almost_general_position
from .cremona import Characteristic, is_jonquieres
from .errors import IndexOutOfRange, NotOnHyperboloid, UnknownPoint, WrongArity
from .lattice import PicardManinClass, exceptional, intersect, line, self_intersection

JONQUIERES_ADJACENT = "jonquieres_adjacent"
GENERAL_ADJACENT = "general_adjacent"
QUASI_ADJACENT_ONLY = "quasi_adjacent_only"
UNCLASSIFIED = "unclassified"


class GermSet:
    """Labeled classes of the upper hyperboloid sheet serving as cell centers."""

    __slots__ = ("_labels", "_classes")

    def __init__(self, entries: Iterable[Tuple[str, PicardManinClass]]) -> None:
        labels = []
        classes = []
        for label, cls in entries:
            if self_intersection(cls) != 1:
                raise NotOnHyperboloid(
                    f"germ {cut_repr(label)} has self-intersection "
                    f"{cut_repr(self_intersection(cls))}"
                )
            if cls.degree <= 0:
                raise NotOnHyperboloid(
                    f"germ {cut_repr(label)} has degree {cut_repr(cls.degree)}, off the upper sheet"
                )
            labels.append(str(label))
            classes.append(cls)
        if len(set(labels)) != len(labels):
            raise ValueError("germ labels must be distinct")
        self._labels = tuple(labels)
        self._classes = tuple(classes)

    def __len__(self) -> int:
        return len(self._classes)

    @property
    def labels(self) -> Tuple[str, ...]:
        return self._labels

    @property
    def classes(self) -> Tuple[PicardManinClass, ...]:
        return self._classes

    def __getitem__(self, idx: int) -> PicardManinClass:
        return self._classes[idx]


def cell_member(c: PicardManinClass, idx: int, germs: GermSet) -> bool:
    """Whether no germ is strictly closer to c than germs[idx].

    Compares pairings exactly.  The comparison is invariant under positive
    scaling of c, so any class with positive self-intersection and positive
    degree is accepted; hyperboloid normalization is not required.  That
    makes c + d usable as the exact midpoint of two germs c and d: it pairs
    equally with both, and its norm, 2 + 2(c . d), is seldom a rational
    square.  A class of negative degree lies on the lower sheet, where every
    pairing with a germ is negative and the smallest would pick the farthest
    germ, so it is refused.
    """
    idx = exact_int(idx, "germ index")
    if not 0 <= idx < len(germs):
        raise IndexOutOfRange(f"germ index {cut_repr(idx)} out of range 0..{len(germs) - 1}")
    if self_intersection(c) <= 0:
        raise NotOnHyperboloid(
            f"membership needs a class of positive self-intersection, "
            f"got {cut_repr(self_intersection(c))}"
        )
    if c.degree <= 0:
        raise NotOnHyperboloid(
            f"membership needs a class of positive degree, got {cut_repr(c.degree)}"
        )
    own = intersect(c, germs[idx])
    return all(own <= intersect(c, other) for other in germs.classes)


def classify_germ(char: Characteristic, config: Configuration) -> str:
    """Adjacency class of the map's cell relative to the identity cell.

    Pencil-preserving characteristics are adjacent outright.  Otherwise at
    most 8 base points in almost general position give adjacency, exactly
    9 give quasi-adjacency (shared boundary class only), and anything else
    is reported unclassified.
    """
    pencil = is_jonquieres(char)  # validates char, before any point is looked up
    base_ids = char.base_ids()
    for p in base_ids:
        config.require(p)
    if pencil:
        return JONQUIERES_ADJACENT
    if len(base_ids) <= 8 and almost_general_position(base_ids, config):
        return GENERAL_ADJACENT
    if len(base_ids) == 9 and almost_general_position(base_ids, config):
        return QUASI_ADJACENT_ONLY
    return UNCLASSIFIED


def boundary_class(points: Sequence[PointId]) -> PicardManinClass:
    """The degenerate class 3*l - sum of the nine exceptional classes.

    Self-intersection 0, pairing 3 with the line class; it is the class a
    nine-point cell shares with its quasi-adjacent neighbors, and the
    twist translations fix it.
    """
    ids = tuple(exact_int(p, "point id") for p in points)
    if len(ids) != 9 or len(set(ids)) != 9:
        raise WrongArity(f"need exactly 9 distinct points, got {cut_repr(points)}")
    result = 3 * line()
    for p in ids:
        result = result - exceptional(p)
    return result

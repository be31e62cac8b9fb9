"""File formats: JSON records for the domain objects, CSV for tables.

Rationals travel as "num/den" strings (integers are accepted on input).
All writers are deterministic: fixed key order, fixed column order, "\n"
line endings, reals printed with 12 significant digits.

Only the readers that build a domain object import its module, so reading
a metric CSV loads the metric code and none of the Cremona or lattice code.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Tuple

from ._exact import cut_path, cut_repr, exact_int, exact_rational

if TYPE_CHECKING:
    from .bubble import Configuration
    from .cremona import Characteristic
    from .hypgraph import FiniteMetric
    from .lattice import PicardManinClass
    from .voronoi import GermSet

def rational_to_str(value) -> str:
    q = Fraction(value)
    return f"{q.numerator}/{q.denominator}"


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, found {type(value).__name__}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, found {type(value).__name__}")
    return value


def real_to_str(value) -> str:
    try:
        return format(float(value), ".12g")
    except OverflowError:  # an exact value past the float range, such as 10**400
        return "inf" if value > 0 else "-inf"


# ---------------------------------------------------------------------------
# JSON records


def class_to_record(c: PicardManinClass) -> dict:
    return {
        "degree": rational_to_str(c.degree),
        "mults": [{"point": p, "mult": rational_to_str(v)} for p, v in sorted(c.mults.items())],
    }


def class_from_record(record: dict) -> PicardManinClass:
    from .lattice import PicardManinClass

    record = _object(record, "class")
    mults = {}
    for entry in _list(record.get("mults", []), "mults"):
        entry = _object(entry, "mults entry")
        mults[exact_int(entry["point"], "point id")] = exact_rational(entry["mult"], "mult")
    return PicardManinClass(exact_rational(record["degree"], "degree"), mults)


def configuration_to_record(config: Configuration) -> dict:
    points = []
    for pid in config.point_ids:
        parent = config.parent(pid)
        points.append({"id": pid} if parent is None else {"id": pid, "parent": parent})
    return {
        "points": points,
        "collinear": sorted(sorted(s) for s in config.collinear_sets),
        "conics": sorted(sorted(s) for s in config.conic_sets),
    }


def configuration_from_record(record: dict) -> Configuration:
    from .bubble import Configuration

    record = _object(record, "configuration")
    points = []
    for entry in _list(record.get("points", []), "points"):
        entry = _object(entry, "points entry")
        parent = entry.get("parent")
        if parent is not None:
            parent = exact_int(parent, "point id")
        points.append((exact_int(entry["id"], "point id"), parent))
    return Configuration(
        points,
        collinear=_id_sets(record.get("collinear", []), "collinear"),
        conics=_id_sets(record.get("conics", []), "conics"),
    )


def _id_sets(sets, name: str) -> list:
    return [
        [exact_int(p, "point id") for p in _list(s, f"{name} set")]
        for s in _list(sets, name)
    ]


def characteristic_to_record(char: Characteristic) -> dict:
    record = {
        "degree": char.degree,
        "base": [{"point": p, "mult": m} for p, m in char.base],
        "inverse_base": [{"point": q, "mult": m} for q, m in char.inverse_base],
    }
    if char.resolution is not None:
        record["resolution"] = [[rational_to_str(x) for x in row] for row in char.resolution]
    return record


def characteristic_from_record(record: dict) -> Characteristic:
    from .cremona import Characteristic

    resolution = record.get("resolution")
    if resolution is not None:
        resolution = [
            [exact_rational(x, "resolution entry") for x in _list(row, "resolution row")]
            for row in _list(resolution, "resolution")
        ]
    return Characteristic(
        exact_int(record["degree"], "degree"),
        base=_weighted_side(record.get("base", []), "base"),
        inverse_base=_weighted_side(record.get("inverse_base", []), "inverse_base"),
        resolution=resolution,
    )


def _weighted_side(entries, name: str) -> list:
    side = []
    for entry in _list(entries, name):
        entry = _object(entry, f"{name} entry")
        point = exact_int(entry["point"], "point id")
        side.append((point, exact_int(entry["mult"], "multiplicity")))
    return side


def germset_to_record(germs: GermSet) -> dict:
    return {
        "germs": [
            {"label": label, "class": class_to_record(cls)}
            for label, cls in zip(germs.labels, germs.classes)
        ]
    }


def germset_from_record(record: dict) -> GermSet:
    from .voronoi import GermSet

    germs = []
    for entry in _list(record.get("germs", []), "germs"):
        entry = _object(entry, "germs entry")
        germs.append((entry["label"], class_from_record(entry["class"])))
    return GermSet(germs)


class RunConfig(NamedTuple):
    """Parsed run configuration: points and maps."""

    configuration: Optional[Configuration] = None
    characteristics: Tuple[Tuple[str, Characteristic], ...] = ()

    def characteristic(self, label: str) -> Characteristic:
        for name, char in self.characteristics:
            if name == label:
                return char
        raise KeyError(f"no characteristic labeled {cut_repr(label)}")


def runconfig_from_record(record: dict) -> RunConfig:
    configuration = None
    if "configuration" in record:
        configuration = configuration_from_record(record["configuration"])
    characteristics = []
    for entry in _list(record.get("characteristics", []), "characteristics"):
        entry = _object(entry, "characteristics entry")
        label = str(entry.get("label", f"map{len(characteristics)}"))
        characteristics.append((label, characteristic_from_record(entry)))
    return RunConfig(configuration=configuration, characteristics=tuple(characteristics))


def load_json(path: str) -> dict:
    import json

    with open(path, "r", encoding="utf-8") as handle:
        try:
            record = json.load(handle)
        except RecursionError:
            raise ValueError(f"{cut_path(path)}: JSON nested too deeply") from None
    if not isinstance(record, dict):
        raise ValueError(f"{cut_path(path)}: top level must be a JSON object, found {type(record).__name__}")
    return record


def load_runconfig(path: str) -> RunConfig:
    return runconfig_from_record(load_json(path))


# ---------------------------------------------------------------------------
# CSV


def metric_from_csv(path: str) -> FiniteMetric:
    """Headered square matrix: label row, then one row of entries per label.

    FiniteMetric reads the stripped cells, one row after each row's length
    check, so a file with several faults reports the first.
    """
    from .hypgraph import FiniteMetric

    with open(path, "r", encoding="utf-8", newline="") as handle:
        try:
            table = [row for row in csv.reader(handle) if row]
        except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
            raise ValueError(f"{cut_path(path)}: {exc}") from None
    if not table:
        raise ValueError(f"{cut_path(path)}: empty metric file")
    labels = [cell.strip() for cell in table[0]]
    body = table[1:]
    if len(body) != len(labels):
        raise ValueError(f"{cut_path(path)}: expected {len(labels)} data rows, found {len(body)}")

    def rows():
        for row in body:
            if len(row) != len(labels):
                raise ValueError(f"{cut_path(path)}: ragged row {cut_repr(row)}")
            yield [cell.strip() for cell in row]

    return FiniteMetric(rows(), labels=labels)


def csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()

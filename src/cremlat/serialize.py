"""File formats: JSON records for the domain objects, CSV for tables.

Rationals travel as "num/den" strings (integers are accepted on input).
All writers are deterministic: fixed key order, fixed column order, "\n"
line endings, reals printed with 12 significant digits.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .bubble import Configuration
from .cremona import Characteristic
from .hypgraph import FiniteMetric
from .lattice import PicardManinClass
from .voronoi import GermSet

Q = Fraction


def rational_to_str(value) -> str:
    q = Q(value)
    return f"{q.numerator}/{q.denominator}"


def rational_from(value) -> Q:
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Q(value)
    if isinstance(value, str):
        try:
            return Q(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {value!r}") from None
    raise ValueError(f"not a rational: {value!r}")


def integer_from(value, what: str) -> int:
    """A non-bool int or an integer string: int() would truncate 5.5,
    overflow on 1e999 and read true as 1."""
    if not isinstance(value, bool) and isinstance(value, (int, str)):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"{what} must be an integer, got {value!r}")


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, found {type(value).__name__}")
    return value


def _list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, found {type(value).__name__}")
    return value


def real_to_str(value: float) -> str:
    return format(float(value), ".12g")


# ---------------------------------------------------------------------------
# JSON records


def class_to_record(c: PicardManinClass) -> dict:
    return {
        "degree": rational_to_str(c.degree),
        "mults": [{"point": p, "mult": rational_to_str(v)} for p, v in sorted(c.mults.items())],
    }


def class_from_record(record: dict) -> PicardManinClass:
    record = _object(record, "class")
    mults = {}
    for entry in _list(record.get("mults", []), "mults"):
        entry = _object(entry, "mults entry")
        mults[integer_from(entry["point"], "point id")] = rational_from(entry["mult"])
    return PicardManinClass(rational_from(record["degree"]), mults)


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
    record = _object(record, "configuration")
    points = []
    for entry in _list(record.get("points", []), "points"):
        entry = _object(entry, "points entry")
        parent = entry.get("parent")
        if parent is not None:
            parent = integer_from(parent, "point id")
        points.append((integer_from(entry["id"], "point id"), parent))
    return Configuration(
        points,
        collinear=_id_sets(record.get("collinear", []), "collinear"),
        conics=_id_sets(record.get("conics", []), "conics"),
    )


def _id_sets(sets, name: str) -> list:
    return [
        [integer_from(p, "point id") for p in _list(s, f"{name} set")]
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
    resolution = record.get("resolution")
    if resolution is not None:
        resolution = [
            [rational_from(x) for x in _list(row, "resolution row")]
            for row in _list(resolution, "resolution")
        ]
    return Characteristic(
        integer_from(record["degree"], "degree"),
        base=_weighted_side(record.get("base", []), "base"),
        inverse_base=_weighted_side(record.get("inverse_base", []), "inverse_base"),
        resolution=resolution,
    )


def _weighted_side(entries, name: str) -> list:
    side = []
    for entry in _list(entries, name):
        entry = _object(entry, f"{name} entry")
        point = integer_from(entry["point"], "point id")
        side.append((point, integer_from(entry["mult"], "multiplicity")))
    return side


def germset_to_record(germs: GermSet) -> dict:
    return {
        "germs": [
            {"label": label, "class": class_to_record(cls)}
            for label, cls in zip(germs.labels, germs.classes)
        ]
    }


def germset_from_record(record: dict) -> GermSet:
    germs = []
    for entry in _list(record.get("germs", []), "germs"):
        entry = _object(entry, "germs entry")
        germs.append((entry["label"], class_from_record(entry["class"])))
    return GermSet(germs)


@dataclass(frozen=True)
class RunConfig:
    """Parsed run configuration: points and maps."""

    configuration: Optional[Configuration] = None
    characteristics: Tuple[Tuple[str, Characteristic], ...] = ()

    def characteristic(self, label: str) -> Characteristic:
        for name, char in self.characteristics:
            if name == label:
                return char
        raise KeyError(f"no characteristic labeled {label!r}")


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
    with open(path, "r", encoding="utf-8") as handle:
        record = json.load(handle)
    if not isinstance(record, dict):
        raise ValueError(f"{path}: top level must be a JSON object, found {type(record).__name__}")
    return record


def load_runconfig(path: str) -> RunConfig:
    return runconfig_from_record(load_json(path))


# ---------------------------------------------------------------------------
# CSV


def metric_from_csv(path: str) -> FiniteMetric:
    """Headered square matrix: label row, then one row of entries per label."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        table = [row for row in reader if row]
    if not table:
        raise ValueError(f"{path}: empty metric file")
    labels = [cell.strip() for cell in table[0]]
    body = table[1:]
    if len(body) != len(labels):
        raise ValueError(f"{path}: expected {len(labels)} data rows, found {len(body)}")
    matrix = []
    for row in body:
        if len(row) != len(labels):
            raise ValueError(f"{path}: ragged row {row!r}")
        matrix.append([rational_from(cell.strip()) for cell in row])
    return FiniteMetric(matrix, labels=labels)


def csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow(["" if x is None else str(x) for x in row])
    return buffer.getvalue()

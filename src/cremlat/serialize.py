"""File formats: JSON records for the domain objects, CSV for tables.

Rationals travel as "num/den" strings (integers are accepted on input).
All writers are deterministic: fixed key order, fixed column order, "\n"
line endings, reals printed with 12 significant digits.
"""

from __future__ import annotations

import csv
import io
import json
import re
import sys
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Tuple

from ._exact import cut_repr
from .bubble import Configuration
from .cremona import Characteristic
from .hypgraph import FiniteMetric
from .lattice import PicardManinClass
from .voronoi import GermSet

Q = Fraction

# the exponent of a numeral such as "1.5e-3", as Fraction reads it
_EXPONENT = re.compile(r"[eE]([-+]?\d+(?:_\d+)*)\s*\Z")


def rational_to_str(value) -> str:
    q = Q(value)
    return f"{q.numerator}/{q.denominator}"


def rational_from(value) -> Q:
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {cut_repr(value)}")
    if isinstance(value, int):
        return Q(value)
    if isinstance(value, str):
        # 1e999999999 would build a ~400 MB integer: bound exponents like int() bounds digits
        exponent = _EXPONENT.search(value)
        limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
        if exponent and (len(exponent[1]) > limit or abs(int(exponent[1])) > limit):
            raise ValueError(f"exponent out of range in {cut_repr(value)}: "
                             f"its magnitude must be at most {limit}")
        try:
            q = Q(value)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator: {cut_repr(value)}") from None
        except ValueError:  # Fraction's own message would echo the whole string
            raise ValueError(f"not a rational: {cut_repr(value)}") from None
        # 1e4300 is inside the exponent bound, but its 4301 digits could not be printed
        if not (_printable(q.numerator, limit) and _printable(q.denominator, limit)):
            raise ValueError(
                f"too many digits in {cut_repr(value)}: its numerator and denominator may have "
                f"at most {limit} each"
            )
        return q
    raise ValueError(f"not a rational: {cut_repr(value)}")


def _printable(n: int, limit: int) -> bool:
    """Whether n has at most ``limit`` decimal digits, i.e. |n| < 10**limit.

    |n| < 2**bits <= 8**limit < 10**limit settles every ordinary n without
    building 10**limit."""
    return abs(n).bit_length() <= 3 * limit or abs(n) < 10**limit


def integer_from(value, what: str) -> int:
    """A non-bool int or an integer string: int() would truncate 5.5,
    overflow on 1e999 and read true as 1."""
    if not isinstance(value, bool) and isinstance(value, (int, str)):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"{what} must be an integer, got {cut_repr(value)}")


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


class RunConfig(NamedTuple):
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
        try:
            record = json.load(handle)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
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
        try:
            table = [row for row in csv.reader(handle) if row]
        except csv.Error as exc:  # e.g. a field past csv.field_size_limit()
            raise ValueError(f"{path}: {exc}") from None
    if not table:
        raise ValueError(f"{path}: empty metric file")
    labels = [cell.strip() for cell in table[0]]
    body = table[1:]
    if len(body) != len(labels):
        raise ValueError(f"{path}: expected {len(labels)} data rows, found {len(body)}")
    matrix = []
    for row in body:
        if len(row) != len(labels):
            raise ValueError(f"{path}: ragged row {cut_repr(row)}")
        matrix.append([rational_from(cell.strip()) for cell in row])
    return FiniteMetric(matrix, labels=labels)


def csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()

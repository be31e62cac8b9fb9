import json
import math
import sys
from fractions import Fraction as Q

import pytest

from cremlat.bubble import Configuration
from cremlat.cremona import Characteristic, standard_quadratic
from cremlat.lattice import PicardManinClass, line
from cremlat.serialize import (
    RunConfig,
    characteristic_from_record,
    characteristic_to_record,
    class_from_record,
    class_to_record,
    configuration_from_record,
    configuration_to_record,
    csv_text,
    germset_from_record,
    germset_to_record,
    load_runconfig,
    metric_from_csv,
    rational_from,
    rational_to_str,
    real_to_str,
    runconfig_from_record,
)
from cremlat.voronoi import GermSet


class TestScalars:
    def test_rational_to_str(self):
        assert rational_to_str(Q(1, 2)) == "1/2"
        assert rational_to_str(3) == "3/1"
        assert rational_to_str(Q(-2, 4)) == "-1/2"

    def test_rational_from(self):
        assert rational_from("3/4") == Q(3, 4)
        assert rational_from("-2") == Q(-2)
        assert rational_from(5) == Q(5)
        for bad in (True, False, 1.5, None, [1]):
            with pytest.raises(ValueError):
                rational_from(bad)

    def test_rational_exponent_bound(self):
        limit = sys.get_int_max_str_digits()
        assert rational_from("1.5e-3") == Q(3, 2000)
        assert rational_from(f"1e{limit - 1}") == 10 ** (limit - 1)
        assert rational_from(f"1E-{limit - 1}") == Q(1, 10 ** (limit - 1))
        # without the bound, 1e999999999 builds a ~400 MB integer
        for bad in (f"1e{limit + 1}", f"-2.5e-{limit + 1}", " 1e5_000 ", "1e" + "9" * (limit + 1)):
            with pytest.raises(ValueError, match="exponent out of range"):
                rational_from(bad)

    def test_rational_digit_bound(self):
        # 1e4300 passes the exponent bound but has one digit more than str() may print
        limit = sys.get_int_max_str_digits()
        assert rational_from("9" * limit) == 10**limit - 1
        assert rational_from(f"99e{limit - 2}") == 99 * 10 ** (limit - 2)
        assert rational_from(f"-1/{'9' * limit}") == Q(-1, 10**limit - 1)
        for bad in (f"1e{limit}", f"1E-{limit}", f"100e{limit - 2}", f"-2.5e{limit}"):
            with pytest.raises(ValueError, match="too many digits"):
                rational_from(bad)

    def test_real_to_str(self):
        assert real_to_str(2.0) == "2"
        assert real_to_str(1 / 3) == "0.333333333333"
        assert real_to_str(1.5e-13) == "1.5e-13"
        assert real_to_str(math.acosh(2.0)) == format(math.acosh(2.0), ".12g")


class TestClassRecords:
    def test_round_trip(self):
        c = PicardManinClass(Q(3, 2), {4: Q(1, 2), 0: 1})
        record = class_to_record(c)
        assert record == {
            "degree": "3/2",
            "mults": [
                {"point": 0, "mult": "1/1"},
                {"point": 4, "mult": "1/2"},
            ],
        }
        assert class_from_record(record) == c

    def test_zero_mults_drop(self):
        record = class_to_record(PicardManinClass(1, {0: 0}))
        assert record["mults"] == []
        assert class_from_record({"degree": "1/1"}) == line()

    def test_integer_degree_accepted(self):
        assert class_from_record({"degree": 2, "mults": []}).degree == 2


class TestConfigurationRecords:
    def test_round_trip(self):
        config = Configuration(
            [0, (1, 0), 2, 3, 4, 5, 6, 7],
            collinear=[(4, 2, 3)],
            conics=[(2, 3, 4, 5, 6, 7)],
        )
        record = configuration_to_record(config)
        assert record == {
            "points": [
                {"id": 0},
                {"id": 1, "parent": 0},
                {"id": 2},
                {"id": 3},
                {"id": 4},
                {"id": 5},
                {"id": 6},
                {"id": 7},
            ],
            "collinear": [[2, 3, 4]],
            "conics": [[2, 3, 4, 5, 6, 7]],
        }
        rebuilt = configuration_from_record(record)
        assert configuration_to_record(rebuilt) == record
        assert rebuilt.parent(1) == 0
        assert rebuilt.collinear_sets == config.collinear_sets

    def test_defaults(self):
        rebuilt = configuration_from_record({"points": [{"id": 3}]})
        assert rebuilt.point_ids == (3,)
        assert rebuilt.collinear_sets == frozenset()

    def test_invalid_records_propagate(self):
        with pytest.raises(ValueError):
            configuration_from_record({"points": [{"id": 0}, {"id": 0}]})


class TestCharacteristicRecords:
    def test_round_trip_with_resolution(self):
        sigma = standard_quadratic()
        record = characteristic_to_record(sigma)
        assert record["degree"] == 2
        assert record["base"] == [
            {"point": 0, "mult": 1},
            {"point": 1, "mult": 1},
            {"point": 2, "mult": 1},
        ]
        assert record["resolution"][0][0] == "0/1"
        assert record["resolution"][0][1] == "1/1"
        assert characteristic_from_record(record) == sigma

    def test_round_trip_without_resolution(self):
        char = Characteristic(3, ((0, 2), (1, 1), (2, 1), (3, 1), (4, 1)),
                              ((10, 2), (11, 1), (12, 1), (13, 1), (14, 1)))
        record = characteristic_to_record(char)
        assert "resolution" not in record
        assert characteristic_from_record(record) == char


class TestGermSetRecords:
    def test_round_trip(self):
        germs = GermSet([
            ("identity", line()),
            ("sigma", PicardManinClass(2, {1: 1, 2: 1, 3: 1})),
        ])
        record = germset_to_record(germs)
        rebuilt = germset_from_record(record)
        assert rebuilt.labels == germs.labels
        assert rebuilt.classes == germs.classes


class TestRunConfig:
    def record(self):
        return {
            "configuration": {"points": [{"id": i} for i in range(6)]},
            "characteristics": [
                {
                    "label": "q",
                    "degree": 2,
                    "base": [{"point": 0, "mult": 1}, {"point": 1, "mult": 1}, {"point": 2, "mult": 1}],
                    "inverse_base": [{"point": 3, "mult": 1}, {"point": 4, "mult": 1}, {"point": 5, "mult": 1}],
                },
                {
                    "degree": 1,
                    "base": [],
                    "inverse_base": [],
                },
            ],
            "germ_sets": {
                "cells": {"germs": [{"label": "identity", "class": {"degree": "1/1", "mults": []}}]},
            },
        }

    def test_parse(self):
        run = runconfig_from_record(self.record())
        assert run.configuration is not None
        assert run.configuration.point_ids == tuple(range(6))
        assert [label for label, _ in run.characteristics] == ["q", "map1"]
        assert run.characteristic("q").degree == 2
        with pytest.raises(KeyError):
            run.characteristic("missing")

    def test_defaults(self):
        run = runconfig_from_record({})
        assert run == RunConfig()

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(self.record()), encoding="utf-8")
        run = load_runconfig(str(path))
        assert run.characteristic("q").base_ids() == (0, 1, 2)


class TestMetricCsv:
    def write(self, tmp_path, text):
        path = tmp_path / "metric.csv"
        path.write_text(text, encoding="utf-8")
        return str(path)

    def test_parse(self, tmp_path):
        path = self.write(tmp_path, "a,b,c\n0,1,2\n1,0,1\n2,1,0\n")
        metric = metric_from_csv(path)
        assert metric.labels == ("a", "b", "c")
        assert metric.distance("a", "c") == 2

    def test_rational_entries(self, tmp_path):
        path = self.write(tmp_path, "x,y\n0,1/2\n1/2,0\n")
        assert metric_from_csv(path).distance("x", "y") == Q(1, 2)

    def test_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path, "a,b\n\n0,1\n1,0\n\n")
        assert metric_from_csv(path).size == 2

    def test_errors(self, tmp_path):
        with pytest.raises(ValueError):
            metric_from_csv(self.write(tmp_path, ""))
        with pytest.raises(ValueError):
            metric_from_csv(self.write(tmp_path, "a,b\n0,1\n"))
        with pytest.raises(ValueError):
            metric_from_csv(self.write(tmp_path, "a,b\n0,1\n1,0,9\n"))
        with pytest.raises(ValueError):
            metric_from_csv(self.write(tmp_path, "a,b\n0,1\n2,0\n"))


class TestCsvText:
    def test_formatting(self):
        text = csv_text(["a", "b"], [[1, None], [Q(1, 2), "x"]])
        assert text == "a,b\n1,\n1/2,x\n"

    def test_deterministic(self):
        rows = [[i, i * i] for i in range(5)]
        assert csv_text(["n", "sq"], rows) == csv_text(["n", "sq"], rows)

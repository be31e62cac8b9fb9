import csv
import errno
import json
import os
import shutil
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

from cremlat import cli
from cremlat._exact import cut_path
from cremlat.cli import main

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PATH_CSV = "a,b,c,d\n0,1,2,3\n1,0,1,2\n2,1,0,1\n3,2,1,0\n"

TOWER2_CHAR = {
    "degree": 4,
    "base": [
        {"point": 0, "mult": 2},
        {"point": 1, "mult": 2},
        {"point": 2, "mult": 2},
        {"point": 3, "mult": 1},
        {"point": 4, "mult": 1},
        {"point": 5, "mult": 1},
    ],
    "inverse_base": [
        {"point": 10, "mult": 2},
        {"point": 11, "mult": 2},
        {"point": 12, "mult": 2},
        {"point": 13, "mult": 1},
        {"point": 14, "mult": 1},
        {"point": 15, "mult": 1},
    ],
}

RUN_CONFIG = {
    "characteristics": [
        {
            "label": "j3",
            "degree": 3,
            "base": [
                {"point": 0, "mult": 2},
                {"point": 1, "mult": 1},
                {"point": 2, "mult": 1},
                {"point": 3, "mult": 1},
                {"point": 4, "mult": 1},
            ],
            "inverse_base": [
                {"point": 10, "mult": 2},
                {"point": 11, "mult": 1},
                {"point": 12, "mult": 1},
                {"point": 13, "mult": 1},
                {"point": 14, "mult": 1},
            ],
        },
        {
            "label": "q4",
            "degree": 4,
            "base": [
                {"point": 0, "mult": 2},
                {"point": 1, "mult": 2},
                {"point": 2, "mult": 2},
                {"point": 3, "mult": 1},
                {"point": 4, "mult": 1},
                {"point": 5, "mult": 1},
            ],
            "inverse_base": [
                {"point": 10, "mult": 2},
                {"point": 11, "mult": 2},
                {"point": 12, "mult": 2},
                {"point": 13, "mult": 1},
                {"point": 14, "mult": 1},
                {"point": 15, "mult": 1},
            ],
        },
    ]
}

CONIC_CLASS = {
    "degree": "2/1",
    "mults": [
        {"point": 1, "mult": "1/1"},
        {"point": 2, "mult": "1/1"},
        {"point": 3, "mult": "1/1"},
    ],
}

OVERWEIGHT_CLASS = {"degree": "1/1", "mults": [{"point": 1, "mult": "2/1"}]}


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsage:
    def test_no_arguments(self, capsys):
        code, _, _ = run(capsys, [])
        assert code == 1

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, ["frobnicate"])
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, ["flat-growth"])
        assert code == 1 and "kmax" in err

    def test_nonpositive_bound(self, capsys):
        code, _, _ = run(capsys, ["flat-growth", "--kmax", "0"])
        assert code == 1

    @pytest.mark.parametrize("nmax", ["9" * 5000, "-" + "9" * 4000], ids=["huge", "huge-negative"])
    def test_huge_bound_is_echoed_cut(self, capsys, nmax):
        # the bound used to come back whole: a 5 075-byte stderr line
        code, out, err = run(capsys, ["halphen-table", "--nmax", nmax])
        assert code == 1 and out == ""
        assert err.endswith("\n") and "\n" not in err[:-1] and len(err) <= 200, err

    @pytest.mark.parametrize("argv, echo", [
        (["x" * 3000], "invalid choice: '" + "x" * 78 + "… (choose from 'halphen-table',"),
        (["delta", "a.csv", "--bogus", "y" * 3000], "unrecognized arguments: --bogus " + "y" * 79 + "…\n"),
        (["delta", "a.csv", "z" * 90, "z" * 3000], "arguments: " + "z" * 79 + "… " + "z" * 79 + "…\n"),
    ], ids=["command", "option", "nested"])
    def test_long_token_is_echoed_cut(self, capsys, argv, echo):
        # argparse's own words used to echo the token whole: 3 137 and 3 049 bytes
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        assert echo in err and "\n" not in err[:-1] and len(err.encode()) < 300, err

    def test_long_token_list_is_cut(self, capsys):
        # argparse named every unrecognized token: 2 000 short ones gave a
        # 10 930-byte line.  A few are named, and the rest counted
        code, out, err = run(capsys, ["delta", "a.csv", *(f"t{i}" for i in range(2000))])
        assert code == 1 and out == ""
        assert err == "cremlat: error: unrecognized arguments: t0 t1 t2 … and 1997 more\n"
        code, out, err = run(capsys, ["delta", "a.csv", "x", "y", "z"])
        assert err == "cremlat: error: unrecognized arguments: x y z\n"

    def test_short_tokens_keep_their_bytes(self, capsys):
        code, _, err = run(capsys, ["frobnicate"])
        assert code == 1
        assert err == ("cremlat: error: argument command: invalid choice: 'frobnicate' (choose from "
                       "'halphen-table', 'flat-growth', 'delta', 'length', 'classify', 'in-e')\n")

    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, ["--help"])
        assert code == 0 and "halphen-table" in out

    def test_jobs_is_unknown(self, capsys):
        code, out, err = run(capsys, ["flat-growth", "--kmax", "1", "--jobs", "1"])
        assert code == 1 and out == ""
        assert "unrecognized arguments: --jobs 1" in err


class TestHalphenTable:
    def test_nmax_one(self, capsys):
        code, out, _ = run(capsys, ["halphen-table", "--nmax", "1"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,m,lattice_degree,closed_form,match"
        assert len(lines) == 1 + 9
        assert all(line.endswith(",true") for line in lines[1:])
        assert "-1,-1,28,28,true" in lines
        assert "0,0,1,1,true" in lines
        assert "1,1,28,28,true" in lines

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, ["halphen-table", "--nmax", "2"])
        _, second, _ = run(capsys, ["halphen-table", "--nmax", "2"])
        assert first == second


class TestFlatGrowth:
    def test_kmax_one(self, capsys):
        code, out, _ = run(capsys, ["flat-growth", "--kmax", "1"])
        assert code == 0
        assert out == (
            "m,n,degree,lower,upper\n"
            "0,0,1,0,0\n"
            "-1,0,10,2,2\n"
            "0,-1,10,2,2\n"
            "0,1,10,2,2\n"
            "1,0,10,2,2\n"
            "# certificate: PASS\n"
        )

    def test_row_count(self, capsys):
        code, out, _ = run(capsys, ["flat-growth", "--kmax", "3"])
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1 + (1 + 2 * 3 * 4) + 1
        assert lines[-1] == "# certificate: PASS"


class TestDelta:
    def test_path_metric(self, capsys, tmp_path):
        metric = tmp_path / "path.csv"
        metric.write_text(PATH_CSV, encoding="utf-8")
        code, out, _ = run(capsys, ["delta", str(metric)])
        assert code == 0
        assert out == "points,delta,delta_real\n4,0/1,0\n"

    def test_missing_file(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, err = run(capsys, ["delta", "absent.csv"])
        assert code == 1
        assert err == f"delta: bad input: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: 'absent.csv'\n"

    @pytest.mark.parametrize("argv, number", [
        (["delta", "a" * 3000], errno.ENAMETOOLONG),
        (["length", "b/" * 2000], errno.ENOENT),
        (["halphen-table", "--nmax", "1", "--out", "c/" * 2000], errno.ENOENT),
    ], ids=["long-name", "long-path", "long-out"])
    def test_long_path_is_echoed_cut(self, capsys, tmp_path, monkeypatch, argv, number):
        # OSError's text echoed the path whole: a 3 061-byte line for the
        # 3 000-character name, 4 065 bytes for the 4 000-character path.
        # The path keeps its tail, where the file name is
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, argv)
        assert code == 1 and out == ""
        path = argv[-1]
        assert err == f"{argv[0]}: bad input: [Errno {number}] {os.strerror(number)}: '…{path[-79:]}'\n"

    def test_long_paths_differing_in_the_name_differ(self, capsys, tmp_path, monkeypatch):
        # with the head kept, two long paths in one directory printed one message
        monkeypatch.chdir(tmp_path)
        errs = []
        for name in "a0.csv", "b0.csv":
            path = "d/" * 1497 + name
            assert len(path) == 3000
            code, out, err = run(capsys, ["delta", path])
            assert code == 1 and out == "" and len(err.encode()) <= 300
            assert err.endswith(f"/{name}'\n")
            errs.append(err)
        assert errs[0] != errs[1]

    def test_malformed_metric(self, capsys, tmp_path):
        metric = tmp_path / "bad.csv"
        metric.write_text("a,b\n0,1\n2,0\n", encoding="utf-8")
        code, _, _ = run(capsys, ["delta", str(metric)])
        assert code == 1

    def test_zero_denominator(self, capsys, tmp_path):
        metric = tmp_path / "div0.csv"
        metric.write_text("a,b\n0,1/0\n1/0,0\n", encoding="utf-8")
        code, out, err = run(capsys, ["delta", str(metric)])
        assert code == 1 and out == ""
        assert err == "delta: bad input: zero denominator: '1/0'\n"

    def test_exponent_out_of_range(self, capsys, tmp_path):
        # 1e-5000 used to be read in full and the job exited 0
        metric = tmp_path / "tiny.csv"
        metric.write_text("a,b\n0,1e-5000\n1e-5000,0\n", encoding="utf-8")
        code, out, err = run(capsys, ["delta", str(metric)])
        assert code == 1 and out == ""
        assert err == (
            "delta: bad input: exponent out of range in '1e-5000': "
            f"its magnitude must be at most {sys.get_int_max_str_digits()}\n"
        )

    def test_delta_past_float_range(self, capsys, tmp_path):
        # float() of the exact answer used to escape as an OverflowError traceback
        metric = tmp_path / "huge.csv"
        cycle = ["0,1,2,1", "1,0,1,2", "2,1,0,1", "1,2,1,0"]  # delta 1, then times 10**400
        huge = "".join(row.replace("1", "1e400").replace("2", "2e400") + "\n" for row in cycle)
        metric.write_text("a,b,c,d\n" + huge, encoding="utf-8")
        code, out, err = run(capsys, ["delta", str(metric)])
        assert code == 0 and err == ""
        assert out == f"points,delta,delta_real\n4,{10**400}/1,inf\n"

    def test_oversized_field(self, capsys, tmp_path):
        # csv's field limit used to escape as a _csv.Error traceback
        metric = tmp_path / "wide.csv"
        metric.write_text("a,b\n0," + "1" * 200_000 + "\n1,0\n", encoding="utf-8")
        code, out, err = run(capsys, ["delta", str(metric)])
        assert code == 1 and out == ""
        limit = csv.field_size_limit()
        assert err == f"delta: bad input: {cut_path(str(metric))}: field larger than field limit ({limit})\n"


@pytest.mark.parametrize("command, name, text", [
    ("length", "long.json", json.dumps({"degree": [1] * 200_000})),
    ("delta", "garbage.csv", "a,b\n0," + "x" * 100_000 + "\n1,0\n"),
    ("delta", "ragged.csv", "a,b\n0,1\n" + ",".join(["1"] * 100_000) + "\n"),
    ("delta", "label.csv", "x" * 100_000 + ",b\n1,1\n1,0\n"),
], ids=["long-degree", "long-cell", "long-row", "long-label"])
def test_echoed_value_is_cut(capsys, tmp_path, command, name, text):
    # the offending value used to be echoed whole: a 600 KB line for the long degree
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    code, out, err = run(capsys, [command, str(path)])
    assert code == 1 and out == ""
    assert err.count("\n") == 1 and "…" in err
    assert len(err.encode("utf-8")) < 300


def test_newline_in_path_stays_on_one_line(capsys, tmp_path):
    # messages that echo a path used to print its newline as it was
    metric = tmp_path / "em\npty.csv"
    metric.write_text("", encoding="utf-8")
    code, out, err = run(capsys, ["delta", str(metric)])
    assert code == 1 and out == ""
    assert err == "delta: bad input: %s: empty metric file\n" % str(metric).replace("\n", "\\n")


class TestLength:
    def test_two_step_tower(self, capsys, tmp_path):
        path = write_json(tmp_path, "char.json", TOWER2_CHAR)
        code, out, _ = run(capsys, ["length", path])
        assert code == 0
        assert out == (
            "degree,n_base,lower_md,lower_deg,upper,decomposition\n"
            "4,6,1,1,2,4>2>1\n"
        )

    def test_invalid_characteristic(self, capsys, tmp_path):
        payload = {
            "degree": 2,
            "base": [{"point": 0, "mult": 1}, {"point": 1, "mult": 1}],
            "inverse_base": [{"point": 2, "mult": 1}, {"point": 3, "mult": 1}],
        }
        code, _, err = run(capsys, ["length", write_json(tmp_path, "bad.json", payload)])
        assert code == 2 and "length:" in err

    def test_greedy_leftover_outside_bounds(self, capsys, tmp_path):
        # both identities hold, but the greedy quadratic step leaves a -1
        mults = (3, 3, 1, 1, 1, 1, 1, 1)
        payload = {
            "degree": 5,
            "base": [{"point": i, "mult": m} for i, m in enumerate(mults)],
            "inverse_base": [{"point": 10 + i, "mult": m} for i, m in enumerate(mults)],
        }
        code, out, err = run(capsys, ["length", write_json(tmp_path, "fake.json", payload)])
        assert code == 2 and out == ""
        assert err == "length: bounds/base: multiplicities [-1] outside [1, 2]\n"

    @pytest.mark.parametrize("degree", ["1e999", "5.5"])
    def test_float_degree(self, capsys, tmp_path, degree):
        # 1e999 overflowed int() and 5.5 was truncated to 5; both are refused
        text = json.dumps(TOWER2_CHAR).replace('"degree": 4', f'"degree": {degree}')
        path = tmp_path / "float.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, ["length", str(path)])
        assert code == 1 and out == ""
        assert err.startswith("length: bad input: degree must be an integer")
        assert "Traceback" not in err

    def test_unparseable_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        code, _, _ = run(capsys, ["length", str(path)])
        assert code == 1

    def test_deep_nesting(self, capsys, tmp_path):
        # json.load used to escape as a RecursionError traceback
        path = tmp_path / "deep.json"
        path.write_text('{"degree": ' + "[" * 100_000, encoding="utf-8")
        code, out, err = run(capsys, ["length", str(path)])
        assert code == 1 and out == ""
        assert err == f"length: bad input: {cut_path(str(path))}: JSON nested too deeply\n"


class TestClassify:
    def test_two_maps(self, capsys, tmp_path):
        path = write_json(tmp_path, "run.json", RUN_CONFIG)
        code, out, _ = run(capsys, ["classify", "--config", path])
        assert code == 0
        assert out == (
            "label,degree,n_base,classification\n"
            "j3,3,5,jonquieres_adjacent\n"
            "q4,4,6,general_adjacent\n"
        )


class TestInE:
    def test_member(self, capsys, tmp_path):
        path = write_json(tmp_path, "conic.json", CONIC_CLASS)
        code, out, _ = run(capsys, ["in-e", path])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("member,nonneg_mults,")
        assert lines[1] == "true,true,,true,3/1,true,,true,,,"

    def test_nonmember_overweight_point(self, capsys, tmp_path):
        path = write_json(tmp_path, "heavy.json", OVERWEIGHT_CLASS)
        code, out, _ = run(capsys, ["in-e", path])
        assert code == 2
        assert out.strip().split("\n")[1] == (
            "false,true,,true,1/1,true,,false,pair_line,1,-1/1"
        )

    def test_declared_line_rejects_conic(self, capsys, tmp_path):
        cls = write_json(tmp_path, "conic.json", CONIC_CLASS)
        cfg = write_json(
            tmp_path,
            "run.json",
            {"configuration": {
                "points": [{"id": 1}, {"id": 2}, {"id": 3}],
                "collinear": [[1, 2, 3]],
            }},
        )
        code, out, _ = run(capsys, ["in-e", cls, "--config", cfg])
        assert code == 2
        assert out.strip().split("\n")[1] == (
            "false,true,,true,3/1,true,,false,declared_line,1 2 3,-1/1"
        )

    def test_negative_and_excess_points(self, capsys, tmp_path):
        # point 2 lies on point 1 and outweighs it; point 3 has a negative multiplicity
        cls = write_json(tmp_path, "cls.json", {
            "degree": "2/1",
            "mults": [
                {"point": 1, "mult": "1/1"},
                {"point": 2, "mult": "2/1"},
                {"point": 3, "mult": "-1/2"},
            ],
        })
        cfg = write_json(tmp_path, "run.json", {"configuration": {
            "points": [{"id": 1}, {"id": 2, "parent": 1}, {"id": 3}],
        }})
        code, out, _ = run(capsys, ["in-e", cls, "--config", cfg])
        assert code == 2
        assert out.strip().split("\n")[1] == "false,false,3,true,7/2,false,1,true,,,"

    def test_config_without_points_section(self, capsys, tmp_path):
        cls = write_json(tmp_path, "conic.json", CONIC_CLASS)
        cfg = write_json(tmp_path, "empty.json", {})
        code, _, err = run(capsys, ["in-e", cls, "--config", cfg])
        assert code == 1 and "configuration section" in err


@pytest.mark.parametrize("prefix", [["in-e"], ["length"], ["classify", "--config"]])
def test_top_level_list_is_bad_input(capsys, tmp_path, prefix):
    path = write_json(tmp_path, "list.json", [{"degree": "1/1", "mults": []}])
    code, out, err = run(capsys, prefix + [path])
    assert code == 1 and out == ""
    assert err == f"{prefix[0]}: bad input: {cut_path(path)}: top level must be a JSON object, found list\n"


def tower2_with(side, index, key, value):
    payload = json.loads(json.dumps(TOWER2_CHAR))
    payload[side][index][key] = value
    return payload


MALFORMED_RECORDS = {
    # nested records that are not objects used to end in AttributeError
    "configuration": (["in-e", "{cls}", "--config"], {"configuration": []},
                      "configuration must be a JSON object, found list"),
    "points": (["in-e", "{cls}", "--config"], {"configuration": {"points": [1]}},
               "points entry must be a JSON object, found int"),
    "characteristics": (["classify", "--config"], {"characteristics": [[1]]},
                        "characteristics entry must be a JSON object, found list"),
    "mults": (["in-e"], {"degree": "1/1", "mults": ["1"]},
              "mults entry must be a JSON object, found str"),
    "base": (["length"], {"degree": 1, "base": [[0, 1]]},
             "base entry must be a JSON object, found list"),
    "inverse_base": (["length"], {"degree": 1, "inverse_base": [None]},
                     "inverse_base entry must be a JSON object, found NoneType"),
    # int() used to read 1.5 and true as 1, and point 1.7 as point 1
    "mult-1.5": (["length"], tower2_with("base", 5, "mult", 1.5),
                 "multiplicity must be an integer, got 1.5"),
    "mult-true": (["length"], tower2_with("base", 5, "mult", True),
                  "multiplicity must be an integer, got True"),
    "point-string": (["length"], tower2_with("inverse_base", 0, "point", "10.0"),
                     "point id must be an integer, got '10.0'"),
    "class-point": (["in-e"], {"degree": "1/1", "mults": [{"point": 1.7, "mult": "1/1"}]},
                    "point id must be an integer, got 1.7"),
    "config-id": (["in-e", "{cls}", "--config"], {"configuration": {"points": [{"id": 2.5}]}},
                  "point id must be an integer, got 2.5"),
    # iterating a non-list used to fail with "'int' object is not iterable"
    "resolution": (["length"], {"degree": 1, "resolution": 3},
                   "resolution must be a JSON list, found int"),
    "resolution-row": (["length"], {"degree": 1, "resolution": [3]},
                       "resolution row must be a JSON list, found int"),
    "collinear": (["in-e", "{cls}", "--config"], {"configuration": {"collinear": 1}},
                  "collinear must be a JSON list, found int"),
    "collinear-set": (["in-e", "{cls}", "--config"], {"configuration": {"collinear": [1]}},
                      "collinear set must be a JSON list, found int"),
    "conics-set": (["in-e", "{cls}", "--config"], {"configuration": {"conics": [None]}},
                   "conics set must be a JSON list, found NoneType"),
    "points-list": (["in-e", "{cls}", "--config"], {"configuration": {"points": 4}},
                    "points must be a JSON list, found int"),
    "base-list": (["length"], {"degree": 1, "base": {"point": 0, "mult": 1}},
                  "base must be a JSON list, found dict"),
    # 1e5000 used to run the whole check and fail only when its degree was printed
    "exponent": (["in-e"], {"degree": "1e5000", "mults": []},
                 "exponent out of range in '1e5000': its magnitude must be at most "
                 f"{sys.get_int_max_str_digits()}"),
    "exponent-mult": (["in-e"], {"degree": "1", "mults": [{"point": 1, "mult": "-3.25E+4400"}]},
                      "exponent out of range in '-3.25E+4400': its magnitude must be at most "
                      f"{sys.get_int_max_str_digits()}"),
    # 1e4300 is inside the exponent bound and used to fail only when it was printed
    "digits": (["in-e"], {"degree": "1e4300", "mults": []},
               "too many digits in '1e4300': its numerator and denominator may have at most "
               f"{sys.get_int_max_str_digits()} each"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
def test_malformed_record_is_bad_input(capsys, tmp_path, case):
    prefix, payload, message = MALFORMED_RECORDS[case]
    cls = write_json(tmp_path, "conic.json", CONIC_CLASS)
    path = write_json(tmp_path, "record.json", payload)
    code, out, err = run(capsys, [arg.format(cls=cls) for arg in prefix] + [path])
    assert code == 1 and out == ""
    assert err == f"{prefix[0]}: bad input: {message}\n"


UNKNOWN_POINTS = {
    # a point id used but never declared is an input error, not a failed check
    "class-support": (["in-e", "{cls}", "--config"],
                      {"configuration": {"points": [{"id": 1}, {"id": 2}]}},
                      "class supported at 3, absent from configuration"),
    "parent": (["in-e", "{cls}", "--config"],
               {"configuration": {"points": [{"id": 1}, {"id": 2, "parent": 7}]}},
               "parent 7 of point 2 not in configuration"),
    "collinear-set": (["in-e", "{cls}", "--config"],
                      {"configuration": {"points": [{"id": 1}, {"id": 2}],
                                         "collinear": [[1, 2, 8]]}},
                      "collinear set references unknown points [8]"),
    "conic-set": (["in-e", "{cls}", "--config"],
                  {"configuration": {"points": [{"id": p} for p in range(1, 6)],
                                     "conics": [[1, 2, 3, 4, 5, 9]]}},
                  "conic set references unknown points [9]"),
    "classify-base": (["classify", "--config"],
                      {"configuration": {"points": [{"id": p} for p in range(5)]},
                       "characteristics": RUN_CONFIG["characteristics"][1:]},
                      "point 5 not in configuration"),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_POINTS))
def test_unknown_point_is_bad_input(capsys, tmp_path, case):
    prefix, payload, message = UNKNOWN_POINTS[case]
    cls = write_json(tmp_path, "conic.json", CONIC_CLASS)
    path = write_json(tmp_path, "run.json", payload)
    code, out, err = run(capsys, [arg.format(cls=cls) for arg in prefix] + [path])
    assert code == 1 and out == ""
    assert err == f"{prefix[0]}: bad input: {message}\n"


def path_metric_csv(tmp_path, n, factor=1, offset=0):
    """A metric CSV of the path on n points, each distance d written as
    d * factor + offset: delta 0."""
    metric = tmp_path / f"path{n}x{factor}+{offset}.csv"
    rows = [",".join(f"p{i}" for i in range(n))]
    rows += [",".join(str(abs(i - j) * factor + offset if i != j else 0) for j in range(n)) for i in range(n)]
    metric.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return metric


def test_no_job_loads_numpy(tmp_path):
    # no job imports numpy: every metric is checked and scanned on Python
    # ints, at 3 and 96 points and at 97, one past the size up to which it
    # once was, plain and with entries past int64 (times 2**70 + 1 plus 1:
    # gcd 1); dataclasses (it loads inspect) would cost every job. Only what
    # the import adds counts.
    script = (
        "import io, sys, contextlib\n"
        "before = set(sys.modules)\n"
        "import cremlat.cli\n"
        "added = {'dataclasses', 'inspect'} & (set(sys.modules) - before)\n"
        "seen = [sorted(added), 'numpy' in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cremlat.cli.main(['halphen-table', '--nmax', '1']) == 0\n"
        "    seen.append('numpy' in sys.modules)\n"
        "    for metric in sys.argv[1:]:\n"
        "        assert cremlat.cli.main(['delta', metric]) == 0\n"
        "        seen.append('numpy' in sys.modules)\n"
        "print(*seen)\n"
    )
    metrics = [str(path_metric_csv(tmp_path, n)) for n in (3, 96)]
    metrics += [str(path_metric_csv(tmp_path, 97, 2**70 + 1, 1)), str(path_metric_csv(tmp_path, 97))]
    proc = subprocess.run([sys.executable, "-c", script, *metrics], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] False False False False False False\n"


# the cremlat modules a job loads: its own leg and nothing of the others
# (delta loads no Cremona, lattice or Halphen code; halphen-table, length,
# classify and in-e no hypgraph); see also test_exports for `import cremlat`
LEGS = {
    "delta": "_delta_py _exact cli errors hypgraph serialize",
    "halphen-table": "_exact cli errors halphen serialize",
    "flat-growth": "_exact bubble cli cremona errors halphen hypgraph length serialize",
    "length": "_exact bubble cli cremona errors length serialize",
    "classify": "_exact bubble cli cremona errors lattice serialize voronoi",
    "in-e": "_exact bubble cli errors lattice serialize",
}
# the jobs that read no JSON file, and so must not load the json module
NO_JSON = {"delta", "flat-growth", "halphen-table"}


@pytest.mark.parametrize("command", sorted(LEGS))
def test_job_loads_only_its_legs(tmp_path, command):
    argv = {
        "delta": [str(path_metric_csv(tmp_path, 4))],
        "halphen-table": ["--nmax", "1"],
        "flat-growth": ["--kmax", "2"],
        "length": [write_json(tmp_path, "char.json", TOWER2_CHAR)],
        "classify": ["--config", write_json(tmp_path, "run.json", RUN_CONFIG)],
        "in-e": [write_json(tmp_path, "conic.json", CONIC_CLASS)],
    }[command]
    script = (
        "import io, sys, contextlib\n"
        "import cremlat.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cremlat.cli.main(sys.argv[1:])\n"
        "print(code, *sorted(name[8:] for name in sys.modules if name.startswith('cremlat.')))\n"
        "print('json' in sys.modules)\n"
        "print(*(name in sys.modules for name in ('argparse', 'gettext', 'locale')))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, command, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    legs, json_loaded, parser_loaded = proc.stdout.splitlines()
    assert legs == f"0 {LEGS[command]}"
    if command in NO_JSON:
        assert json_loaded == "False"
    # argv is read without argparse, and so without the gettext and locale it loads
    assert parser_loaded == "False False False"


class TestOutFlag:
    def test_file_matches_stdout(self, capsys, tmp_path):
        _, stdout_text, _ = run(capsys, ["halphen-table", "--nmax", "1"])
        target = tmp_path / "table.csv"
        code, out, _ = run(capsys, ["halphen-table", "--nmax", "1", "--out", str(target)])
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8") == stdout_text


class TestEntryPoints:
    def test_module_invocation(self, capsys):
        _, expected, _ = run(capsys, ["halphen-table", "--nmax", "1"])
        proc = subprocess.run(
            [sys.executable, "-m", "cremlat", "halphen-table", "--nmax", "1"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == expected

    def test_console_script(self):
        argv = ["flat-growth", "--kmax", "1"]
        script = shutil.which("cremlat")
        if script is not None:
            command = [script] + argv
        else:  # not installed: call the declared target as the generated script does
            with open(PYPROJECT, "rb") as handle:
                target = tomllib.load(handle)["project"]["scripts"]["cremlat"]
            module, func = target.split(":")
            code = f"import sys; from {module} import {func}; sys.exit({func}())"
            command = [sys.executable, "-c", code] + argv
        proc = subprocess.run(command, capture_output=True, text=True)
        expected = subprocess.run(
            [sys.executable, "-m", "cremlat"] + argv, capture_output=True, text=True
        )
        assert proc.returncode == expected.returncode == 0
        assert proc.stdout == expected.stdout

    # stdout buffered, as a shell gives it, so the CSV is written as the
    # process ends: a failure there exited 120 with two "Exception ignored"
    # lines of Python's
    @pytest.mark.parametrize("sink, number", [("full", errno.ENOSPC), ("closed-pipe", errno.EPIPE)])
    def test_output_failure_is_one_line(self, sink, number):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        argv = [sys.executable, "-m", "cremlat", "halphen-table", "--nmax", "3"]
        if sink == "full":
            with open("/dev/full", "wb") as full:
                proc = subprocess.run(argv, stdout=full, stderr=subprocess.PIPE, text=True, env=env)
        else:
            read, write = os.pipe()
            os.close(read)
            try:
                proc = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE, text=True, env=env)
            finally:
                os.close(write)
        assert proc.returncode == 1
        assert proc.stderr == f"cremlat: cannot write output: [Errno {number}] {os.strerror(number)}\n"

    def test_run_ends_the_process_with_the_exit_code(self, monkeypatch, capsys):
        ended = []
        monkeypatch.setattr(cli.os, "_exit", ended.append)
        monkeypatch.setattr(sys, "argv", ["cremlat", "flat-growth", "--kmax", "0"])
        cli.run()
        assert ended == [1] and capsys.readouterr().err.count("\n") == 1

    def test_run_lets_an_escaping_exception_propagate(self, monkeypatch):
        def broken(argv=None):
            raise RuntimeError("from main")

        monkeypatch.setattr(cli, "main", broken)
        monkeypatch.setattr(cli.os, "_exit", pytest.fail)
        with pytest.raises(RuntimeError, match="from main"):
            cli.run()

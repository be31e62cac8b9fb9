import json
import shutil
import subprocess
import sys

import pytest

from cremlat.cli import main

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

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["delta", str(tmp_path / "absent.csv")])
        assert code == 1 and "bad input" in err

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
    assert err == f"{prefix[0]}: bad input: {path}: top level must be a JSON object, found list\n"


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
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RECORDS))
def test_malformed_record_is_bad_input(capsys, tmp_path, case):
    prefix, payload, message = MALFORMED_RECORDS[case]
    cls = write_json(tmp_path, "conic.json", CONIC_CLASS)
    path = write_json(tmp_path, "record.json", payload)
    code, out, err = run(capsys, [arg.format(cls=cls) for arg in prefix] + [path])
    assert code == 1 and out == ""
    assert err == f"{prefix[0]}: bad input: {message}\n"


def test_numpy_loads_only_for_metrics(tmp_path):
    # numpy's import is most of the start-up time of a job that builds no metric
    metric = tmp_path / "three.csv"
    metric.write_text("a,b,c\n0,1,2\n1,0,1\n2,1,0\n", encoding="utf-8")
    script = (
        "import io, sys, contextlib\n"
        "import cremlat.cli\n"
        "seen = ['numpy' in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cremlat.cli.main(['halphen-table', '--nmax', '1']) == 0\n"
        "    seen.append('numpy' in sys.modules)\n"
        "    assert cremlat.cli.main(['delta', sys.argv[1]]) == 0\n"
        "    seen.append('numpy' in sys.modules)\n"
        "print(*seen)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(metric)], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False False True\n"


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

    def test_console_script(self, capsys):
        script = shutil.which("cremlat")
        if script is None:
            pytest.skip("console script not on PATH")
        _, expected, _ = run(capsys, ["flat-growth", "--kmax", "1"])
        proc = subprocess.run(
            [script, "flat-growth", "--kmax", "1"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stdout == expected

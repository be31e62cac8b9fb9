"""The CLI contract under mutated input files and option tokens.

Whatever the files hold, ``cli.main`` returns 0, 1 or 2 and never raises;
stderr holds at most one line and never a traceback; exit 1 means empty
stdout and exactly one stderr line.  (``in-e`` exit 2 prints its report to
stdout by design.)  The inputs start from valid records, metrics and
arguments and are mutated: subtrees replaced or dropped, lists cut, JSON
text truncated or flipped, CSV cells, labels, rows and line endings
changed.  Sizes stay small, so every job is fast.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

from hypothesis import example, given, settings, strategies as st

from cremlat.cli import main

QUADRATIC = {
    "degree": 2,
    "base": [{"point": 0, "mult": 1}, {"point": 1, "mult": 1}, {"point": 2, "mult": 1}],
    "inverse_base": [{"point": 3, "mult": 1}, {"point": 4, "mult": 1}, {"point": 5, "mult": 1}],
}

TOWER2 = {
    "degree": 4,
    "base": [{"point": p, "mult": m} for p, m in enumerate((2, 2, 2, 1, 1, 1))],
    "inverse_base": [{"point": 10 + p, "mult": m} for p, m in enumerate((2, 2, 2, 1, 1, 1))],
}

CONIC = {"degree": "2/1", "mults": [{"point": p, "mult": "1/1"} for p in (1, 2, 3)]}

CLASS = {
    "degree": "2/1",
    "mults": [{"point": 1, "mult": "1/1"}, {"point": 2, "mult": "2/1"}, {"point": 3, "mult": "-1/2"}],
}

CONFIG = {
    "configuration": {
        "points": [{"id": 1}, {"id": 2, "parent": 1}, {"id": 3}, {"id": 4}],
        "collinear": [[1, 3, 4]],
        "conics": [],
    },
}

RUN = {
    "configuration": {"points": [{"id": p} for p in range(6)]},
    "characteristics": [dict(QUADRATIC, label="q2"), dict(TOWER2, label="t4")],
}

# numerals the readers must bound or refuse: zero denominators, huge exponents
# and digit counts, non-finite and non-decimal spellings
NASTY = [
    "1/0", "0/0", "1e4300", "1e-4299", "1e99999", "-3/2", "nan", "inf", "0x10", "1_0",
    "", " 2 ", "١", "2e400", "9" * 5000,
]

JSON_LEAF = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    st.sampled_from(NASTY),
)
JSON_VALUE = st.recursive(
    JSON_LEAF,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=6), kids, max_size=3),
    max_leaves=6,
)


def _paths(value, prefix=()):
    """The key/index path of every node of a JSON value, root first."""
    yield prefix
    if isinstance(value, (dict, list)):
        for key, child in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _paths(child, prefix + (key,))


@st.composite
def mutated(draw, record):
    """``record`` with one to three nodes replaced by random JSON, dropped or cut short."""
    root = json.loads(json.dumps(record))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(root))))
        if not path:
            root = draw(JSON_VALUE)
            continue
        parent = root
        for key in path[:-1]:
            parent = parent[key]
        how = draw(st.sampled_from(["replace", "drop", "cut"]))
        node = parent[path[-1]]
        if how == "replace":
            parent[path[-1]] = draw(JSON_VALUE)
        elif how == "drop":
            del parent[path[-1]]
        elif isinstance(node, list):
            del node[draw(st.integers(0, len(node))) :]
    return root


@st.composite
def json_text(draw, record):
    """A record as JSON text: as it is, mutated, truncated or with one character changed."""
    edit = draw(st.sampled_from(["none", "tree", "tree", "truncate", "flip"]))
    text = json.dumps(draw(mutated(record)) if edit == "tree" else record)
    cut = draw(st.integers(0, len(text)))
    if edit == "truncate":
        return text[:cut]
    if edit == "flip":
        return text[:cut] + draw(st.characters()) + text[cut + 1 :]
    return text


@st.composite
def deeply_nested(draw, record):
    """``record`` as JSON text with one node, or the whole record, replaced by
    lists or objects nested past the interpreter's recursion limit."""
    root = json.loads(json.dumps(record))
    path = draw(st.sampled_from(list(_paths(root))))
    depth = sys.getrecursionlimit() * draw(st.sampled_from([1, 2, 20])) + draw(st.integers(0, 9))
    opener, closer = draw(st.sampled_from([("[", "]"), ('{"a":', "}")]))
    core = draw(st.sampled_from(["", "1"])) if opener == "[" else "1"
    deep = opener * depth + core + closer * depth
    if not path:
        return deep
    parent = root
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = "@DEEP@"
    return json.dumps(root).replace('"@DEEP@"', deep)


@st.composite
def metric_csv(draw):
    """A small metric CSV, valid or with cells, labels, rows or the text mutated."""
    n = draw(st.integers(1, 12))
    # a weighted star: d(i, j) = w_i + w_j is a metric for positive weights
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    denominator = draw(st.sampled_from([1, 1, 3, 7]))
    # e17 stays on int64, e62 and e400 do not; e400 also leaves the float range
    exponent = draw(st.sampled_from(["", "", "e17", "e62", "e400", "e-400"]))
    labels = [chr(ord("a") + i) for i in range(n)]

    def cell(i, j):
        if i == j:
            return "0"
        d = weights[i] + weights[j]
        return f"{d}{exponent}" if exponent else f"{d}/{denominator}"

    rows = [[cell(i, j) for j in range(n)] for i in range(n)]
    edit = draw(st.sampled_from(["none", "cells", "label", "drop row", "add row", "cut row", "truncate"]))
    index = st.integers(0, n - 1)
    if edit == "cells":
        for _ in range(draw(st.integers(1, 3))):
            rows[draw(index)][draw(index)] = draw(st.sampled_from(NASTY) | st.text(max_size=5))
    elif edit == "label":
        labels[draw(index)] = draw(st.sampled_from(["a", "", '"', "b,c"]) | st.text(max_size=3))
    elif edit == "drop row":
        del rows[draw(index)]
    elif edit == "add row":
        rows.append(list(rows[draw(index)]))
    elif edit == "cut row":
        del rows[draw(index)][draw(index) :]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(",".join(row) for row in [labels] + rows) + draw(st.sampled_from([end, ""]))
    return text[: draw(st.integers(0, len(text)))] if edit == "truncate" else text


def check_contract(argv, files):
    """Run ``main`` on ``argv``, where each key of ``files`` stands for a file holding its text;
    return the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for key, text in files.items():
            paths[key] = os.path.join(tmp, f"input{len(paths)}")
            with open(paths[key], "wb") as handle:
                # a lone surrogate becomes bytes that are not UTF-8, which the readers must refuse
                handle.write(text.encode("utf-8", "surrogatepass"))
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([paths.get(arg, arg) for arg in argv])
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err and err.count("\n") <= 1, err
    if code == 1:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (out, err)
    return code, out, err


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([
        (["length", "FILE"], QUADRATIC),
        (["length", "FILE"], TOWER2),
        (["in-e", "FILE"], CONIC),
        (["in-e", "FILE"], CLASS),
        (["classify", "--config", "FILE"], RUN),
    ]).flatmap(lambda case: st.tuples(st.just(case[0]), json_text(case[1]))),
)
def test_mutated_records(case):
    argv, text = case
    check_contract(argv, {"FILE": text})


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from([
        (["length", "FILE"], TOWER2),
        (["in-e", "FILE"], CLASS),
        (["classify", "--config", "FILE"], RUN),
    ]).flatmap(lambda case: st.tuples(st.just(case[0]), deeply_nested(case[1]))),
)
def test_nested_past_the_recursion_limit(case):
    argv, text = case
    code, _, err = check_contract(argv, {"FILE": text})
    assert code == 1 and err.endswith(": JSON nested too deeply\n"), err


@settings(max_examples=60, deadline=None)
@given(json_text(CLASS), json_text(CONFIG))
def test_mutated_class_and_config(cls, config):
    check_contract(["in-e", "CLASS", "--config", "CONFIG"], {"CLASS": cls, "CONFIG": config})


@settings(max_examples=150, deadline=None)
@given(metric_csv())
@example("a,b\n0," + "1" * 200_000 + "\n1,0\n")  # past csv's field size limit
@example("a,b,c,d\n0,1e400,2e400,1e400\n1e400,0,1e400,2e400\n"
         "2e400,1e400,0,1e400\n1e400,2e400,1e400,0\n")  # delta past the float range
def test_mutated_metrics(text):
    check_contract(["delta", "METRIC"], {"METRIC": text})


def small_or_malformed(token):
    # valid sizes past 3 only make the job slow; they test nothing here
    try:
        return int(token) <= 3
    except ValueError:
        return True


# never --out or a prefix of it: argparse would take "--o" for --out and write a file
OPTION_TOKEN = st.one_of(
    st.sampled_from(["--nmax", "--kmax", "--jobs", "-x", "--", "-", "-1", "0", "1", "3", "9" * 5000]),
    st.text(max_size=5).filter(lambda t: not t.startswith("-")).filter(small_or_malformed),
)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["halphen-table", "flat-growth"]), st.lists(OPTION_TOKEN, max_size=4))
@example("flat-growth", ["--kmax", "2"])  # a valid size, so the contract holds on exit 0
@example("halphen-table", ["--nmax", "x"])  # argparse printed its usage line above the error
@example("flat-growth", ["\n", "--kmax", "1"])  # the error echoed the newline as it was
def test_malformed_options(command, tokens):
    check_contract([command] + tokens, {})

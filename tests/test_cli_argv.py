"""The command line's words, pinned byte for byte.

Each `--help` text is pinned as `python -m cremlat` prints it with COLUMNS
unset and stdout not a terminal, and each usage error as the one stderr
line and exit code `cli.main` gives.  The pins were taken from the argparse
front-end; the reader that replaced it keeps every byte.  That front-end is
kept below as the reference: on argv drawn from the table's names, flags,
prefixes and edge tokens, the reader gives the same exit code, fields,
stdout and stderr, apart from the deviations listed with their reasons.
Its words are argparse's as of Python 3.11.
"""

import argparse
import contextlib
import io
import os
import subprocess
import sys
from typing import Sequence
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from cremlat import cli
from cremlat._exact import cut, cut_repr
from cremlat.cli import main

HELP = {
    "": """\
usage: cremlat [-h] {halphen-table,flat-growth,delta,length,classify,in-e} ...

Batch front-end. Six subcommands wrap the library: halphen-table, flat-growth,
delta, length, classify, in-e. Tabular output is CSV with a header row; given
identical inputs the bytes are identical. Exit codes: 0 success, 1 input or
usage error (including a point id the input uses but never declares), 2
mathematical failure (failed validation, failed certificate, mismatch, non-
membership).

positional arguments:
  {halphen-table,flat-growth,delta,length,classify,in-e}
    halphen-table       twist degrees vs the closed form
    flat-growth         length-bound table and growth certificate
    delta               exact four-point constant of a metric CSV
    length              length bounds of a characteristic JSON file
    classify            adjacency classification of configured maps
    in-e                membership report for a class JSON file

options:
  -h, --help            show this help message and exit
""",
    "halphen-table": """\
usage: cremlat halphen-table [-h] --nmax N [--out PATH]

options:
  -h, --help  show this help message and exit
  --nmax N
  --out PATH  write output here instead of stdout
""",
    "flat-growth": """\
usage: cremlat flat-growth [-h] --kmax N [--out PATH]

options:
  -h, --help  show this help message and exit
  --kmax N
  --out PATH  write output here instead of stdout
""",
    "delta": """\
usage: cremlat delta [-h] [--out PATH] metric

positional arguments:
  metric      headered square distance matrix, entries num/den

options:
  -h, --help  show this help message and exit
  --out PATH  write output here instead of stdout
""",
    "length": """\
usage: cremlat length [-h] [--out PATH] char

positional arguments:
  char        characteristic record

options:
  -h, --help  show this help message and exit
  --out PATH  write output here instead of stdout
""",
    "classify": """\
usage: cremlat classify [-h] --config PATH [--out PATH]

options:
  -h, --help     show this help message and exit
  --config PATH  run configuration JSON
  --out PATH     write output here instead of stdout
""",
    "in-e": """\
usage: cremlat in-e [-h] [--config PATH] [--out PATH] class

positional arguments:
  class          class record

options:
  -h, --help     show this help message and exit
  --config PATH  run configuration JSON with the points
  --out PATH     write output here instead of stdout
""",
}


@pytest.mark.parametrize("command", sorted(HELP), ids=lambda c: c or "top")
def test_help_text(command):
    env = {k: v for k, v in os.environ.items() if k not in ("COLUMNS", "LINES")}
    argv = [command, "--help"] if command else ["--help"]
    proc = subprocess.run([sys.executable, "-m", "cremlat", *argv], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, HELP[command], "")


CHOICES = "(choose from 'halphen-table', 'flat-growth', 'delta', 'length', 'classify', 'in-e')"

# argv, exit code, stderr; run in an empty directory, so no named file exists
USAGE = [
    ([], 1, "cremlat: error: the following arguments are required: command\n"),
    (["frobnicate"], 1, f"cremlat: error: argument command: invalid choice: 'frobnicate' {CHOICES}\n"),
    (["halphen-table"], 1, "cremlat halphen-table: error: the following arguments are required: --nmax\n"),
    (["flat-growth"], 1, "cremlat flat-growth: error: the following arguments are required: --kmax\n"),
    (["classify"], 1, "cremlat classify: error: the following arguments are required: --config\n"),
    (["delta"], 1, "cremlat delta: error: the following arguments are required: metric\n"),
    (["length"], 1, "cremlat length: error: the following arguments are required: char\n"),
    (["in-e"], 1, "cremlat in-e: error: the following arguments are required: class\n"),
    (["halphen-table", "--nmax", "x"], 1,
     "cremlat halphen-table: error: argument --nmax: expected an integer, got 'x'\n"),
    (["halphen-table", "--nmax", "1e3"], 1,
     "cremlat halphen-table: error: argument --nmax: expected an integer, got '1e3'\n"),
    (["halphen-table", "--nmax", "0"], 1,
     "cremlat halphen-table: error: argument --nmax: expected a positive integer, got 0\n"),
    # a negative number is a value, not an option
    (["flat-growth", "--kmax", "-1"], 1,
     "cremlat flat-growth: error: argument --kmax: expected a positive integer, got -1\n"),
    (["halphen-table", "--nmax", "-1.5"], 1,
     "cremlat halphen-table: error: argument --nmax: expected an integer, got '-1.5'\n"),
    (["delta", "-1"], 1, "delta: bad input: [Errno 2] No such file or directory: '-1'\n"),
    (["halphen-table", "--nmax"], 1, "cremlat halphen-table: error: argument --nmax: expected one argument\n"),
    (["halphen-table", "--nmax", "-x"], 1,
     "cremlat halphen-table: error: argument --nmax: expected one argument\n"),
    (["halphen-table", "--nmax", "1", "--nmax"], 1,
     "cremlat halphen-table: error: argument --nmax: expected one argument\n"),
    (["halphen-table", "--nmax", "1", "--out"], 1,
     "cremlat halphen-table: error: argument --out: expected one argument\n"),
    (["delta", "a.csv", "--out", "--"], 1, "cremlat delta: error: argument --out: expected one argument\n"),
    (["in-e", "--c"], 1, "cremlat in-e: error: argument --config: expected one argument\n"),
    (["halphen-table", "--nm", "2"], 0, ""),
    (["halphen-table", "--nmax=2"], 0, ""),
    (["delta", "--", "-x.csv"], 1, "delta: bad input: [Errno 2] No such file or directory: '-x.csv'\n"),
    (["delta", "a.csv", "b", "c"], 1, "cremlat: error: unrecognized arguments: b c\n"),
    (["-x", "delta", "a.csv", "-y"], 1, "cremlat: error: unrecognized arguments: -x -y\n"),
    (["halphen-table", "--nmax", "1", "--", "x"], 1, "cremlat: error: unrecognized arguments: -- x\n"),
    (["halphen-table", "--nmax", "1", "--"], 1, "cremlat: error: unrecognized arguments: --\n"),
    (["delta", "a.csv", "b", "--"], 1, "cremlat: error: unrecognized arguments: b --\n"),
    (["delta", "--", "--", "a.csv"], 1, "cremlat: error: unrecognized arguments: a.csv\n"),
    (["--", "delta", "a.csv"], 1, f"cremlat: error: argument command: invalid choice: '--' {CHOICES}\n"),
    (["delta", "--=x"], 1, "cremlat delta: error: ambiguous option: --=x could match --help, --out\n"),
    (["halphen-table", "-hx"], 1,
     "cremlat halphen-table: error: argument -h/--help: ignored explicit argument 'x'\n"),
]


@pytest.mark.parametrize("argv, code, err", USAGE, ids=lambda v: " ".join(v) if isinstance(v, list) else "")
def test_usage_line(capsys, tmp_path, monkeypatch, argv, code, err):
    monkeypatch.chdir(tmp_path)
    got = main(argv)
    captured = capsys.readouterr()
    assert (got, captured.err) == (code, err)
    if code:
        assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["--nmax", "1", "--nmax", "2"],  # a repeated option: the last value wins
    ["--nm", "2"],
    ["--nmax=2"],
    ["--n=1", "--nmax", "2"],
])
def test_option_spellings(capsys, argv):
    assert main(["halphen-table", "--nmax", "2"]) == 0
    expected = capsys.readouterr().out
    assert main(["halphen-table", *argv]) == 0
    assert capsys.readouterr().out == expected


# ---------------------------------------------------------------------------
# the argparse front-end the reader replaced, kept as its reference


class _Oracle(argparse.ArgumentParser):
    # the tokens this parser reads, for error() to find in argparse's words
    _tokens: Sequence[str] = ()

    def parse_known_args(self, args=None, namespace=None):
        self._tokens = list(sys.argv[1:] if args is None else args)
        return super().parse_known_args(self._tokens, namespace)

    def parse_args(self, args=None, namespace=None):
        args, extra = self.parse_known_args(args, namespace)
        if extra:
            shown = " ".join(extra[:cli._SHOWN_TOKENS])
            if len(extra) > cli._SHOWN_TOKENS:
                shown += f" … and {len(extra) - cli._SHOWN_TOKENS} more"
            self.error(f"unrecognized arguments: {shown}")
        return args

    def error(self, message: str) -> None:
        for token in sorted(self._tokens, key=len, reverse=True):
            message = message.replace(repr(token), cut_repr(token)).replace(token, cut(token))
        cli._fail(f"{self.prog}: error: {message}")
        raise SystemExit(cli.EXIT_INPUT)


def _oracle_positive(text):
    try:
        return cli._positive(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


# the CLI module's docstring, which was the top-level description
ABOUT = """Batch front-end.

Six subcommands wrap the library: halphen-table, flat-growth, delta,
length, classify, in-e.  Tabular output is CSV with a header row; given
identical inputs the bytes are identical.  Exit codes: 0 success, 1 input
or usage error (including a point id the input uses but never declares),
2 mathematical failure (failed validation, failed certificate, mismatch,
non-membership).
"""


def oracle_parser() -> _Oracle:
    parser = _Oracle(prog="cremlat", description=ABOUT)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")

    p = sub.add_parser("halphen-table", help="twist degrees vs the closed form")
    p.add_argument("--nmax", metavar="N", type=_oracle_positive, required=True)
    common(p)
    p.set_defaults(func=cli.cmd_halphen_table)

    p = sub.add_parser("flat-growth", help="length-bound table and growth certificate")
    p.add_argument("--kmax", metavar="N", type=_oracle_positive, required=True)
    common(p)
    p.set_defaults(func=cli.cmd_flat_growth)

    p = sub.add_parser("delta", help="exact four-point constant of a metric CSV")
    p.add_argument("metric", help="headered square distance matrix, entries num/den")
    common(p)
    p.set_defaults(func=cli.cmd_delta)

    p = sub.add_parser("length", help="length bounds of a characteristic JSON file")
    p.add_argument("char", help="characteristic record")
    common(p)
    p.set_defaults(func=cli.cmd_length)

    p = sub.add_parser("classify", help="adjacency classification of configured maps")
    p.add_argument("--config", metavar="PATH", required=True, help="run configuration JSON")
    common(p)
    p.set_defaults(func=cli.cmd_classify)

    p = sub.add_parser("in-e", help="membership report for a class JSON file")
    p.add_argument("cls", metavar="class", help="class record")
    p.add_argument("--config", metavar="PATH", help="run configuration JSON with the points")
    common(p)
    p.set_defaults(func=cli.cmd_in_e)

    return parser


def read_both(argv):
    """(exit code or None, parsed fields, stdout, stderr) from the oracle and
    from the reader; None means the command would run."""
    results = []
    for oracle in (True, False):
        out, err = io.StringIO(), io.StringIO()
        code, fields = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                args = oracle_parser().parse_args(list(argv)) if oracle else cli._read(list(argv))
            except SystemExit as exc:
                code = exc.code
            except cli._UsageError as exc:
                cli._fail(f"{exc.prog}: error: {exc}")
                code = cli.EXIT_INPUT
            else:
                if args is None:
                    code = cli.EXIT_OK
                else:
                    fields = {k: v for k, v in vars(args).items() if k != "func"}
                    assert args.func is cli._COMMANDS[args.command][0]
        results.append((code, fields, out.getvalue(), err.getvalue()))
    return results


NAMES = list(cli._COMMANDS)
FLAGS = ["--nmax", "--kmax", "--config", "--out", "--help", "-h"]
PREFIXES = sorted({flag[:k] for flag in FLAGS[:5] for k in range(3, len(flag))})
# argparse strips a "--" from an explicit value too (see DEVIATIONS), so no
# "=" form here gives "--"
TOKEN = st.one_of(
    st.sampled_from(NAMES + FLAGS + PREFIXES + [
        "--", "-", "-1", "-07", "-0.5", "-.5", "-1.", "-1e3", "-x", "-hh", "-hx", "-h=h", "--=x", "-a b",
        "0", "2", "3", "a.csv", "",
    ]),
    st.builds("{}={}".format, st.sampled_from(FLAGS + PREFIXES + ["--", "-x"]),
              st.sampled_from(["", "1", "-1", "x", "h", "a=b"])),
    st.text(max_size=4),
)
ARGV = st.one_of(
    st.lists(TOKEN, max_size=6),
    st.builds(lambda name, rest: [name, *rest], st.sampled_from(NAMES), st.lists(TOKEN, max_size=6)),
)


@settings(max_examples=1500, deadline=None)
@given(ARGV)
@example(["--help"])
@example(["in-e", "-hh"])
@example(["delta", "a", "--", "--"])
@example(["in-e", "--c=x", "-h", "--=y"])
@example(["halphen-table", "--n", "-1", "--nmax", "2", "x", "--"])
def test_reader_matches_argparse(argv):
    # argparse lays help out to the terminal's width; the reader always to 80
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        oracle, reader = read_both(argv)
    assert reader == oracle


# where the reader and argparse part, on purpose: (argv, the reader's result)
DEVIATIONS = [
    # argparse strips the first "--" from an option's explicit value as from
    # a run of values, leaving the field an empty list: --out=-- then failed
    # as "bad input" on opening [], and --nmax=-- on negating it.  The reader
    # keeps the value as given
    (["delta", "a.csv", "--out=--"], (None, {"command": "delta", "metric": "a.csv", "out": "--"}, "", "")),
    (["halphen-table", "--nmax=--"],
     (1, None, "", "cremlat halphen-table: error: argument --nmax: expected an integer, got '--'\n")),
    # argparse echoed letters attached to -h whole, since they are no whole
    # token its error() could cut; the reader cuts them as it cuts a token
    (["-h" + "x" * 100], (1, None, "", "cremlat: error: argument -h/--help: ignored explicit argument '"
                          + "x" * 78 + "…\n")),
]


@pytest.mark.parametrize("argv, expected", DEVIATIONS, ids=["out", "nmax", "help-letters"])
def test_deviations_from_argparse(argv, expected):
    oracle, reader = read_both(argv)
    assert reader == expected != oracle


def test_help_follows_no_terminal_width(capsys):
    # argparse wrapped help to COLUMNS; the reader's text is the 80-column one
    with mock.patch.dict(os.environ, {"COLUMNS": "40"}):
        assert main(["in-e", "--help"]) == 0
    assert capsys.readouterr().out == HELP["in-e"]

"""Batch front-end: six subcommands over the library, each writing a CSV.

`_ABOUT` is the top-level help: the subcommands, the output and the exit
codes.  `main` reads argv against the command table `_COMMANDS` with `_read`,
one walk that follows argparse's algorithm and its nargs patterns for the
top level and each subcommand, and runs one subcommand; `run`, the console
entry, then ends the process.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace
from typing import List, NoReturn, Optional, Sequence

# Each cmd_* imports the legs it runs, so a job loads only its own: delta
# never loads the Cremona or Halphen code, halphen-table never hypgraph.
from ._exact import cut, cut_path, cut_repr
from .errors import CremlatError, UnknownPoint

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MATH = 2

# the most bytes of one stderr line, its newline included, in UTF-8 as stderr
# writes it (an undecodable argv byte as its backslash escape)
_LINE_BYTES = 300
# the most unrecognized tokens a usage error names; it counts the rest
_SHOWN_TOKENS = 3


def _fail(message: str) -> None:
    # one stderr line, even when the message echoes an argument or a path
    # holding a newline, and at most _LINE_BYTES long whatever the values it echoes
    line = message.replace("\n", "\\n")
    data = line.encode("utf-8", "backslashreplace")
    if len(data) >= _LINE_BYTES:
        line = data[: _LINE_BYTES - 4].decode("utf-8", "ignore") + "…"
    print(line, file=sys.stderr)


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {cut_repr(text)}")
    if value < 1:
        raise ValueError(f"expected a positive integer, got {cut_repr(value)}")
    return value


class _Unwritten(Exception):
    """A failed write of the output: args[0] is its OSError, no fault of the input."""


def _emit(text: str, out: Optional[str]) -> None:
    # a --out that cannot be opened is bad input
    handle = sys.stdout if out is None else open(out, "w", encoding="utf-8", newline="")
    try:
        try:
            handle.write(text)
        finally:
            if out is not None:
                handle.close()
    except OSError as exc:
        raise _Unwritten(exc) from None


def _cannot_write(exc: OSError) -> int:
    # the one line of a failed write, in main() or at run()'s flush
    _fail(f"cremlat: cannot write output: {exc}")
    return EXIT_INPUT


def _flag(value: bool) -> str:
    return "true" if value else "false"


# ---------------------------------------------------------------------------
# subcommands


def cmd_halphen_table(args) -> int:
    from .halphen import twist_degree
    from .serialize import csv_text

    rows = []
    mismatched = False
    for n in range(-args.nmax, args.nmax + 1):
        for m in range(-args.nmax, args.nmax + 1):
            lattice = twist_degree(n, m)
            closed = 9 * (n * n + m * m + n * m) + 1
            match = lattice == closed
            mismatched = mismatched or not match
            rows.append([n, m, lattice, closed, _flag(match)])
    _emit(csv_text(["n", "m", "lattice_degree", "closed_form", "match"], rows), args.out)
    if mismatched:
        _fail("halphen-table: lattice degree disagrees with the closed form")
        return EXIT_MATH
    return EXIT_OK


def cmd_flat_growth(args) -> int:
    from .hypgraph import flat_growth
    from .serialize import csv_text

    table = flat_growth(args.kmax)
    certificate = table.certificate
    body = csv_text(
        ["m", "n", "degree", "lower", "upper"],
        [[r.m, r.n, r.degree, r.lower, r.upper] for r in table.rows],
    )
    verdict = "PASS" if certificate.passed else "FAIL"
    _emit(body + f"# certificate: {verdict}\n", args.out)
    if not certificate.passed:
        _fail(f"flat-growth: lower-bound certificate fails at k = {cut_repr(certificate.failing_k)}")
        return EXIT_MATH
    return EXIT_OK


def cmd_delta(args) -> int:
    from .hypgraph import four_point_delta
    from .serialize import csv_text, metric_from_csv, rational_to_str, real_to_str

    metric = metric_from_csv(args.metric)
    value = four_point_delta(metric)
    row = [[metric.size, rational_to_str(value), real_to_str(value)]]
    _emit(csv_text(["points", "delta", "delta_real"], row), args.out)
    return EXIT_OK


def cmd_length(args) -> int:
    from .length import greedy_length
    from .serialize import characteristic_from_record, csv_text, load_json

    char = characteristic_from_record(load_json(args.char))
    bounds = greedy_length(char)  # raises InvalidCharacteristic on bad input
    degrees = [char.degree] + [degree for _, degree in bounds.decomposition]
    row = [
        [
            char.degree,
            len(char.base),
            bounds.lower_md,
            bounds.lower_deg,
            bounds.upper_greedy,
            ">".join(str(d) for d in degrees),
        ]
    ]
    header = ["degree", "n_base", "lower_md", "lower_deg", "upper", "decomposition"]
    _emit(csv_text(header, row), args.out)
    return EXIT_OK


def cmd_classify(args) -> int:
    from .bubble import Configuration
    from .serialize import csv_text, load_runconfig
    from .voronoi import classify_germ

    run = load_runconfig(args.config)
    config = run.configuration
    if config is None:
        ids = sorted({p for _, char in run.characteristics for p in char.base_ids()})
        config = Configuration.generic(ids)
    rows = []
    for label, char in run.characteristics:
        rows.append([label, char.degree, len(char.base), classify_germ(char, config)])
    _emit(csv_text(["label", "degree", "n_base", "classification"], rows), args.out)
    return EXIT_OK


def cmd_in_e(args) -> int:
    from .bubble import Configuration
    from .lattice import in_E
    from .serialize import class_from_record, csv_text, load_json, load_runconfig, rational_to_str

    cls = class_from_record(load_json(args.cls))
    if args.config is not None:
        config = load_runconfig(args.config).configuration
        if config is None:
            _fail("in-e: config file has no configuration section")
            return EXIT_INPUT
    else:
        config = Configuration.generic(cls.support)
    report = in_E(cls, config)
    witness = report.bezout_witness
    columns = [
        ("member", _flag(report.in_E)),
        ("nonneg_mults", _flag(report.nonneg_mults)),
        ("negative_point", report.negative_point),
        ("anticanonical", _flag(report.anticanonical)),
        ("anticanonical_margin", rational_to_str(report.anticanonical_margin)),
        ("excesses", _flag(report.excesses)),
        ("excess_point", report.excess_point),
        ("bezout", _flag(report.bezout)),
        ("bezout_kind", witness.kind if witness else ""),
        ("bezout_points", " ".join(str(p) for p in witness.points) if witness else ""),
        ("bezout_residual", rational_to_str(witness.residual) if witness else ""),
    ]
    header, row = zip(*columns)
    _emit(csv_text(header, [row]), args.out)
    return EXIT_OK if report.in_E else EXIT_MATH


# ---------------------------------------------------------------------------
# wiring: the command table, its reader and its help

_OUT = ("--out", "PATH", False, "write output here instead of stdout")

# name -> (runner, help line, options, positional), in the order help lists
# them.  An option is (flag, metavar, required, help), and its field is the
# flag without its dashes; an N is read by _positive, any other value kept as
# given.  The positional, if any, is (field, metavar, help).
_COMMANDS = {
    "halphen-table": (cmd_halphen_table, "twist degrees vs the closed form",
                      [("--nmax", "N", True, ""), _OUT], None),
    "flat-growth": (cmd_flat_growth, "length-bound table and growth certificate",
                    [("--kmax", "N", True, ""), _OUT], None),
    "delta": (cmd_delta, "exact four-point constant of a metric CSV",
              [_OUT], ("metric", "metric", "headered square distance matrix, entries num/den")),
    "length": (cmd_length, "length bounds of a characteristic JSON file",
               [_OUT], ("char", "char", "characteristic record")),
    "classify": (cmd_classify, "adjacency classification of configured maps",
                 [("--config", "PATH", True, "run configuration JSON"), _OUT], None),
    "in-e": (cmd_in_e, "membership report for a class JSON file",
             [("--config", "PATH", False, "run configuration JSON with the points"), _OUT],
             ("cls", "class", "class record")),
}
_CHOICES = ", ".join(repr(name) for name in _COMMANDS)

# the top-level help's description, laid out as argparse laid it out at 80 columns
_ABOUT = """\
Batch front-end. Six subcommands wrap the library: halphen-table, flat-growth,
delta, length, classify, in-e. Tabular output is CSV with a header row; given
identical inputs the bytes are identical. Exit codes: 0 success, 1 input or
usage error (including a point id the input uses but never declares), 2
mathematical failure (failed validation, failed certificate, mismatch, non-
membership)."""

# a token argparse reads as a negative number, which is a value, not an option
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")
_MARK = "--"  # the first one ends the options; every later token is a value


class _UsageError(Exception):
    """A command line the table does not accept, in argparse's words; ``prog``
    names the parser that refused it, as argparse did."""

    def __init__(self, prog: str, message: str) -> None:
        super().__init__(message)
        self.prog = prog


def _option(token: str, flags: Sequence[str], prog: str):
    """How argparse reads ``token`` before the first "--": None for a value,
    else (flag, the value after "=" or None), with flag None for an option no
    entry names.  ``flags`` are the parser's long options, --help first; a
    long option may be cut to any prefix that names one alone."""
    if not token.startswith("-") or token == "-":
        return None
    if token == "-h" or token in flags:
        return token, None
    head, equals, explicit = token.partition("=")
    if equals and (head == "-h" or head in flags):
        return head, explicit
    if token.startswith("--"):
        matches = [flag for flag in flags if flag.startswith(head)]
        if len(matches) > 1:
            matching = ", ".join(matches)
            raise _UsageError(prog, f"ambiguous option: {cut(token)} could match {matching}")
        if matches:
            return matches[0], explicit if equals else None
    elif token.startswith("-h"):  # letters attached to -h, as -hh
        return "-h", token[2:]
    if _NUMBER.match(token) or " " in token:
        return None
    return None, None


def _read(argv: List[str], name: Optional[str] = None) -> Optional[SimpleNamespace]:
    """The subcommand and fields argv names, or None once help is printed.
    Raises _UsageError.  With a name, argv is that subcommand's arguments, and
    the tokens it does not understand come back as the field ``extras``.

    This is argparse's parse_known_args: every token before the first "--"
    is read by _option first, and argv is marked O (an option), A (a value)
    or - (the first "--").  Options are read in order.  At the start of a run
    of values a pending positional takes what its nargs pattern matches on
    the marks: -*A-* for a subcommand's, whose value is the one A; -*A[-AO]*
    for the command, which is its own token and hands every later one to the
    subcommand's read.  The rest of a run is not understood."""
    if name is None:
        prog, options, positional, fields = "cremlat", [], ("command", "command"), {}
    else:
        runner, _, options, positional = _COMMANDS[name]
        prog, fields = f"cremlat {name}", {"command": name, "func": runner}
    by_flag = {option[0]: option for option in options}
    end = argv.index(_MARK) if _MARK in argv else len(argv)
    kinds = [_option(token, ["--help", *by_flag], prog) for token in argv[:end]]
    marks = "".join("A" if kind is None else "O" for kind in kinds)
    if end < len(argv):
        marks += "-" + "A" * (len(argv) - end - 1)
    # an option given holds a str or an int, so one still None was not given
    fields.update((flag[2:], None) for flag in by_flag)
    pending = positional is not None
    if pending:
        fields[positional[0]] = None
    extras = []
    i = 0
    while i < len(argv):
        if marks[i] != "O":
            taken = pending and re.match("-*A-*" if name else "-*A[-AO]*", marks[i:])
            if not taken:
                extras.append(argv[i])
                i += 1
            elif name:
                fields[positional[0]] = argv[marks.index("A", i)]
                pending = False
                i += taken.end()
            else:
                if argv[i] not in _COMMANDS:
                    raise _UsageError(
                        prog, f"argument command: invalid choice: {cut_repr(argv[i])} (choose from {_CHOICES})"
                    )
                args = _read(argv[i + 1:], argv[i])
                if args is None:
                    return None
                extras += vars(args).pop("extras")
                if extras:
                    shown = " ".join(cut(token) for token in extras[:_SHOWN_TOKENS])
                    if len(extras) > _SHOWN_TOKENS:
                        shown += f" … and {len(extras) - _SHOWN_TOKENS} more"
                    raise _UsageError(prog, f"unrecognized arguments: {shown}")
                return args
            continue
        flag, explicit = kinds[i]
        i += 1
        if flag is None:
            extras.append(argv[i - 1])
        elif flag in ("-h", "--help"):
            if explicit is not None:  # -hh is -h twice; any other value is refused
                rest = explicit.lstrip("h") if flag == "-h" else explicit
                if rest or not explicit:
                    raise _UsageError(prog, f"argument -h/--help: ignored explicit argument {cut_repr(rest)}")
            sys.stdout.write(_help(name))
            return None
        else:
            if explicit is None:
                if marks[i:i + 1] != "A":
                    raise _UsageError(prog, f"argument {flag}: expected one argument")
                explicit = argv[i]
                i += 1
            if by_flag[flag][1] == "N":
                try:
                    explicit = _positive(explicit)
                except ValueError as exc:
                    raise _UsageError(prog, f"argument {flag}: {exc}") from None
            fields[flag[2:]] = explicit
    missing = [flag for flag, _, required, _ in options if required and fields[flag[2:]] is None]
    if pending:
        missing.append(positional[1])
    if missing:
        missing = ", ".join(missing)
        raise _UsageError(prog, f"the following arguments are required: {missing}")
    return SimpleNamespace(**fields, extras=extras)


def _help(name: Optional[str]) -> str:
    """The --help text of a subcommand, or of the whole command line for None,
    as argparse wrote it at 80 columns."""
    options = [(2, "-h, --help", "show this help message and exit")]
    if name is None:
        choices = "{" + ",".join(_COMMANDS) + "}"
        usage = f"cremlat [-h] {choices} ..."
        about = _ABOUT + "\n\n"
        listed = [(2, choices, "")] + [(4, command, entry[1]) for command, entry in _COMMANDS.items()]
    else:
        _, _, table, positional = _COMMANDS[name]
        words = [f"{flag} {metavar}" if required else f"[{flag} {metavar}]"
                 for flag, metavar, required, _ in table]
        listed = [] if positional is None else [(2, positional[1], positional[2])]
        usage = " ".join([f"cremlat {name} [-h]", *words] + [head for _, head, _ in listed])
        about = ""
        options += [(2, f"{flag} {metavar}", text) for flag, metavar, _, text in table]
    # argparse's max_help_position
    column = min(24, 2 + max(indent + len(head) for indent, head, _ in listed + options))

    def block(title, rows):
        lines = [title]
        for indent, head, text in rows:
            line = " " * indent + (head.ljust(column - indent - 2) + "  " + text if text else head)
            lines.append(line)
        return "\n".join(lines) + "\n"

    blocks = [block("positional arguments:", listed)] if listed else []
    blocks.append(block("options:", options))
    return f"usage: {usage}\n\n{about}" + "\n".join(blocks)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the subcommand argv names and return its exit code; help and
    usage errors return 0 and 1.  The library and test entry: it never ends
    the process."""
    try:
        args = _read(list(sys.argv[1:]) if argv is None else list(argv))
    except _UsageError as exc:
        _fail(f"{exc.prog}: error: {exc}")
        return EXIT_INPUT
    if args is None:
        return EXIT_OK
    try:
        return args.func(args)
    except _Unwritten as exc:
        return _cannot_write(exc.args[0])
    # JSONDecodeError is a ValueError; an undeclared point id is a fault of the files
    except (UnknownPoint, OSError, ValueError, KeyError, TypeError) as exc:
        if isinstance(exc, OSError) and isinstance(exc.filename, str):
            exc.filename = cut_path(exc.filename)  # OSError's text echoes the path whole
        _fail(f"{args.command}: bad input: {exc}")
        return EXIT_INPUT
    except CremlatError as exc:
        _fail(f"{args.command}: {exc}")
        return EXIT_MATH


def run() -> NoReturn:
    """The console entry (`cremlat`, `python -m cremlat`): main() on
    sys.argv, then the process ends with os._exit, skipping the interpreter's
    teardown, so atexit hooks do not run.  Stdout is flushed first; if that
    fails, one stderr line says so and the exit code is 1, as when main()'s
    own write fails.  An exception that escapes main() propagates as usual."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:  # a full disk, or a reader that closed the pipe
        code = _cannot_write(exc)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()

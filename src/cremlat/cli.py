"""Batch front-end.

Six subcommands wrap the library: halphen-table, flat-growth, delta,
length, classify, in-e.  Tabular output is CSV with a header row; given
identical inputs the bytes are identical.  Exit codes: 0 success, 1 input
or usage error (including a point id the input uses but never declares),
2 mathematical failure (failed validation, failed certificate, mismatch,
non-membership).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

# Each cmd_* imports the legs it runs, so a job loads only its own: delta
# never loads the Cremona or Halphen code, halphen-table never hypgraph.
# (The module docstring is the --help text, so this note lives here.)
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


class _Parser(argparse.ArgumentParser):
    # the tokens this parser reads, for error() to find in argparse's words
    _tokens: Sequence[str] = ()

    def parse_known_args(self, args=None, namespace=None):
        self._tokens = list(sys.argv[1:] if args is None else args)
        return super().parse_known_args(self._tokens, namespace)

    def parse_args(self, args=None, namespace=None):
        # argparse's own names every unrecognized token, however many
        args, extra = self.parse_known_args(args, namespace)
        if extra:
            shown = " ".join(extra[:_SHOWN_TOKENS])
            if len(extra) > _SHOWN_TOKENS:
                shown += f" … and {len(extra) - _SHOWN_TOKENS} more"
            self.error(f"unrecognized arguments: {shown}")
        return args

    # usage problems are input errors: exit 1 and one stderr line, not argparse's 2 and usage
    def error(self, message: str) -> None:
        # argparse echoes a token whole, as its repr or bare: cut both as cut_repr
        # cuts a value, which leaves a short token's bytes as they are.  The
        # longest go first, so no token is cut inside a longer one
        for token in sorted(self._tokens, key=len, reverse=True):
            message = message.replace(repr(token), cut_repr(token)).replace(token, cut(token))
        _fail(f"{self.prog}: error: {message}")
        raise SystemExit(EXIT_INPUT)


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {cut_repr(text)}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {cut_repr(value)}")
    return value


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


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
# wiring


def _build_parser() -> _Parser:
    parser = _Parser(prog="cremlat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", metavar="PATH", help="write output here instead of stdout")

    p = sub.add_parser("halphen-table", help="twist degrees vs the closed form")
    p.add_argument("--nmax", metavar="N", type=_positive, required=True)
    common(p)
    p.set_defaults(func=cmd_halphen_table)

    p = sub.add_parser("flat-growth", help="length-bound table and growth certificate")
    p.add_argument("--kmax", metavar="N", type=_positive, required=True)
    common(p)
    p.set_defaults(func=cmd_flat_growth)

    p = sub.add_parser("delta", help="exact four-point constant of a metric CSV")
    p.add_argument("metric", help="headered square distance matrix, entries num/den")
    common(p)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser("length", help="length bounds of a characteristic JSON file")
    p.add_argument("char", help="characteristic record")
    common(p)
    p.set_defaults(func=cmd_length)

    p = sub.add_parser("classify", help="adjacency classification of configured maps")
    p.add_argument("--config", metavar="PATH", required=True, help="run configuration JSON")
    common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("in-e", help="membership report for a class JSON file")
    p.add_argument("cls", metavar="class", help="class record")
    p.add_argument("--config", metavar="PATH", help="run configuration JSON with the points")
    common(p)
    p.set_defaults(func=cmd_in_e)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(list(sys.argv[1:]) if argv is None else list(argv))
    except SystemExit as exc:  # argparse help or usage error; keep main() returnable
        return int(exc.code or 0)
    try:
        return args.func(args)
    # JSONDecodeError is a ValueError; an undeclared point id is a fault of the files
    except (UnknownPoint, OSError, ValueError, KeyError, TypeError) as exc:
        if isinstance(exc, OSError) and isinstance(exc.filename, str):
            exc.filename = cut_path(exc.filename)  # OSError's text echoes the path whole
        _fail(f"{args.command}: bad input: {exc}")
        return EXIT_INPUT
    except CremlatError as exc:
        _fail(f"{args.command}: {exc}")
        return EXIT_MATH


if __name__ == "__main__":
    raise SystemExit(main())

"""Batch front-end.

Six subcommands wrap the library: halphen-table, flat-growth, delta,
length, classify, in-e.  Tabular output is CSV with a header row; given
identical inputs the bytes are identical.  Exit codes: 0 success, 1 input
or usage error, 2 mathematical failure (failed validation, failed
certificate, mismatch, non-membership).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional, Sequence

from .bubble import Configuration
from .errors import CremlatError
from .halphen import twist_degree
from .hypgraph import flat_certificate, flat_growth, four_point_delta
from .lattice import in_E
from .length import greedy_length
from .serialize import (
    characteristic_from_record,
    class_from_record,
    csv_text,
    load_json,
    load_runconfig,
    metric_from_csv,
    rational_to_str,
    real_to_str,
)
from .voronoi import classify_germ

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MATH = 2


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors: exit 1, not argparse's default 2
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        raise SystemExit(self.exit_with(message))

    def exit_with(self, message: str) -> int:
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return EXIT_INPUT


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return _flag(value)
    if isinstance(value, Fraction):
        return rational_to_str(value)
    return str(value)


# ---------------------------------------------------------------------------
# subcommands


def cmd_halphen_table(args) -> int:
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
        print("halphen-table: lattice degree disagrees with the closed form", file=sys.stderr)
        return EXIT_MATH
    return EXIT_OK


def cmd_flat_growth(args) -> int:
    table = flat_growth(args.kmax)
    certificate = flat_certificate(args.kmax)
    body = csv_text(
        ["m", "n", "degree", "lower", "upper"],
        [[r.m, r.n, r.degree, _cell(r.lower), r.upper] for r in table.rows],
    )
    verdict = "PASS" if certificate.passed else "FAIL"
    _emit(body + f"# certificate: {verdict}\n", args.out)
    if not certificate.passed:
        print(
            f"flat-growth: lower-bound certificate fails at k = {certificate.failing_k}",
            file=sys.stderr,
        )
        return EXIT_MATH
    return EXIT_OK


def cmd_delta(args) -> int:
    metric = metric_from_csv(args.metric)
    value = four_point_delta(metric)
    row = [[metric.size, rational_to_str(value), real_to_str(float(value))]]
    _emit(csv_text(["points", "delta", "delta_real"], row), args.out)
    return EXIT_OK


def cmd_length(args) -> int:
    char = characteristic_from_record(load_json(args.char))
    bounds = greedy_length(char)  # raises InvalidCharacteristic on bad input
    degrees = [char.degree] + [degree for _, degree in bounds.decomposition]
    row = [
        [
            char.degree,
            len(char.base),
            bounds.lower_md,
            _cell(bounds.lower_deg),
            bounds.upper_greedy,
            ">".join(str(d) for d in degrees),
        ]
    ]
    header = ["degree", "n_base", "lower_md", "lower_deg", "upper", "decomposition"]
    _emit(csv_text(header, row), args.out)
    return EXIT_OK


def cmd_classify(args) -> int:
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
    cls = class_from_record(load_json(args.cls))
    if args.config is not None:
        config = load_runconfig(args.config).configuration
        if config is None:
            print("in-e: config file has no configuration section", file=sys.stderr)
            return EXIT_INPUT
    else:
        config = Configuration.generic(cls.support)
    report = in_E(cls, config)
    witness = report.bezout_witness
    row = [
        [
            _flag(report.in_E),
            _flag(report.nonneg_mults),
            _cell(report.negative_point),
            _flag(report.anticanonical),
            _cell(report.anticanonical_margin),
            _flag(report.excesses),
            _cell(report.excess_point),
            _flag(report.bezout),
            witness.kind if witness else "",
            " ".join(str(p) for p in witness.points) if witness else "",
            _cell(witness.residual) if witness else "",
        ]
    ]
    header = [
        "member",
        "nonneg_mults",
        "negative_point",
        "anticanonical",
        "anticanonical_margin",
        "excesses",
        "excess_point",
        "bezout",
        "bezout_kind",
        "bezout_points",
        "bezout_residual",
    ]
    _emit(csv_text(header, row), args.out)
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
    except CremlatError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return EXIT_MATH
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
        print(f"{args.command}: bad input: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())

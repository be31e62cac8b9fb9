"""Every message shows a value through `_exact.cut_repr`.

`cut_repr` is the one formatter of a value that a message echoes: it cuts a
long value to 80 characters, shows an int past int()'s digit limit by its
size instead of raising, and shows a Fraction as its str.  A bare `!r`, or
the str of a computed Fraction, did none of that: a 1 000-character vertex
label gave a 1 034-character message, and a degree of 10**5000 gave Python's
"Exceeds the limit" ValueError in place of the domain error.

This walks the source of every module and finds each f-string handed to an
exception constructor, to `BowditchResult(message=...)`, to a
`NoetherViolation` (whose details `InvalidCharacteristic` joins into its
message), or printed to stderr by `cli` (`print(..., file=sys.stderr)` and
`_fail`).  Each interpolated value must be a `cut_repr(...)` call, a
literal, a `len(...)`, a module constant, arithmetic on those, or one of
the names in `ALLOWED`, and none may carry a `!r`, `!s` or `!a` conversion.
"""

import ast
import builtins
from pathlib import Path

import cremlat
from cremlat import errors

# interpolated expressions that are not a caller's value, with the reason
ALLOWED = {
    "what": "the name of the quantity read, a literal at each caller",
    "kind": 'the set kind, "collinear" or "conic"',
    "name": 'the side of a characteristic, "base" or "inverse base"',
    "label": 'the argument of lattice.distance, "first" or "second"',
    "least": "the smallest size a graph builder allows, a literal at each caller",
    "minimum": "the fewest points a collinear or conic set needs, a literal",
    "limit": "digit_limit(), int()'s own bound",
    "cut_path(path)": "a file path cut to its tail, so the file name shows; the CLI prints it unquoted "
                      "in pinned messages",
    "exc": "a caught exception: the package's own message, already cut, csv's fixed words, "
           "or an OSError's, whose path the CLI cuts first",
    "exc.prog": "the program a usage error names: cremlat, or cremlat and a subcommand of the table",
    "flag": "an option of the CLI's command table",
    "matching": "the options of the command table that an ambiguous prefix could mean",
    "missing": "the names of the required arguments not given, from the command table",
    "cut(token)": "a command-line token cut to 80 characters as cut_repr cuts, bare as argparse showed it",
    "shown": "at most _SHOWN_TOKENS unrecognized tokens, each cut by `cut`, and a count of the rest",
    "args.command": "the subcommand name, one of the parser's six choices",
    "type(value).__name__": "the name of a JSON value's type (list, str, int, ...)",
    "type(record).__name__": "the name of a JSON value's type (list, str, int, ...)",
}

MESSAGE_CALLS = {"BowditchResult", "NoetherViolation"}
EXCEPTIONS = {
    name
    for namespace in (builtins, errors)
    for name, value in vars(namespace).items()
    if isinstance(value, type) and issubclass(value, BaseException)
}


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _carries_message(call: ast.Call, module: str) -> bool:
    name = _callee(call)
    if name in EXCEPTIONS or name in MESSAGE_CALLS or name.endswith("Error"):
        return True
    if module != "cli":
        return False
    to_stderr = any(k.arg == "file" and ast.unparse(k.value) == "sys.stderr" for k in call.keywords)
    return name == "_fail" or (name == "print" and to_stderr)


def _shown_safely(node: ast.expr, used: set) -> bool:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("cut_repr", "len"):
            return True
    if isinstance(node, ast.Constant):
        return True
    if isinstance(node, ast.Name) and node.id.isupper():
        return True  # a module constant
    if isinstance(node, ast.BinOp):
        return _shown_safely(node.left, used) and _shown_safely(node.right, used)
    text = ast.unparse(node)
    if text in ALLOWED:
        used.add(text)
        return True
    return False


def echo_faults(source: str, module: str, used: set):
    """(line, expression) of each value a message shows other than through cut_repr."""
    faults = []
    for call in ast.walk(ast.parse(source)):
        if not (isinstance(call, ast.Call) and _carries_message(call, module)):
            continue
        for arg in [*call.args, *(k.value for k in call.keywords)]:
            for node in ast.walk(arg):
                if not isinstance(node, ast.JoinedStr):
                    continue
                for part in node.values:
                    if not isinstance(part, ast.FormattedValue):
                        continue
                    if part.conversion != -1 or not _shown_safely(part.value, used):
                        faults.append((part.lineno, ast.unparse(part)))
    return faults


# one way around cut_repr per line; the last two lines show only safe values
BYPASSES = (
    "raise ValueError(f'loop at {a!r}')\n"
    "raise NotOnHyperboloid(f'got {c.degree}')\n"
    "raise KeyError(f'{cut_repr(label)!s}')\n"
    "x = BowditchResult(message=f'd = {dists[a][b]}')\n"
    "raise argparse.ArgumentTypeError(f'got {value}')\n"
    "_fail(f'at k = {k}')\n"
    "print(f'{k}', file=sys.stderr)\n"
    "raise ValueError(f'{what}: {cut_repr(v)} of {len(vs) - 1} and {RANK}')\n"
    "print(f'{k}')\n"
)


def test_every_echo_goes_through_cut_repr():
    assert [line for line, _ in echo_faults(BYPASSES, "cli", set())] == [1, 2, 3, 4, 5, 6, 7]
    used = set()
    found = [
        (path.stem, *fault)
        for path in sorted(Path(cremlat.__file__).parent.glob("*.py"))
        for fault in echo_faults(path.read_text(encoding="utf-8"), path.stem, used)
    ]
    assert found == []
    # an entry nothing uses any more leaves the list
    assert used == set(ALLOWED)

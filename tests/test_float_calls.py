"""Floating point enters the package in two places only.

Everything that can be decided over the rationals is decided over the
rationals: a float is made by the final argcosh of `lattice.distance` and by
the CSV convenience column `serialize.real_to_str`, and nowhere else.  This
walks the source of every module and lists the functions that call
`float(...)`.
"""

import ast
from pathlib import Path

import cremlat

FLOAT_SOURCES = {("lattice", "distance"), ("serialize", "real_to_str")}


def float_callers(source: str):
    """Qualified names of the functions whose own body calls float(...)."""
    callers = set()

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            callers.add(scope or "<module>")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return callers


def test_float_is_called_only_where_documented():
    found = {
        (path.stem, caller)
        for path in Path(cremlat.__file__).parent.glob("*.py")
        for caller in float_callers(path.read_text(encoding="utf-8"))
    }
    assert found == FLOAT_SOURCES

"""The library computes with integers and fractions.Fraction only: no module of
src/repfn holds a float literal, a float() call or a true division '/'.
Exact quotients are written with Fraction or '//'."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repfn"


def float_uses(source: str) -> list[tuple[int, str]]:
    """(line, what) for each float literal, float() call and '/' or '/=' in source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, "float literal"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "'/' operator"))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "float":
            found.append((node.lineno, "float() call"))
    return sorted(found)


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_module_has_no_float(path):
    assert float_uses(path.read_text()) == []


def test_each_form_is_caught():
    source = 'x = 1.5\ny = a / b\nz = float(c)\nw /= 2\nv = a // b  # "1/2" and 3 are fine\n'
    assert float_uses(source) == [
        (1, "float literal"),
        (2, "'/' operator"),
        (3, "float() call"),
        (4, "'/' operator"),
    ]

"""Source-level rules for the library modules."""

import ast
from pathlib import Path

import hardcore_lab

MODULES = sorted(Path(hardcore_lab.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # A cross-check must survive `python -O`, which strips asserts: the
    # library raises instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(MODULES) > 10
    assert found == []

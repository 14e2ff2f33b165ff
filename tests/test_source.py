"""Source-level rules for the library modules."""

import ast
from collections import Counter
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


def _names_used(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def test_every_private_helper_has_a_caller():
    # A single-underscore function, method or class must be referenced
    # somewhere in the library outside its own definition: helpers nobody
    # calls are deleted, not kept.
    trees = [ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in MODULES]
    used = Counter(name for tree in trees for name in _names_used(tree))
    defined = [
        (path.name, node)
        for path, tree in zip(MODULES, trees)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_") and not node.name.startswith("__")
    ]
    unused = [
        f"{module}:{node.lineno} {node.name}"
        for module, node in defined
        if used[node.name] == Counter(_names_used(node))[node.name]
    ]
    assert len(defined) > 20
    assert unused == []

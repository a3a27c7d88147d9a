"""Every top-level def or class in ``src/aacohom`` has a reader besides tests.

A definition passes when another part of the package loads it by name (a
bare name or an attribute, outside the definition itself), when
``aacohom.__all__`` exports it, or when a script in ``benchmarks/`` names
it.  A second route that only the tests call belongs in ``tests/oracles.py``.
A method (not a dunder) passes when some file of the package, the tests or
``benchmarks/`` reads it as an attribute; one that nothing reads is dead.
"""

import ast
import re
from pathlib import Path

import aacohom

ROOT = Path(__file__).resolve().parents[1]


def _loads(node) -> set:
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)
    }


def unreached_definitions(package: Path, benchmarks: Path, exported) -> list:
    """["module.name"] of the top-level definitions with no reader."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(package.glob("*.py"))}
    named = " ".join(p.read_text() for p in sorted(benchmarks.glob("*.py")))
    definitions = [
        (module, node)
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    unreached = []
    for module, definition in definitions:
        name = definition.name
        if name in exported or re.search(rf"\b{re.escape(name)}\b", named):
            continue
        readers = [
            node
            for tree in trees.values()
            for node in tree.body
            if node is not definition
        ]
        if not any(name in _loads(node) for node in readers):
            unreached.append(f"{module}.{name}")
    return unreached


def test_every_definition_has_a_package_or_benchmark_reader():
    unreached = unreached_definitions(
        ROOT / "src" / "aacohom", ROOT / "benchmarks", set(aacohom.__all__)
    )
    assert unreached == []


def unread_methods(package: Path, *readers: Path) -> list:
    """["module.Class.name"] of the non-dunder methods of the package's
    classes that no file in ``package`` or ``readers`` reads as an attribute."""
    files = [p for d in (package, *readers) for p in sorted(d.glob("*.py"))]
    read = {
        node.attr
        for p in files
        for node in ast.walk(ast.parse(p.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{p.stem}.{cls.name}.{node.name}"
        for p in sorted(package.glob("*.py"))
        for cls in ast.walk(ast.parse(p.read_text()))
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in read
    ]


def test_every_method_is_read_somewhere():
    unread = unread_methods(
        ROOT / "src" / "aacohom", ROOT / "tests", ROOT / "benchmarks"
    )
    assert unread == []

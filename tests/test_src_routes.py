"""Every top-level def or class in ``src/aacohom`` has a reader besides tests.

A definition passes when another part of the package loads it by name (a
bare name or an attribute, outside the definition itself), when
``aacohom.__all__`` exports it, or when a script in ``benchmarks/`` names
it.  A second route that only the tests call belongs in ``tests/oracles.py``.
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

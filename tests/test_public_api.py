"""Every name ptobs exports is read by the library, a demo or perfbench.

A public name that only tests read is a test-only form: its tests belong to
the owner of the formula it wraps.
"""

import ast

import ptobs
from conftest import REPO


def _names_read(tree: ast.AST) -> set[str]:
    # Loaded names, attributes and string constants (perfbench wraps targets
    # by name), outside the def or class that defines each name.
    read: set[str | None] = set()

    def visit(node: ast.AST, defining: frozenset[str]):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defining |= {node.name}
        name = None
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        if name not in defining:
            read.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(tree, frozenset())
    return read


def test_every_public_name_is_read_outside_tests():
    files = [p for p in sorted((REPO / "src" / "ptobs").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((REPO / "demos").glob("*.py")) + sorted((REPO / "perfbench").glob("*.py"))
    read = set().union(*(_names_read(ast.parse(p.read_text(encoding="utf-8"))) for p in files))
    assert sorted(set(ptobs.__all__) - read) == []

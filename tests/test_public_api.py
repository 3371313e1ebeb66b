"""Every public top-level function and class of the package has a user.

A name counts as used when package code outside its own definition and
outside ``__init__.py`` reads it, when the benchmark names it (the tracer
pins layer functions by their names as strings), or when the README does.
A public name that only tests call belongs in ``tests/oracles.py``, or
nowhere.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _names_read(tree, skip=None):
    """Names and attributes that ``tree`` reads outside the subtree ``skip``."""
    names, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def unused_public_names():
    """``module.name`` of each public top-level def or class with no user."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "nhcz").glob("*.py"))}
    del trees["__init__"]
    texts = [p.read_text() for p in sorted((ROOT / "benchmarks").glob("*")) if p.suffix in (".py", ".md")]
    texts.append((ROOT / "README.md").read_text())
    unused = []
    for module, tree in trees.items():
        elsewhere = set().union(*(_names_read(t) for m, t in trees.items() if m != module))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name in elsewhere or node.name in _names_read(tree, skip=node):
                continue
            if any(re.search(rf"\b{re.escape(node.name)}\b", text) for text in texts):
                continue
            unused.append(f"{module}.{node.name}")
    return unused


def test_every_public_name_has_a_user_outside_the_tests():
    assert unused_public_names() == []

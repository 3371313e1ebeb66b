"""The package imports in one direction.

Every ``nhcz`` import in ``src/nhcz`` sits at module level, where a reader
of the module's head sees it, and the module-level import graph has no
cycle, so each module can be read with only the modules below it in mind.
Only the source is parsed; nothing is imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nhcz"


def _nhcz_imports(tree):
    """(import node, imported nhcz module, whether it sits in a function)
    of every import of an nhcz module in ``tree``; ``from nhcz import m``
    imports module ``m``, and a bare ``nhcz`` stands for ``__init__``."""
    stack = [(node, False) for node in tree.body]
    while stack:
        node, in_function = stack.pop()
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            parts = node.module.split(".")
            if parts[0] == "nhcz":
                for module in parts[1:2] or [a.name for a in node.names]:
                    yield node, module, in_function
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "nhcz":
                    yield node, (parts[1:2] or ["__init__"])[0], in_function
        inner = in_function or isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        stack.extend((child, inner) for child in ast.iter_child_nodes(node))


def _package():
    return {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}


def test_no_nhcz_import_inside_a_function():
    late = [
        f"{name}.py:{node.lineno} imports {module} inside a function"
        for name, tree in _package().items()
        for node, module, in_function in _nhcz_imports(tree)
        if in_function
    ]
    assert not late, "\n".join(sorted(late))


def test_module_level_imports_have_no_cycle():
    modules = _package()
    graph = {
        name: sorted({m for _, m, in_function in _nhcz_imports(tree) if not in_function and m in modules})
        for name, tree in modules.items()
    }
    done, path = set(), []

    def cycle_from(name):
        """The first import cycle reachable from ``name``, as a module list."""
        if name in path:
            return path[path.index(name) :] + [name]
        if name in done:
            return None
        path.append(name)
        for dep in graph[name]:
            found = cycle_from(dep)
            if found:
                return found
        path.pop()
        done.add(name)
        return None

    cycle = next(filter(None, map(cycle_from, graph)), None)
    assert cycle is None, " -> ".join(cycle)

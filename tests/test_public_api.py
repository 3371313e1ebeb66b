"""Every public name, parameter and member of the package has a user.

A top-level name counts as used when package code outside its own
definition and outside ``__init__.py`` reads it, when the benchmark names it
(the tracer pins layer functions by their names as strings), or when the
README does.  A public name that only tests call belongs in
``tests/oracles.py``, or nowhere.

A parameter with a default is a setting, so some call outside the tests
must set it, by keyword or by position: a value that every caller leaves at
its default is a constant.  Every parameter must also be read by its
function.  Calls are matched by the callee's name, in ``src/nhcz``,
``benchmarks/*.py`` and the README's Python blocks; a call to a class
counts for its ``__init__``.  Names that start with ``_`` mark parameters
unused on purpose, such as the family that every check-operator
constructor takes.

A public method, property or dataclass field counts as used when code in
the package outside its own definition, the benchmark or the README's
Python blocks reads it as an attribute: a bare name of the same spelling,
such as a local variable, does not count.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# cli.main's argv is the console script's entry point; the tests drive it
PARAMETER_EXEMPT = {"cli.main.argv"}
MEMBER_EXEMPT = {
    # ROADMAP item 1a: plan counters for the report's profile block
    "fastsum.InteractionPlan.near_blocks_skipped",
    "fastsum.InteractionPlan.cell_pairs",
    "fastsum.InteractionPlan.target_tests",
    # ROADMAP item 8: the memory a cached plan holds
    "fastsum.InteractionPlan.nbytes",
    # ROADMAP item 2: the iteration history a residual bound reads
    "operators.NormEstimate.rayleigh_history",
}


def _nodes(tree, skip=None):
    """The nodes of ``tree`` outside the subtree ``skip``."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is not skip:
            yield node
            stack.extend(ast.iter_child_nodes(node))


def _names_read(tree, skip=None):
    """Names and attributes that ``tree`` reads outside the subtree ``skip``."""
    names = set()
    for node in _nodes(tree, skip):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _attributes_read(tree, skip=None):
    """Attributes that ``tree`` loads outside the subtree ``skip``."""
    return {n.attr for n in _nodes(tree, skip) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def _package_trees():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted((ROOT / "src" / "nhcz").glob("*.py"))}
    del trees["__init__"]
    return trees


def _outside_trees():
    """The benchmark's modules and the README's Python blocks, parsed."""
    trees = [ast.parse(p.read_text()) for p in sorted((ROOT / "benchmarks").glob("*.py"))]
    readme = (ROOT / "README.md").read_text()
    trees += [ast.parse(block) for block in re.findall(r"```python\n(.*?)```", readme, re.S)]
    return trees


def unused_public_names():
    """``module.name`` of each public top-level def or class with no user."""
    trees = _package_trees()
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


def _functions(tree, prefix):
    """(qualified name, def, its class or None) of every function in ``tree``,
    nested ones included."""
    stack = [(node, prefix, None) for node in tree.body]
    while stack:
        node, where, owner = stack.pop()
        if isinstance(node, ast.ClassDef):
            stack.extend((child, f"{where}.{node.name}", node) for child in node.body)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield f"{where}.{node.name}", node, owner
            stack.extend((child, f"{where}.{node.name}", None) for child in node.body)
        else:
            stack.extend((child, where, owner) for child in ast.iter_child_nodes(node))


def _calls(trees):
    """(callee name, whether it is an attribute, call node) of every call."""
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                if isinstance(node.func, ast.Name):
                    yield node.func.id, False, node
                elif isinstance(node.func, ast.Attribute):
                    yield node.func.attr, True, node


def _sets(call, fn, owner, is_attribute, index, name):
    """Whether ``call`` passes parameter ``name``, the ``index``-th positional
    parameter of ``fn`` (-1 for keyword-only ones)."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if index < 0:
        return False
    bound = owner is not None and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list
    )
    # a method called through an attribute, or a class called for its
    # __init__, gets self or cls without a positional argument for it
    shift = int(bound and (is_attribute or fn.name == "__init__"))
    for pos, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred) or pos + shift == index:
            return True
    return False


def test_every_public_name_has_a_user_outside_the_tests():
    assert unused_public_names() == []


def unset_or_unread_parameters():
    """``module.function.parameter`` of each parameter with a default that
    no call outside its function sets, and of each parameter its function
    does not read."""
    trees = _package_trees()
    calls = list(_calls(list(trees.values()) + _outside_trees()))
    flagged = []
    for module, tree in trees.items():
        for qualname, fn, owner in _functions(tree, module):
            args = fn.args
            positional = args.posonlyargs + args.args
            params = [(a, i) for i, a in enumerate(positional)] + [(a, -1) for a in args.kwonlyargs]
            n_defaults = len(args.defaults)
            with_default = {a.arg for a in positional[len(positional) - n_defaults :]}
            with_default |= {a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None}
            callee = owner.name if owner is not None and fn.name == "__init__" else fn.name
            inside = {id(node) for node in ast.walk(fn)}
            body_reads = {
                n.id for stmt in fn.body for n in ast.walk(stmt) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            for a, index in params:
                if a.arg.startswith("_") or f"{qualname}.{a.arg}" in PARAMETER_EXEMPT:
                    continue
                if owner is not None and index == 0:
                    continue  # self or cls
                unread = a.arg not in body_reads
                unset = a.arg in with_default and not any(
                    name == callee and id(call) not in inside and _sets(call, fn, owner, attr, index, a.arg)
                    for name, attr, call in calls
                )
                if unread or unset:
                    flagged.append(f"{qualname}.{a.arg}")
    return sorted(flagged)


def test_every_parameter_is_set_and_read_outside_the_tests():
    assert unset_or_unread_parameters() == []


def _members(tree):
    """(Class.member, member, def or field node) of each public method,
    property and dataclass field of the classes in ``tree``."""
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                name = node.target.id
            else:
                continue
            if not name.startswith("_"):
                yield f"{cls.name}.{name}", name, node


def unread_public_members():
    """``module.Class.member`` of each public member that nothing reads
    outside the tests."""
    trees = _package_trees()
    outside = set().union(*(_attributes_read(t) for t in _outside_trees()))
    unread = []
    for module, tree in trees.items():
        elsewhere = outside.union(*(_attributes_read(t) for m, t in trees.items() if m != module))
        for qualname, name, node in _members(tree):
            if f"{module}.{qualname}" in MEMBER_EXEMPT:
                continue
            if name not in elsewhere and name not in _attributes_read(tree, skip=node):
                unread.append(f"{module}.{qualname}")
    return sorted(unread)


def test_every_public_member_has_a_reader_outside_the_tests():
    assert unread_public_members() == []

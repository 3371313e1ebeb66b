"""Line counts of each module of ``src/nhcz``, with code apart from docs.

    python3 tools/loc.py [--root DIR] [--json]

Every line falls in exactly one category:

- docstring: a line of a module, class or function docstring;
- code: any other line that holds a token of the program, a line of code
  with a trailing comment and each line of a multi-line expression included;
- comment: a line that holds only a comment;
- blank: a line with nothing on it but white space.

So the four counts of a file add up to its line count, and a change that
only drops comments or docstrings leaves the code count as it was.  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import tokenize
from pathlib import Path

CATEGORIES = ("code", "docstring", "comment", "blank")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """Line numbers spanned by the docstrings in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(source: str) -> dict:
    """The four category counts of one module's source text."""
    docs = _docstring_lines(ast.parse(source))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in _LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    counts = dict.fromkeys(CATEGORIES, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        if number in docs:
            counts["docstring"] += 1
        elif number in code:
            counts["code"] += 1
        elif number in comment:
            counts["comment"] += 1
        else:
            counts["blank"] += 1
    return counts


def count_package(root: Path) -> dict:
    """Counts per module of ``root/src/nhcz``, and their total."""
    modules = {p.name: count_lines(p.read_text()) for p in sorted((root / "src" / "nhcz").glob("*.py"))}
    total = {c: sum(m[c] for m in modules.values()) for c in CATEGORIES}
    return {"modules": modules, "total": total}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    parser.add_argument("--json", action="store_true", help="print the counts as one JSON object")
    args = parser.parse_args(argv)
    counts = count_package(args.root)
    if args.json:
        print(json.dumps(counts, indent=2))
        return 0
    rows = [*counts["modules"].items(), ("total", counts["total"])]
    print(f"{'module':<16}" + "".join(f"{c:>10}" for c in CATEGORIES) + f"{'lines':>10}")
    for name, row in rows:
        print(f"{name:<16}" + "".join(f"{row[c]:>10}" for c in CATEGORIES) + f"{sum(row.values()):>10}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
from loc import CATEGORIES, count_lines, count_package  # noqa: E402

SNIPPET = '''"""Module docstring
over two lines."""

# a comment-only line
import os  # code with a trailing comment


def f(
    x,
):
    """One-line docstring."""
    text = """a string
# that is code, not a comment
"""

    return x
'''


def test_each_line_of_a_snippet_falls_in_its_category():
    assert count_lines(SNIPPET) == {"code": 8, "docstring": 3, "comment": 1, "blank": 4}


def test_the_four_counts_add_up_to_every_file_length():
    counts = count_package(ROOT)
    for name, row in counts["modules"].items():
        assert sum(row.values()) == len((ROOT / "src" / "nhcz" / name).read_text().splitlines()), name
    assert counts["total"] == {c: sum(row[c] for row in counts["modules"].values()) for c in CATEGORIES}

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
from bench_pairs import summarize  # noqa: E402


def test_summary_of_a_lower_is_better_metric():
    s = summarize([4.0, 1.0, 3.0, 2.0, 5.0], [3.0, 0.5, 2.0, 2.0, 1.0], "lower")
    assert s["parent"] == {"values": [4.0, 1.0, 3.0, 2.0, 5.0], "median": 3.0, "q1": 2.0, "q3": 4.0}
    assert (s["change"]["q1"], s["change"]["median"], s["change"]["q3"]) == (1.0, 2.0, 2.0)
    assert (s["change_wins"], s["parent_wins"], s["pairs"]) == (4, 0, 5)  # one tie
    assert s["relative_change"] == pytest.approx(-1.0 / 3.0)
    assert not s["gain_holds"]  # 4 of 5 wins, and a gap of 1 inside the IQR of 2


def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_iqr():
    parent = [1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.1]  # q1 1.025, q3 1.175
    change = [0.8] * 9 + [1.3]
    s = summarize(parent, change, "lower")
    assert (s["change_wins"], s["parent_wins"]) == (9, 1)
    assert s["parent"]["q3"] - s["parent"]["q1"] == pytest.approx(0.15)
    assert s["gain_holds"]  # median gap 0.3 > 0.15
    assert not summarize(parent, [0.8] * 8 + [1.3, 1.3], "lower")["gain_holds"]  # 8 of 10
    assert not summarize(parent, [1.0] * 10, "lower")["gain_holds"]  # gap 0.1 < 0.15
    up = summarize([-v for v in parent], [-v for v in change], "higher")
    assert (up["change_wins"], up["gain_holds"]) == (9, True)


def test_summary_rejects_unpaired_values():
    with pytest.raises(ValueError):
        summarize([1.0, 2.0], [1.0], "lower")
    with pytest.raises(ValueError):
        summarize([1.0], [1.0], "faster")

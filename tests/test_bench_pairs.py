import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402
from bench_pairs import parse_args, spent_by, summarize  # noqa: E402


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


def test_spent_seed_lookup_reads_every_record_but_the_output(tmp_path):
    (tmp_path / "BENCH_3.json").write_text('{"seed": 41, "pairs": 10}\n')
    (tmp_path / "BENCH_4.json").write_text('{"seed": 42, "pairs": 10}\n')
    (tmp_path / "OTHER.json").write_text('{"seed": 43}\n')
    assert spent_by(tmp_path, 42, tmp_path / "BENCH_9.json") == tmp_path / "BENCH_4.json"
    assert spent_by(tmp_path, 42, tmp_path / "BENCH_4.json") is None  # rewriting a record reuses its seed
    assert spent_by(tmp_path, 43, tmp_path / "BENCH_9.json") is None  # only BENCH_*.json records count
    assert spent_by(tmp_path, 7, tmp_path / "BENCH_9.json") is None


def test_a_spent_seed_exits_2_naming_its_record(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    (tmp_path / "BENCH_4.json").write_text('{"seed": 42, "pairs": 10}\n')
    args = ["--parent", ".", "--change", ".", "--workload", "scaling_row", "--out", str(tmp_path / "BENCH_9.json")]
    with pytest.raises(SystemExit) as exc:
        parse_args(args + ["--seed", "42"])
    assert exc.value.code == 2
    assert "BENCH_4.json" in capsys.readouterr().err
    assert parse_args(args + ["--seed", "43"]).seed == 43

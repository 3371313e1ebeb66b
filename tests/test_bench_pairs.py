import json
import math
import os
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bench_pairs  # noqa: E402
from bench_pairs import cpu_schedule, order_schedule, parse_args, spent_by  # noqa: E402


def summarize(parent, change, better, cpus):
    """``bench_pairs.summarize`` with the parent first and a flat probe in every pair."""
    n = len(cpus)
    return bench_pairs.summarize(parent, change, better, cpus, ["parent"] * n, [1.0] * n)


def test_summary_of_a_lower_is_better_metric():
    s = summarize([4.0, 1.0, 3.0, 2.0, 5.0], [3.0, 0.5, 2.0, 2.0, 1.0], "lower", [0] * 5)
    assert s["parent"] == {"values": [4.0, 1.0, 3.0, 2.0, 5.0], "median": 3.0, "q1": 2.0, "q3": 4.0}
    assert (s["change"]["q1"], s["change"]["median"], s["change"]["q3"]) == (1.0, 2.0, 2.0)
    assert (s["change_wins"], s["parent_wins"], s["pairs"]) == (4, 0, 5)  # one tie
    assert s["relative_change"] == pytest.approx(-1.0 / 3.0)
    assert not s["gain_holds"]  # 4 of 5 wins, and a gap of 1 inside the IQR of 2


def test_gain_needs_nine_tenths_of_the_pairs_and_a_gap_beyond_the_iqr():
    parent = [1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.0, 1.1, 1.2, 1.1]  # q1 1.025, q3 1.175
    change = [0.8] * 9 + [1.3]
    s = summarize(parent, change, "lower", [0] * 10)
    assert (s["change_wins"], s["parent_wins"]) == (9, 1)
    assert s["parent"]["q3"] - s["parent"]["q1"] == pytest.approx(0.15)
    assert s["gain_holds"]  # median gap 0.3 > 0.15
    assert not summarize(parent, [0.8] * 8 + [1.3, 1.3], "lower", [0] * 10)["gain_holds"]  # 8 of 10
    assert not summarize(parent, [1.0] * 10, "lower", [0] * 10)["gain_holds"]  # gap 0.1 < 0.15
    up = summarize([-v for v in parent], [-v for v in change], "higher", [0] * 10)
    assert (up["change_wins"], up["gain_holds"]) == (9, True)


def test_summary_rejects_unpaired_values():
    with pytest.raises(ValueError):
        summarize([1.0, 2.0], [1.0], "lower", [0, 0])
    with pytest.raises(ValueError):
        summarize([1.0, 2.0], [1.0, 2.0], "lower", [0])
    with pytest.raises(ValueError):
        summarize([1.0], [1.0], "faster", [0])


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


def test_cpu_schedule_takes_the_allowed_cpus_in_turn():
    assert cpu_schedule(5, {3, 1}) == [1, 3, 1, 3, 1]
    assert cpu_schedule(3, {2}) == [2, 2, 2]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_order_schedule_gives_every_cpu_both_orders(n):
    cpus, first = cpu_schedule(10, set(range(n))), order_schedule(10, n)
    assert first.count("parent") == first.count("change") == 5
    for cpu in range(n):
        firsts = [side for side, on in zip(first, cpus) if on == cpu]
        assert set(firsts) == {"parent", "change"}
        assert all(a != b for a, b in zip(firsts, firsts[1:]))  # each CPU flips the order pair by pair
    if n == 2:
        assert first == ["parent", "change", "change", "parent"] * 2 + ["parent", "change"]


def test_probe_r_correlates_log_ratios_and_is_none_when_constant():
    parent, change = [1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 4.0, 8.0]
    assert bench_pairs.probe_r(parent, change, [1.0, 2.0, 4.0, 8.0]) == pytest.approx(1.0)
    assert bench_pairs.probe_r(parent, change, [8.0, 4.0, 2.0, 1.0]) == pytest.approx(-1.0)
    assert bench_pairs.probe_r(parent, change, [1.1] * 4) is None  # a constant probe
    assert bench_pairs.probe_r(parent, [2.0] * 4, [1.0, 2.0, 4.0, 8.0]) is None  # a constant metric ratio
    assert bench_pairs.probe_r([0.0] * 4, change, [1.0, 2.0, 4.0, 8.0]) is None


def test_the_probe_runs_pinned_in_its_own_process():
    assert "nhcz" not in bench_pairs.PROBE
    allowed = os.sched_getaffinity(0)
    t = bench_pairs.probe_once(max(allowed))
    assert 0.0 < t < 1.0
    assert os.sched_getaffinity(0) == allowed


def test_stubbed_pairs_run_both_sides_on_one_cpu_and_summarize_each_cpu(tmp_path, monkeypatch):
    for side in ("parent", "change"):
        (tmp_path / side / "src").mkdir(parents=True)
    spec = {"end_to_end": [{"name": "run_s", "better": "lower"}]}
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps(spec))
    runs = []

    def stub(checkout, workload, seed, seconds, cpu):
        runs.append((checkout.name, cpu))
        # pair p reads 1 + p on CPU 0 and 10 + p on CPU 1; the change saves 0.5 on CPU 0 only
        value = (1.0 if cpu == 0 else 10.0) + (len(runs) - 1) // 2
        value -= 0.5 if checkout.name == "change" and cpu == 0 else 0.0
        return {"correct": True, "failed": 0, "metrics": {"run_s": {"value": value}}}, None

    # probe times in call order, one before and one after each run; pair
    # sums (parent, change) of 4 and 4, 8 and 2, 3 and 6, 4 and 2
    readings = iter([1.0, 3.0, 2.0, 2.0, 1.0, 1.0, 4.0, 4.0, 3.0, 3.0, 1.0, 2.0, 2.0, 2.0, 1.0, 1.0])
    probes = []

    def probe(cpu):
        probes.append(cpu)
        return next(readings)

    monkeypatch.setattr(bench_pairs, "run_once", stub)
    monkeypatch.setattr(bench_pairs, "probe_once", probe)
    monkeypatch.setattr(bench_pairs.os, "sched_getaffinity", lambda pid: {1, 0})
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    out = tmp_path / "BENCH_9.json"
    args = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change")]
    assert bench_pairs.main(args + ["--workload", "w", "--seed", "1", "--pairs", "4", "--out", str(out)]) == 0
    # pair i runs both sides on CPU i % 2, and each CPU flips the order from one of its pairs to the next
    assert runs == [("parent", 0), ("change", 0), ("change", 1), ("parent", 1)] + [
        ("change", 0), ("parent", 0), ("parent", 1), ("change", 1)
    ]
    assert probes == [cpu for _, cpu in runs for _ in range(2)]  # a probe just before and after each run
    record = json.loads(out.read_text())["workloads"]["w"]
    assert record["cpus"] == [0, 1, 0, 1]
    assert record["first"] == ["parent", "change", "change", "parent"]
    assert record["probe"] == {
        "parent": {"before": [1.0, 4.0, 1.0, 2.0], "after": [3.0, 4.0, 2.0, 2.0]},
        "change": {"before": [2.0, 1.0, 3.0, 1.0], "after": [2.0, 1.0, 3.0, 1.0]},
        "ratio": [1.0, 0.25, 2.0, 0.5],
    }
    s = record["metrics"]["run_s"]
    assert s["parent"]["values"] == [1.0, 11.0, 3.0, 13.0]
    assert s["change"]["values"] == [0.5, 11.0, 2.5, 13.0]
    orders = {"parent_first": 1, "change_first": 1}
    assert s["per_cpu"] == {
        "0": {"pairs": 2, "parent_median": 2.0, "change_median": 1.5, "change_wins": 2, "parent_wins": 0, **orders},
        "1": {"pairs": 2, "parent_median": 12.0, "change_median": 12.0, "change_wins": 0, "parent_wins": 0, **orders},
    }
    assert (s["change_wins"], s["parent_wins"], s["gain_holds"]) == (2, 0, False)  # the rule reads all pairs
    logs = [math.log(c / p) for p, c in zip(s["parent"]["values"], s["change"]["values"])]
    assert s["probe_r"] == pytest.approx(statistics.correlation(logs, [math.log(r) for r in record["probe"]["ratio"]]))


def test_a_run_is_pinned_to_its_cpu_in_the_child_only(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    script = "import json, os\nprint(json.dumps(sorted(os.sched_getaffinity(0))))\n"  # stands in for the benchmark
    (tmp_path / "benchmarks" / "run.py").write_text(script)
    allowed = os.sched_getaffinity(0)
    cpu = max(allowed)
    assert bench_pairs.run_once(tmp_path, "w", 1, 1.0, cpu) == ([cpu], None)
    assert os.sched_getaffinity(0) == allowed

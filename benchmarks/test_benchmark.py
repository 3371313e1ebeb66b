"""Quick test of the benchmark harness on tiny inputs (about half a minute).

    python3 -m pytest benchmarks -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
from run import SELF_TIME_METRICS  # noqa: E402


def bench(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "0.5", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    return res


def units(res):
    return {name: m["unit"] for name, m in res["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    res = result(workload, 0)
    assert units(res) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_repeat_and_add_up(workload):
    first, second = result(workload, 1), result(workload, 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert units(first) == units(second) == expected
    counted = [name for name, unit in expected.items() if unit in ("count", "ratio")]
    assert [first["metrics"][n]["value"] for n in counted] == [second["metrics"][n]["value"] for n in counted]
    assert first["attempted"] == second["attempted"]
    m = {name: v["value"] for name, v in first["metrics"].items()}
    covered = sum(m[name] for name in SELF_TIME_METRICS) + m["trace.unaccounted_s"]
    assert covered == pytest.approx(m["trace.setup_s"] + m["trace.run_s"], rel=1e-9)


def test_all_runs_every_workload():
    res = result("all", 0)
    expected = {f"{w}.{m['name']}": m["unit"] for w in WORKLOADS for m in SPEC["end_to_end"]}
    assert units(res) == expected


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

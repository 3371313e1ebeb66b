import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import bitdiff  # noqa: E402
from bitdiff import compare, flatten, ordered_bits, read_outputs, same_leaf  # noqa: E402
from treecode_probe import outputs  # noqa: E402


def _tree(runtime_s=0.5, **constants):
    return flatten({"check": "norm", "runtime_s": runtime_s, "constants": constants, "rows": [1, 2.0]})


def test_equal_trees_move_nothing_and_runtime_is_set_aside():
    parent = _tree(sigma=0.1, iterations=18, ok=True, nan=math.nan)
    report = compare(parent, _tree(runtime_s=9.0, sigma=0.1, iterations=18, ok=True, nan=math.nan))
    assert (report["moved"], report["added"], report["removed"], report["largest"]) == (0, [], [], {})
    assert report["leaves"] == 7 and not report["exit_changed"]


def test_moved_leaves_report_their_largest_abs_rel_and_ulp_moves():
    a, b = 0.0020046533971509427, 0.0020046533971509422
    parent = _tree(sigma=a, big=1.0e6, iterations=18, zero=0.0)
    change = _tree(sigma=b, big=1.0e6 + 2**-13, iterations=19, zero=-0.0)
    report = compare(parent, change)
    assert report["moved"] == 4 and set(report["moves"]) == {
        "/constants/sigma",
        "/constants/big",
        "/constants/iterations",
        "/constants/zero",
    }
    sigma = report["moves"]["/constants/sigma"]
    assert (sigma["parent"], sigma["change"]) == (a, b)
    assert sigma["ulp"] == abs(ordered_bits(a) - ordered_bits(b)) == 1
    assert report["moves"]["/constants/zero"]["ulp"] == 0  # the sign of zero moves, by no ulp
    assert report["moves"]["/constants/iterations"]["ulp"] is None  # ints have no ulp
    assert report["largest"]["abs"] == {"key": "/constants/iterations", "value": 1.0}
    assert report["largest"]["rel"] == {"key": "/constants/iterations", "value": 1 / 19}
    assert report["largest"]["ulp"]["key"] == "/constants/big"
    assert report["largest"]["ulp"]["value"] == 2**20  # 2^-13 at 1e6, whose ulp is 2^-33


def test_added_removed_non_finite_and_exit_codes():
    parent = _tree(sigma=1.0, gone=2.0, finite=3.0)
    change = _tree(sigma=1.0, new=2.0, finite=math.inf)
    report = compare(parent, change, exits=(0, 1))
    assert report["added"] == ["/constants/new"] and report["removed"] == ["/constants/gone"]
    move = report["moves"]["/constants/finite"]
    assert report["moved"] == 1 and move["abs"] == move["rel"] == math.inf and move["ulp"] is None
    assert report["exit"] == [0, 1] and report["exit_changed"]
    # a string or a changed type moves without a size
    report = compare(flatten({"v": "PASS", "n": 1}), flatten({"v": "FAIL", "n": 1.0}))
    assert report["moved"] == 2 and report["moves"]["/v"]["abs"] is None
    assert report["moves"]["/n"]["abs"] == 0.0


def test_outputs_read_json_leaves_and_csv_cells(tmp_path):
    (tmp_path / "norm.json").write_text('{"runtime_s": 1.0, "constants": {"sigma": 0.5, "hist": [1, NaN]}}')
    (tmp_path / "scaling.csv").write_text("M,sigma,name\n4,0.25,a\n16,1e-3,b\n")
    (tmp_path / "scaling_timings.csv").write_text("M,seconds\n4,0.1\n")
    leaves = read_outputs(tmp_path)
    assert set(leaves) == {
        "norm.json/constants/sigma",
        "norm.json/constants/hist[0]",
        "norm.json/constants/hist[1]",
        "scaling.csv[0]/M",
        "scaling.csv[0]/sigma",
        "scaling.csv[0]/name",
        "scaling.csv[1]/M",
        "scaling.csv[1]/sigma",
        "scaling.csv[1]/name",
    }
    assert leaves["scaling.csv[1]/sigma"] == 1e-3 and leaves["scaling.csv[1]/M"] == 16
    assert math.isnan(leaves["norm.json/constants/hist[1]"])


def test_timing_columns_of_a_csv_are_set_aside(tmp_path):
    (tmp_path / "bench.csv").write_text("N,t_direct_ms,t_fast_ms,speedup,max_rel_err\n8192,120.5,40.25,2.99,3e-08\n")
    assert read_outputs(tmp_path) == {"bench.csv[0]/N": 8192, "bench.csv[0]/max_rel_err": 3e-08}


def test_treecode_probe_writes_one_leaf_per_output_component(tmp_path):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable, str(root / "tools" / "treecode_probe.py"), "--n", "256", "--out", str(tmp_path)]
    subprocess.run(cmd, env=env, check=True, capture_output=True)
    leaves = read_outputs(tmp_path)
    want = outputs(256)  # the probe's values, computed in this process
    n = len(want["modified"]["re"])
    assert n == 512  # two squares of 16 x 16 nodes
    assert set(leaves) == {f"apply.json/{v}/{part}[{i}]" for v in want for part in ("re", "im") for i in range(n)}
    for v in want:
        for part in ("re", "im"):
            assert all(same_leaf(leaves[f"apply.json/{v}/{part}[{i}]"], x) for i, x in enumerate(want[v][part]))


# writes the probe variables it sees into <out>/env.json
_ENV_PROBE = (
    "import json, os, pathlib, sys; out = pathlib.Path(sys.argv[-1]); out.mkdir();"
    "(out / 'env.json').write_text(json.dumps({k: os.environ.get(k) for k in ('NHCZ_A', 'NHCZ_B')}))"
)


def test_change_env_reaches_only_the_change_side(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("NHCZ_A", raising=False)
    monkeypatch.delenv("NHCZ_B", raising=False)
    monkeypatch.setattr(bitdiff, "MATRIX", [("probe", ["-c", _ENV_PROBE])])
    monkeypatch.setattr(bitdiff, "export", lambda rev, into: bitdiff.ROOT)
    record_path = tmp_path / "moved.json"
    args = ["--parent", "HEAD", "--change-env", "NHCZ_A=x=1", "--change-env", "NHCZ_B=", "--json", str(record_path)]
    assert bitdiff.main(args) == 1
    record = json.loads(record_path.read_text())
    assert record["change_env"] == {"NHCZ_A": "x=1", "NHCZ_B": ""}
    moves = record["commands"]["probe"]["moves"]
    assert {k: (m["parent"], m["change"]) for k, m in moves.items()} == {
        "env.json/NHCZ_A": (None, "x=1"),
        "env.json/NHCZ_B": (None, ""),
    }
    assert "change-side environment: NHCZ_A=x=1 NHCZ_B=" in capsys.readouterr().out


def test_change_env_without_equals_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        bitdiff.main(["--parent", "HEAD", "--change-env", "OPENBLAS_CORETYPE"])
    assert exc.value.code == 2
    assert "expected NAME=VALUE" in capsys.readouterr().err

import json
import os

import pytest

from nhcz.cli import main
from nhcz.geometry import DyadicSquare, SquareFamily, generate_family


@pytest.fixture
def family_file(tmp_path):
    fam = generate_family(seed=1, count=6, d=1.2, packing_target=4.0, k_range=(2, 4))
    path = tmp_path / "family.json"
    fam.save(path)
    return str(path)


def run(args):
    return main(args)


def test_generate_then_validate(tmp_path, capsys):
    out = str(tmp_path / "reports")
    fam_path = str(tmp_path / "fam.json")
    assert run(["generate", "--M", "8", "--d", "1.1", "--seed", "3", "--out", out, "--family", fam_path]) == 0
    assert os.path.exists(fam_path)
    assert run(["validate", "--family", fam_path, "--out", out]) == 0
    report = json.loads(open(os.path.join(out, "validate.json")).read())
    assert report["schema"] == "nhcz/1"
    assert report["passed"] is True
    assert report["constants"]["disjoint"] is True


def test_validate_flags_dilate_overlap(tmp_path):
    bad = SquareFamily.__new__(SquareFamily)  # bypass build to store a violating list
    squares = [DyadicSquare(0, 0, 0), DyadicSquare(0, 2, 0)]
    obj = {"d": 1.0, "packing_target": 4.0, "squares": [{"k": s.k, "i": s.i, "j": s.j} for s in squares]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    out = str(tmp_path / "reports")
    assert run(["validate", "--family", str(path), "--out", out]) == 1
    report = json.loads(open(os.path.join(out, "validate.json")).read())
    assert report["passed"] is False
    assert report["witnesses"]["dilate_overlap"] == [0, 1]


def test_empty_family_is_input_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"d": 1.0, "packing_target": 4.0, "squares": []}))
    assert run(["validate", "--family", str(path), "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["schema"] == "nhcz/1"
    assert "error" in err


def test_missing_family_is_input_error(tmp_path, capsys):
    assert run(["norm", "--family", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ValueError"


def test_exponent_prints_ten_decimals(capsys):
    assert run(["exponent", "--t", "1", "--K", "2"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "t' = 1.3333333333"


def test_exponent_rejects_bad_input(capsys):
    assert run(["exponent", "--t", "3", "--K", "2"]) == 2


def test_norm_dominate_decompose_czcheck_growth_a2_t1(family_file, tmp_path):
    out = str(tmp_path / "reports")
    assert run(["norm", "--family", family_file, "--n", "3", "--out", out]) == 0
    assert run(["dominate", "--family", family_file, "--n", "3", "--out", out]) == 0
    assert run(["decompose", "--family", family_file, "--n", "3", "--out", out]) == 0
    assert run(["czcheck", "--family", family_file, "--n", "3", "--tau", "0.5", "--out", out]) == 0
    assert run(["growth", "--family", family_file, "--n", "3", "--out", out]) == 0
    assert run(["a2", "--family", family_file, "--n", "3", "--out", out]) == 0
    assert run(["t1", "--family", family_file, "--n", "3", "--out", out]) == 0
    for name in ("norm", "dominate", "decompose", "czcheck", "growth", "a2", "t1"):
        report = json.loads(open(os.path.join(out, f"{name}.json")).read())
        assert report["schema"] == "nhcz/1"
        assert report["passed"] is True


def test_beurling_subcommand(tmp_path):
    out = str(tmp_path / "reports")
    assert run(["beurling", "--n", "32", "--seed", "5", "--out", out]) == 0
    report = json.loads(open(os.path.join(out, "beurling.json")).read())
    assert report["constants"]["max_norm_ratio_deviation"] <= 1e-12


def test_scaling_csv_byte_identical(tmp_path):
    out1 = str(tmp_path / "r1")
    out2 = str(tmp_path / "r2")
    args = ["scaling", "--d", "1.2", "--M", "2,4", "--n", "3", "--seed", "7"]
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    a = open(os.path.join(out1, "scaling.csv"), "rb").read()
    b = open(os.path.join(out2, "scaling.csv"), "rb").read()
    assert a == b
    header = a.decode().splitlines()[0]
    assert header.startswith("M,generated,complete,n_nodes")


def test_bench_subcommand(tmp_path):
    out = str(tmp_path / "reports")
    assert run(["bench", "--sizes", "128,256", "--out", out, "--seed", "2"]) == 0
    lines = open(os.path.join(out, "bench.csv")).read().splitlines()
    assert lines[0] == "N,t_direct_ms,t_fast_ms,speedup,max_rel_err,p,theta,seed,direct_exact"
    assert len(lines) == 3


def test_bad_m_list_is_input_error(tmp_path, capsys):
    assert run(["scaling", "--M", "4,x", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "args",
    [["decompose", "--tol", "0"], ["decompose", "--tol", "-0.5"], ["norm", "--tol", "0"]],
    ids=["decompose-zero", "decompose-negative", "norm-zero"],
)
def test_nonpositive_tol_is_input_error(family_file, tmp_path, args):
    assert run(args + ["--family", family_file, "--n", "3", "--out", str(tmp_path)]) == 2


def test_zero_threads_is_input_error(family_file, tmp_path):
    assert run(["norm", "--family", family_file, "--n", "3", "--threads", "0", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "args",
    [["growth", "--tol", "5"], ["growth", "--threads", "7"], ["dominate", "--threads", "2"], ["t1", "--tol", "1e-3"]],
    ids=["growth-tol", "growth-threads", "dominate-threads", "t1-tol"],
)
def test_flag_on_subcommand_that_ignores_it_is_input_error(family_file, tmp_path, args):
    assert run(args + ["--family", family_file, "--n", "3", "--out", str(tmp_path)]) == 2


def test_generate_honours_kmin_zero(tmp_path, monkeypatch):
    import nhcz.cli

    seen = []

    def spy(seed, count, d, packing_target, k_range, box):
        seen.append(k_range)
        return generate_family(seed, count, d, packing_target, k_range, box)

    monkeypatch.setattr(nhcz.cli, "generate_family", spy)
    run(["generate", "--M", "8", "--kmin", "0", "--out", str(tmp_path)])
    assert seen == [(0, 7)]


@pytest.mark.parametrize(
    "square",
    [
        {"k": 70, "i": 2**70, "j": 0},
        {"k": 45, "i": 0, "j": 0},
        {"k": -41, "i": 0, "j": 0},
        {"k": 2.5, "i": 0, "j": 0},
        {"k": 2, "i": 0.5, "j": 0},
        {"k": 2, "i": 0, "j": "1"},
        {"k": True, "i": 0, "j": 0},
    ],
    ids=["k70_overflow", "k45", "k_minus41", "k_fraction", "i_fraction", "j_string", "k_bool"],
)
def test_validate_rejects_bad_lattice_coordinates(tmp_path, capsys, square):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"d": 1.0, "packing_target": 4.0, "squares": [square]}))
    assert run(["validate", "--family", str(path), "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert not (tmp_path / "validate.json").exists()


def test_validate_accepts_integral_float_coordinates(tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"d": 1.0, "packing_target": 4.0, "squares": [{"k": 40.0, "i": -3.0, "j": 2**45}]}))
    assert run(["validate", "--family", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "validate.json").read_text())
    assert report["witnesses"]["packing_witness"] == {"k": 40, "i": -3, "j": 2**45}

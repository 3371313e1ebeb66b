import json
import os
import shlex
from pathlib import Path

import pytest

from nhcz import verify
from nhcz.cli import SUBCOMMANDS, build_parser, main
from nhcz.geometry import DyadicSquare, SquareFamily, generate_family
from nhcz.kernels import KernelSpec, cz_constants
from nhcz.measure import a2_constant, build_measure, build_quadrature, growth_constant
from nhcz.operators import operator_norm, t1_testing
from nhcz.reports import canonical_json


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


@pytest.mark.parametrize("squares", [[(3, 1, 1), (3, 1, 1)], [(2, 0, 0), (3, 0, 0)]], ids=["repeat", "nested"])
@pytest.mark.parametrize("command", ["validate", "norm", "dominate", "czcheck", "growth", "a2", "t1", "decompose"])
def test_overlapping_family_is_input_error(tmp_path, capsys, command, squares):
    path = tmp_path / "overlap.json"
    path.write_text(json.dumps({"d": 1.2, "packing_target": 4.0, "squares": [dict(zip("kij", s)) for s in squares]}))
    out = tmp_path / "reports"
    n = [] if command == "validate" else ["--n", "2"]
    assert run([command, "--family", str(path), *n, "--out", str(out)]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ValueError" and "squares 0 and 1 overlap" in err["detail"]
    assert not out.exists() or not any(out.iterdir())


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


def test_scaling_fails_when_a_row_does_not_converge(tmp_path, monkeypatch):
    args = ["scaling", "--M", "4", "--n", "3", "--out", str(tmp_path)]
    assert run(args) == 0
    monkeypatch.setattr(verify, "SCALING_NORM_MAX_ITER", 1)
    assert run(args) == 1
    row = (tmp_path / "scaling.csv").read_text().splitlines()[1].split(",")
    assert row[verify.SCALING_HEADER.index("sigma_converged")] == "False"


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
    # norm has no --threads flag: the dense sums run on one thread
    for threads in ("0", "2"):
        assert run(["norm", "--family", family_file, "--n", "3", "--threads", threads, "--out", str(tmp_path)]) == 2


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


def test_generate_report_does_not_depend_on_the_working_directory(tmp_path, monkeypatch):
    reports = {}
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert run(["generate", "--M", "4", "--seed", "2", "--out", "reports"]) == 0
        reports[name] = (tmp_path / name / "reports" / "generate.json").read_bytes()
    assert reports["a"] == reports["b"]
    assert json.loads(reports["a"])["family"] == os.path.join("reports", "family.json")


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


@pytest.mark.parametrize("command", ["validate", "norm"])
@pytest.mark.parametrize("index", [10**400, -(2**53)], ids=["beyond_float", "two_to_53"])
def test_lattice_index_without_exact_float_coordinate_is_input_error(tmp_path, capsys, command, index):
    # i * side is a node coordinate in float64, exact only for |i| < 2^53
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"d": 1.2, "packing_target": 4.0, "squares": [{"k": 2, "i": index, "j": 0}]}))
    assert run([command, "--family", str(path), "--out", str(tmp_path)]) == 2
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"] == "ValueError"
    assert not (tmp_path / f"{command}.json").exists()


def test_validate_accepts_integral_float_coordinates(tmp_path):
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"d": 1.0, "packing_target": 4.0, "squares": [{"k": 40.0, "i": -3.0, "j": 2**45}]}))
    assert run(["validate", "--family", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "validate.json").read_text())
    assert report["witnesses"]["packing_witness"] == {"k": 40, "i": -3, "j": 2**45}


@pytest.mark.parametrize(
    "obj",
    [
        [1, 2],
        {"d": 1.2, "packing_target": 4, "squares": [1, 2]},
        {"d": None, "packing_target": 4, "squares": [{"k": 2, "i": 0, "j": 0}]},
        {"d": 1.2, "packing_target": "4", "squares": [{"k": 2, "i": 0, "j": 0}]},
        {"d": 1.2, "packing_target": 4, "squares": {"k": 2, "i": 0, "j": 0}},
        {"d": 10**400, "packing_target": 4, "squares": [{"k": 2, "i": 0, "j": 0}]},
        {"d": True, "packing_target": 4, "squares": [{"k": 2, "i": 0, "j": 0}]},
    ],
    ids=["top_level_list", "square_not_object", "d_null", "target_string", "squares_not_list", "d_overflow", "d_bool"],
)
def test_validate_rejects_malformed_family_json(tmp_path, capsys, obj):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    assert run(["validate", "--family", str(path), "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert not (tmp_path / "validate.json").exists()


@pytest.mark.parametrize(
    "args",
    [
        ["decompose", "--trials", "0"],
        ["decompose", "--trials", "-3"],
        ["dominate", "--trials", "-2"],
        ["czcheck", "--budget", "0"],
    ],
    ids=["decompose-zero", "decompose-negative", "dominate-negative", "czcheck-budget-zero"],
)
def test_nonpositive_trials_or_budget_is_input_error(family_file, tmp_path, args):
    assert run(args + ["--family", family_file, "--n", "3", "--out", str(tmp_path)]) == 2
    assert os.listdir(tmp_path) == ["family.json"]


def test_beurling_zero_trials_is_input_error(tmp_path):
    assert run(["beurling", "--n", "8", "--trials", "0", "--out", str(tmp_path)]) == 2
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "args",
    [
        ["norm", "--tol", "inf", "--family", "{family}", "--n", "3"],
        ["norm", "--tol", "nan", "--family", "{family}", "--n", "3"],
        ["decompose", "--tol", "inf", "--family", "{family}", "--n", "3"],
        ["beurling", "--tol", "inf", "--n", "8"],
        ["bench", "--tol", "inf", "--sizes", "128"],
        ["exponent", "--t", "1", "--K", "nan"],
    ],
    ids=["norm-inf", "norm-nan", "decompose-inf", "beurling-inf", "bench-inf", "exponent-nan"],
)
def test_nonfinite_tol_is_input_error(family_file, tmp_path, args):
    out = tmp_path / "out"
    assert run([a.format(family=family_file) for a in args] + ["--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("count", ["6,99", "0", "-2"], ids=["list", "zero", "negative"])
def test_generate_takes_one_positive_count(tmp_path, count):
    out = tmp_path / "out"
    assert run(["generate", "--M", count, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [["bench", "--sizes", "0,-5"], ["bench", "--sizes", "128,0"], ["scaling", "--M", "2,0", "--n", "3"]],
    ids=["bench-zero-negative", "bench-zero", "scaling-zero"],
)
def test_nonpositive_list_entry_is_input_error(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert run(args + ["--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"] == "ValueError"
    assert not out.exists()


def _norm_case(variant):
    def expect(fam, cloud):
        est = operator_norm(KernelSpec(variant, fam), cloud, tol=1e-4, seed=2)
        return est.to_json_dict(), {}

    return ["norm", "--variant", variant, "--tol", "1e-4", "--seed", "2"], expect


def _ball_case(name, constant):
    def expect(fam, cloud):
        c, ball = constant(cloud)
        return {f"c_{name}": c}, {"ball": {"cx": ball.cx, "cy": ball.cy, "radius": ball.radius}}

    return [name], expect


def _czcheck_expect(fam, cloud):
    rep = cz_constants(KernelSpec("modified", fam), cloud, tau=0.6, budget=5000, seed=3)
    witnesses = {"size": rep.witness_i, "first_argument": rep.witness_ii, "second_argument": rep.witness_iii}
    return rep.to_json_dict(), witnesses


def _t1_expect(fam, cloud):
    return t1_testing(cloud, seed=4).to_json_dict(), {}


def _dominate_expect(fam, cloud):
    rep = verify.check_domination(fam, n_per_side=3, trials=2, seed=5)
    return rep.constants, rep.witnesses


def _decompose_expect(fam, cloud):
    rep = verify.check_decomposition(fam, n_per_side=3, trials=2, seed=6, rel_tol=1e-10)
    return rep.constants, rep.witnesses


WIRED = {
    **{f"norm-{v}": _norm_case(v) for v in ("modified", "adjoint", "full", "local")},
    "growth": _ball_case("growth", growth_constant),
    "a2": _ball_case("a2", a2_constant),
    "czcheck": (["czcheck", "--tau", "0.6", "--budget", "5000", "--seed", "3"], _czcheck_expect),
    "t1": (["t1", "--seed", "4"], _t1_expect),
    "dominate": (["dominate", "--trials", "2", "--seed", "5"], _dominate_expect),
    "decompose": (["decompose", "--trials", "2", "--tol", "1e-10", "--seed", "6"], _decompose_expect),
}


@pytest.mark.parametrize("case", list(WIRED))
def test_cloud_report_matches_direct_library_call(family_file, tmp_path, case):
    args, expect = WIRED[case]
    out = tmp_path / "out"
    assert run(args + ["--family", family_file, "--n", "3", "--out", str(out)]) in (0, 1)
    report = json.loads((out / f"{args[0]}.json").read_text())
    fam = SquareFamily.from_json_dict(json.loads(Path(family_file).read_text()))
    constants, witnesses = expect(fam, build_quadrature(build_measure(fam), 3))
    assert report["inputs"]["n_per_side"] == 3
    assert report["constants"] == json.loads(canonical_json(constants))
    assert report["witnesses"] == json.loads(canonical_json(witnesses))


def _readme_command_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("nhcz ")]


@pytest.mark.parametrize("argv", _readme_command_lines(), ids=lambda argv: argv[0])
def test_readme_command_line_parses(argv):
    try:
        build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"README example does not parse: nhcz {shlex.join(argv)}")


def test_readme_shows_every_subcommand():
    assert sorted(argv[0] for argv in _readme_command_lines()) == sorted(SUBCOMMANDS)


@pytest.mark.parametrize(
    "args",
    [
        ["--box", "0,0,inf,1"],
        ["--box", "0,0,1e308,1"],
        ["--packing-target", "inf"],
        ["--packing-target", "nan"],
    ],
    ids=["box-inf", "box-overflows-at-generation", "packing-target-inf", "packing-target-nan"],
)
def test_generate_rejects_nonfinite_input(tmp_path, capsys, args):
    out = tmp_path / "out"
    assert run(["generate", "--M", "4", *args, "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"] == "ValueError"
    assert not out.exists()

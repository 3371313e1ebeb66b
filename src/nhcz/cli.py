"""Command-line front end.

Subcommands dispatch to the library, write canonical JSON/CSV artifacts
atomically into the output directory, and exit 0 on pass, 1 on a threshold
failure, 2 on an input error (with a machine-readable error JSON on stdout).
All randomness flows from --seed (default 0).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from nhcz import fastsum, kernels, measure, operators, verify
from nhcz.geometry import SquareFamily, check_disjointness, generate_family, suggest_generation_range
from nhcz.measure import borderline_exponent, build_measure, build_quadrature
from nhcz.operators import operator_norm
from nhcz.reports import VerificationReport, family_digest, write_csv_atomic, write_json_atomic

PASS, FAIL, INPUT_ERROR = 0, 1, 2


def _positive(kind):
    def parse(text):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
        return value

    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nhcz", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="reports", help="output directory (default: reports)")
        return p

    def add_tol(p, default):
        p.add_argument("--tol", type=_positive(float), default=default)

    p = add("generate", "draw an admissible family and save it as JSON")
    p.add_argument("--M", default="16", help="member count")
    p.add_argument("--d", type=float, default=1.2)
    p.add_argument("--packing-target", type=float, default=4.0)
    p.add_argument("--kmin", type=int, default=None)
    p.add_argument("--kmax", type=int, default=None)
    p.add_argument("--box", default="0,0,1,1")
    p.add_argument("--family", default=None, help="output family path (default: <out>/family.json)")

    p = add("validate", "exact admissibility checks of a family file")
    p.add_argument("--family", required=True)

    p = add("norm", "operator-norm estimate on the measure")
    add_tol(p, 1e-6)
    p.add_argument("--threads", type=_positive(int), default=1)
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--variant", choices=["modified", "adjoint", "full", "local"], default="modified")

    p = add("dominate", "pointwise maximal-operator domination check")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--trials", type=_positive(int), default=4)

    p = add("czcheck", "empirical kernel condition constants")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--tau", type=float, default=0.5)
    p.add_argument("--budget", type=_positive(int), default=200_000)

    p = add("growth", "ball-growth constant of the measure")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, default=8)

    p = add("a2", "two-weight ratio constant over discs")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, default=8)

    p = add("t1", "ball testing-condition suprema")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, default=8)

    p = add("decompose", "full = modified + local operator identity")
    add_tol(p, 1e-12)
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--trials", type=_positive(int), default=4)

    p = add("beurling", "spectral isometry check on a periodic grid")
    add_tol(p, 1e-12)
    p.add_argument("--n", type=int, default=256)
    p.add_argument("--trials", type=_positive(int), default=4)

    p = add("bench", "direct vs fast summation timing ladder")
    add_tol(p, None)
    p.add_argument("--sizes", default="1024,4096,16384")
    p.add_argument("--p", type=int, default=12)
    p.add_argument("--theta", type=float, default=0.5)
    p.add_argument("--d", type=float, default=1.2)

    p = add("scaling", "constants across a family-size ladder")
    p.add_argument("--M", default="4,16,64")
    p.add_argument("--d", type=float, default=1.2)
    p.add_argument("--packing-target", type=float, default=4.0)
    p.add_argument("--n", type=int, default=8)

    p = add("exponent", "borderline distortion exponent")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--K", type=float, required=True)
    return parser


def _load_family(path) -> SquareFamily:
    if not os.path.exists(path):
        raise ValueError(f"family file not found: {path}")
    with open(path) as fh:
        return SquareFamily.from_json_dict(json.load(fh))


def _parse_int_list(text) -> list[int]:
    try:
        values = [int(v) for v in str(text).split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"bad integer list {text!r}") from exc
    if not values:
        raise ValueError(f"bad integer list {text!r}")
    return values


def _emit(args, name, report: VerificationReport) -> int:
    os.makedirs(args.out, exist_ok=True)
    write_json_atomic(os.path.join(args.out, f"{name}.json"), report.to_json_dict())
    print(f"{name}: {'PASS' if report.passed else 'FAIL'}")
    return PASS if report.passed else FAIL


def _cmd_generate(args) -> int:
    count = _parse_int_list(args.M)[0]
    k_range = (args.kmin, args.kmax)
    if None in k_range:
        lo, hi = suggest_generation_range(count, args.d, args.packing_target)
        k_range = (lo if args.kmin is None else args.kmin, hi if args.kmax is None else args.kmax)
    box = tuple(float(v) for v in args.box.split(","))
    if len(box) != 4:
        raise ValueError(f"bad box {args.box!r}; expected x0,y0,x1,y1")
    fam = generate_family(args.seed, count, args.d, args.packing_target, k_range, box)
    os.makedirs(args.out, exist_ok=True)
    path = args.family or os.path.join(args.out, "family.json")
    fam.save(path)
    write_json_atomic(
        os.path.join(args.out, "generate.json"),
        {
            "schema": "nhcz/1",
            "check": "generate",
            "family": os.path.abspath(path),
            "family_digest": family_digest(fam),
            "requested": count,
            "generated": len(fam),
            "complete": fam.complete,
            "c_pack": fam.c_pack,
            "seed": args.seed,
        },
    )
    print(f"generate: {len(fam)}/{count} squares -> {path}")
    return PASS if fam.complete else FAIL


def _cmd_validate(args) -> int:
    t0 = time.perf_counter()
    fam = _load_family(args.family)
    verdict = check_disjointness(fam.squares)
    passed = verdict.ok and fam.c_pack <= fam.packing_target
    report = VerificationReport(
        check="validate",
        inputs={"family_digest": family_digest(fam), "squares": len(fam), "d": fam.d},
        constants={"c_pack": fam.c_pack, "disjoint": verdict.ok},
        witnesses={
            "dilate_overlap": list(verdict.witness) if verdict.witness else None,
            "packing_witness": fam.c_pack_witness,
        },
        thresholds={"packing_target": fam.packing_target},
        passed=passed,
        runtime_s=time.perf_counter() - t0,
    )
    return _emit(args, "validate", report)


def _cmd_norm(args) -> int:
    fam = _load_family(args.family)
    cloud = build_quadrature(build_measure(fam), args.n)
    t0 = time.perf_counter()
    est = operator_norm(
        kernels.KernelSpec(args.variant, fam),
        cloud,
        tol=args.tol,
        seed=args.seed,
        threads=args.threads,
    )
    report = VerificationReport(
        check="norm",
        inputs={
            "family_digest": family_digest(fam),
            "n_per_side": args.n,
            "variant": args.variant,
            "seed": args.seed,
        },
        constants=est.to_json_dict(),
        witnesses={},
        thresholds={"tol": args.tol},
        passed=bool(est.converged),
        runtime_s=time.perf_counter() - t0,
    )
    return _emit(args, "norm", report)


def _cmd_dominate(args) -> int:
    fam = _load_family(args.family)
    report = verify.check_domination(fam, n_per_side=args.n, trials=args.trials, seed=args.seed)
    return _emit(args, "dominate", report)


def _cmd_czcheck(args) -> int:
    fam = _load_family(args.family)
    cloud = build_quadrature(build_measure(fam), args.n)
    t0 = time.perf_counter()
    rep = kernels.cz_constants(
        kernels.KernelSpec("modified", fam), cloud, tau=args.tau, budget=args.budget, seed=args.seed
    )
    finite = all(np.isfinite([rep.a_i, rep.a_ii, rep.a_iii]))
    report = VerificationReport(
        check="czcheck",
        inputs={"family_digest": family_digest(fam), "n_per_side": args.n, "seed": args.seed},
        constants=rep.to_json_dict(),
        witnesses={
            "size": list(rep.witness_i),
            "first_argument": list(rep.witness_ii),
            "second_argument": list(rep.witness_iii),
        },
        thresholds={"iii2_counterexamples": 0},
        passed=bool(finite and rep.iii2_counterexamples == 0),
        runtime_s=time.perf_counter() - t0,
    )
    return _emit(args, "czcheck", report)


# subcommand -> (ball-ratio constant of the measure, report key)
_BALL_CONSTANTS = {
    "growth": (measure.growth_constant, "c_growth"),
    "a2": (measure.a2_constant, "c_a2"),
}


def _cmd_ball_constant(args) -> int:
    constant, key = _BALL_CONSTANTS[args.command]
    fam = _load_family(args.family)
    cloud = build_quadrature(build_measure(fam), args.n)
    t0 = time.perf_counter()
    c, witness = constant(cloud)
    report = VerificationReport(
        check=args.command,
        inputs={"family_digest": family_digest(fam), "n_per_side": args.n},
        constants={key: c},
        witnesses={"ball": {"cx": witness.cx, "cy": witness.cy, "radius": witness.radius}},
        thresholds={"sample": "all nodes x dyadic radius ladder"},
        passed=bool(np.isfinite(c)),
        runtime_s=time.perf_counter() - t0,
    )
    return _emit(args, args.command, report)


def _cmd_t1(args) -> int:
    fam = _load_family(args.family)
    cloud = build_quadrature(build_measure(fam), args.n)
    t0 = time.perf_counter()
    rep = operators.t1_testing(kernels.KernelSpec("modified", fam), cloud, seed=args.seed)
    finite = np.isfinite(rep.sup_t) and np.isfinite(rep.sup_t_adjoint)
    report = VerificationReport(
        check="t1",
        inputs={"family_digest": family_digest(fam), "n_per_side": args.n, "seed": args.seed},
        constants=rep.to_json_dict(),
        witnesses={},
        thresholds={},
        passed=bool(finite),
        runtime_s=time.perf_counter() - t0,
    )
    return _emit(args, "t1", report)


def _cmd_decompose(args) -> int:
    fam = _load_family(args.family)
    report = verify.check_decomposition(
        fam, n_per_side=args.n, trials=args.trials, seed=args.seed, rel_tol=args.tol
    )
    return _emit(args, "decompose", report)


def _cmd_beurling(args) -> int:
    if args.n < 2 or args.n % 2:
        raise ValueError(f"grid size must be even and >= 2, got {args.n}")
    t0 = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        g = rng.standard_normal((args.n, args.n)) + 1j * rng.standard_normal((args.n, args.n))
        g -= g.mean()
        out = operators.beurling_multiplier(g)
        worst = max(worst, abs(np.linalg.norm(out) / np.linalg.norm(g) - 1.0))
    report = VerificationReport(
        check="beurling",
        inputs={"grid": args.n, "trials": args.trials, "seed": args.seed},
        constants={"max_norm_ratio_deviation": worst},
        witnesses={},
        thresholds={"max_norm_ratio_deviation": args.tol},
        passed=bool(worst <= args.tol),
        runtime_s=time.perf_counter() - t0,
    )
    return _emit(args, "beurling", report)


def _cmd_bench(args) -> int:
    sizes = _parse_int_list(args.sizes)
    params = fastsum.ExpansionParams(order=args.p, theta=args.theta)
    rows = fastsum.benchmark(sizes, params, seed=args.seed, d=args.d)
    os.makedirs(args.out, exist_ok=True)
    write_csv_atomic(
        os.path.join(args.out, "bench.csv"), fastsum.BENCH_HEADER, [r.csv_row() for r in rows]
    )
    for r in rows:
        print(
            f"bench: N={r.n} direct={r.t_direct_ms:.1f}ms fast={r.t_fast_ms:.1f}ms "
            f"speedup={r.speedup:.2f} err={r.max_rel_err:.3g}"
        )
    if args.tol is not None and any(r.max_rel_err > args.tol for r in rows):
        return FAIL
    return PASS


def _cmd_scaling(args) -> int:
    ladder = _parse_int_list(args.M)
    rows, timings = verify.scaling_study(
        d=args.d,
        packing_target=args.packing_target,
        m_ladder=ladder,
        n_per_side=args.n,
        seed=args.seed,
    )
    os.makedirs(args.out, exist_ok=True)
    write_csv_atomic(os.path.join(args.out, "scaling.csv"), verify.SCALING_HEADER, rows)
    # wall-clock goes to a sidecar so the main table is run-to-run identical
    write_csv_atomic(
        os.path.join(args.out, "scaling_timings.csv"),
        ["M", "seconds"],
        [[m, f"{t:.3f}"] for m, t in zip(ladder, timings)],
    )
    incomplete = [row[0] for row in rows if not row[2]]
    for row in rows:
        print(f"scaling: M={row[0]} nodes={row[3]} sigma_max={row[8]}")
    return FAIL if incomplete else PASS


def _cmd_exponent(args) -> int:
    t_prime = borderline_exponent(args.t, args.K)
    print(f"t' = {t_prime:.10f}")
    return PASS


_HANDLERS = {
    "generate": _cmd_generate,
    "validate": _cmd_validate,
    "norm": _cmd_norm,
    "dominate": _cmd_dominate,
    "czcheck": _cmd_czcheck,
    "growth": _cmd_ball_constant,
    "a2": _cmd_ball_constant,
    "t1": _cmd_t1,
    "decompose": _cmd_decompose,
    "beurling": _cmd_beurling,
    "bench": _cmd_bench,
    "scaling": _cmd_scaling,
    "exponent": _cmd_exponent,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a usage message
        return INPUT_ERROR if exc.code not in (0, None) else PASS
    try:
        return _HANDLERS[args.command](args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(json.dumps({"schema": "nhcz/1", "error": type(exc).__name__, "detail": str(exc)}))
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())

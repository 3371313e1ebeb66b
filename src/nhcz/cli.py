"""Command-line front end.

Subcommands dispatch to the library, write canonical JSON/CSV artifacts
atomically into the output directory, and exit 0 on pass, 1 on a threshold
failure, 2 on an input error (with a machine-readable error JSON on stdout).
All randomness flows from --seed (default 0).

Each subcommand is one row of the ``SUBCOMMANDS`` table: its help line, its
flags beyond --seed/--out and its handler; the parser and the dispatch both
read that table.  Every check's report comes from ``reports.run_check``,
the checks on a family's --n quadrature cloud through
``verify.run_on_cloud``, and each check writes its report to
<out>/<subcommand>.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from functools import partial

import numpy as np

from nhcz import fastsum, kernels, measure, operators, verify
from nhcz.geometry import SquareFamily, check_disjointness, generate_family, suggest_generation_range
from nhcz.measure import borderline_exponent, build_quadrature
from nhcz.reports import SCHEMA, VerificationReport, family_digest, run_check, write_csv_atomic, write_json_atomic

PASS, FAIL, INPUT_ERROR = 0, 1, 2


def _positive(kind):
    def parse(text):
        value = kind(text)
        if not 0 < value < math.inf:
            raise argparse.ArgumentTypeError(f"must be positive and finite, got {text!r}")
        return value

    return parse


def _load_family(path) -> SquareFamily:
    if not os.path.exists(path):
        raise ValueError(f"family file not found: {path}")
    return SquareFamily.load(path)


def _parse_int_list(text) -> list[int]:
    try:
        values = [int(v) for v in str(text).split(",") if v.strip()]
    except ValueError as exc:
        raise ValueError(f"bad integer list {text!r}") from exc
    if not values or min(values) < 1:
        raise ValueError(f"bad integer list {text!r}; expected positive integers")
    return values


def _emit(args, report: VerificationReport) -> int:
    os.makedirs(args.out, exist_ok=True)
    write_json_atomic(os.path.join(args.out, f"{args.command}.json"), report.to_json_dict())
    print(f"{args.command}: {'PASS' if report.passed else 'FAIL'}")
    return PASS if report.passed else FAIL


def _on_cloud(work):
    """Handler for a check on the --family measure's --n quadrature cloud:
    ``work(cloud, args)`` returns the report's (inputs, constants,
    witnesses, thresholds, passed), less the family digest and
    ``n_per_side``, which ``verify.run_on_cloud`` adds."""

    def on_cloud(fam, n, args):
        return work(build_quadrature(fam, n), args)

    return lambda args: verify.run_on_cloud(args.command, on_cloud, _load_family(args.family), args.n, args)


def _cmd_generate(args) -> int:
    k_range = (args.kmin, args.kmax)
    if None in k_range:
        lo, hi = suggest_generation_range(args.M, args.d, args.packing_target)
        k_range = (lo if args.kmin is None else args.kmin, hi if args.kmax is None else args.kmax)
    box = tuple(float(v) for v in args.box.split(","))
    if len(box) != 4:
        raise ValueError(f"bad box {args.box!r}; expected x0,y0,x1,y1")
    fam = generate_family(args.seed, args.M, args.d, args.packing_target, k_range, box)
    os.makedirs(args.out, exist_ok=True)
    path = args.family or os.path.join(args.out, "family.json")
    fam.save(path)
    write_json_atomic(
        os.path.join(args.out, "generate.json"),
        {
            "schema": SCHEMA,
            "check": "generate",
            "family": path,
            "family_digest": family_digest(fam),
            "requested": args.M,
            "generated": len(fam),
            "complete": fam.complete,
            "c_pack": fam.c_pack,
            "seed": args.seed,
        },
    )
    print(f"generate: {len(fam)}/{args.M} squares -> {path}")
    return PASS if fam.complete else FAIL


def _cmd_validate(args) -> VerificationReport:
    return run_check(args.command, _validate, _load_family(args.family))


def _validate(fam):
    verdict = check_disjointness(fam.squares)
    inputs = {"family_digest": family_digest(fam), "squares": len(fam), "d": fam.d}
    witnesses = {
        "dilate_overlap": list(verdict.witness) if verdict.witness else None,
        "packing_witness": fam.c_pack_witness,
    }
    thresholds = {"packing_target": fam.packing_target}
    passed = verdict.ok and fam.c_pack <= fam.packing_target
    return inputs, {"c_pack": fam.c_pack, "disjoint": verdict.ok}, witnesses, thresholds, passed


def _norm(cloud, args):
    spec = kernels.KernelSpec(args.variant, cloud.family)
    est = operators.operator_norm(spec, cloud, tol=args.tol, seed=args.seed)
    inputs = {"variant": args.variant, "seed": args.seed}
    return inputs, est.to_json_dict(), {}, {"tol": args.tol}, est.converged


def _cmd_dominate(args) -> VerificationReport:
    fam = _load_family(args.family)
    return verify.check_domination(fam, n_per_side=args.n, trials=args.trials, seed=args.seed)


def _czcheck(cloud, args):
    spec = kernels.KernelSpec("modified", cloud.family)
    rep = kernels.cz_constants(spec, cloud, tau=args.tau, budget=args.budget, seed=args.seed)
    witnesses = {
        "size": list(rep.witness_i),
        "first_argument": list(rep.witness_ii),
        "second_argument": list(rep.witness_iii),
    }
    finite = all(np.isfinite([rep.a_i, rep.a_ii, rep.a_iii]))
    passed = finite and rep.iii2_counterexamples == 0
    return {"seed": args.seed}, rep.to_json_dict(), witnesses, {"iii2_counterexamples": 0}, passed


def _ball_constant(constant, cloud, args):
    """Work for a ball-ratio constant of the measure, reported as ``c_<subcommand>``."""
    c, ball = constant(cloud)
    witnesses = {"ball": ball}
    thresholds = {"sample": "all nodes x dyadic radius ladder"}
    return {}, {f"c_{args.command}": c}, witnesses, thresholds, np.isfinite(c)


def _t1(cloud, args):
    rep = operators.t1_testing(cloud, seed=args.seed)
    finite = np.isfinite(rep.sup_t) and np.isfinite(rep.sup_t_adjoint)
    return {"seed": args.seed}, rep.to_json_dict(), {}, {}, finite


def _cmd_decompose(args) -> VerificationReport:
    fam = _load_family(args.family)
    return verify.check_decomposition(
        fam, n_per_side=args.n, trials=args.trials, seed=args.seed, rel_tol=args.tol
    )


def _beurling(args):
    if args.n < 2 or args.n % 2:
        raise ValueError(f"grid size must be even and >= 2, got {args.n}")
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.trials):
        g = rng.standard_normal((args.n, args.n)) + 1j * rng.standard_normal((args.n, args.n))
        g -= g.mean()
        out = operators.beurling_multiplier(g)
        worst = max(worst, abs(np.linalg.norm(out) / np.linalg.norm(g) - 1.0))
    inputs = {"grid": args.n, "trials": args.trials, "seed": args.seed}
    thresholds = {"max_norm_ratio_deviation": args.tol}
    return inputs, {"max_norm_ratio_deviation": worst}, {}, thresholds, worst <= args.tol


def _cmd_bench(args) -> int:
    sizes = _parse_int_list(args.sizes)
    params = fastsum.ExpansionParams(order=args.p, theta=args.theta)
    rows = verify.benchmark(sizes, params, seed=args.seed, d=args.d)
    os.makedirs(args.out, exist_ok=True)
    write_csv_atomic(
        os.path.join(args.out, "bench.csv"), verify.BENCH_HEADER, [r.csv_row() for r in rows]
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
    named = [dict(zip(verify.SCALING_HEADER, row)) for row in rows]
    for r in named:
        print(f"scaling: M={r['M']} nodes={r['n_nodes']} sigma_max={r['sigma_max']} converged={r['sigma_converged']}")
    return PASS if all(r["complete"] and r["sigma_converged"] for r in named) else FAIL


def _cmd_exponent(args) -> int:
    t_prime = borderline_exponent(args.t, args.K)
    print(f"t' = {t_prime:.10f}")
    return PASS


def _flag(name, kind=None, default=None, **options):
    """One (flag, ``add_argument`` keywords) entry of a ``SUBCOMMANDS`` row."""
    return name, dict(type=kind, default=default, **options)


_FAMILY = _flag("--family", required=True)
_N = _flag("--n", int, 8)
_TRIALS = _flag("--trials", _positive(int), 4)
_D = _flag("--d", float, 1.2)
_PACKING_TARGET = _flag("--packing-target", float, 4.0)

# name -> (help, flags beyond --seed/--out, handler returning an exit code or a report for _emit)
SUBCOMMANDS = {
    "generate": (
        "draw an admissible family and save it as JSON",
        [
            _flag("--M", _positive(int), 16, help="member count"),
            _D,
            _PACKING_TARGET,
            _flag("--kmin", int),
            _flag("--kmax", int),
            _flag("--box", default="0,0,1,1"),
            _flag("--family", help="output family path (default: <out>/family.json)"),
        ],
        _cmd_generate,
    ),
    "validate": ("exact admissibility checks of a family file", [_FAMILY], _cmd_validate),
    "norm": (
        "operator-norm estimate on the measure",
        [
            _flag("--tol", _positive(float), 1e-6),
            _FAMILY,
            _N,
            _flag("--variant", choices=list(kernels.VARIANT_RULES), default="modified"),
        ],
        _on_cloud(_norm),
    ),
    "dominate": ("pointwise maximal-operator domination check", [_FAMILY, _N, _TRIALS], _cmd_dominate),
    "czcheck": (
        "empirical kernel condition constants",
        [_FAMILY, _N, _flag("--tau", float, 0.5), _flag("--budget", _positive(int), 200_000)],
        _on_cloud(_czcheck),
    ),
    "growth": (
        "ball-growth constant of the measure",
        [_FAMILY, _N],
        _on_cloud(partial(_ball_constant, measure.growth_constant)),
    ),
    "a2": (
        "two-weight ratio constant over discs",
        [_FAMILY, _N],
        _on_cloud(partial(_ball_constant, measure.a2_constant)),
    ),
    "t1": ("ball testing-condition suprema", [_FAMILY, _N], _on_cloud(_t1)),
    "decompose": (
        "full = modified + local operator identity",
        [_flag("--tol", _positive(float), 1e-12), _FAMILY, _N, _TRIALS],
        _cmd_decompose,
    ),
    "beurling": (
        "spectral isometry check on a periodic grid",
        [_flag("--tol", _positive(float), 1e-12), _flag("--n", int, 256), _TRIALS],
        partial(run_check, "beurling", _beurling),
    ),
    "bench": (
        "direct vs fast summation timing ladder",
        [
            _flag("--tol", _positive(float)),
            _flag("--sizes", default="1024,4096,16384"),
            _flag("--p", int, 12),
            _flag("--theta", float, 0.5),
            _D,
        ],
        _cmd_bench,
    ),
    "scaling": (
        "constants across a family-size ladder",
        [_flag("--M", default="4,16,64"), _D, _PACKING_TARGET, _N],
        _cmd_scaling,
    ),
    "exponent": (
        "borderline distortion exponent",
        [_flag("--t", float, required=True), _flag("--K", float, required=True)],
        _cmd_exponent,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nhcz", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags, _) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default="reports", help="output directory (default: reports)")
        for flag, options in flags:
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a usage message
        return INPUT_ERROR if exc.code not in (0, None) else PASS
    try:
        result = SUBCOMMANDS[args.command][2](args)
        return _emit(args, result) if isinstance(result, VerificationReport) else result
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(json.dumps({"schema": SCHEMA, "error": type(exc).__name__, "detail": str(exc)}))
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())

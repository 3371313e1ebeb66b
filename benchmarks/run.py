"""nhcz benchmark: one workload per run, end-to-end or traced.

    python3 benchmarks/run.py --workload scaling_row --seed 0 --seconds 12 --trace 0

Run from the repository root; nhcz is imported from ``src/`` beside this
directory.  With ``--trace 0`` the run repeats the workload's timed calls
until ``--seconds`` have passed (``run_s``, median per rep), reads the peak
resident memory, and times the set-up several times before and after the
reps (``setup_s``, median); the checks run last.  With ``--trace 1`` it sets
up once and runs one untraced and one traced rep, then reports per-layer
self times and counts (see README.md).  Every rep's outputs pass the workload's gates
and the reps agree byte for byte.  The last stdout line is the result JSON;
spans and the machine block go to ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = 1
APPLY_DIRECT_THREADS = 1  # the default the workloads' dense applies run with
# Set-up is timed in two windows, one before and one after the timed reps;
# each repeats until both minimums hold.  On a 2-CPU virtual machine the same
# set-up ran up to 2x slower for stretches of several seconds, so one short
# window is no measure.
SETUP_WINDOW_REPS = 2
SETUP_WINDOW_SECONDS = 1.5

END_TO_END = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = {
    "geometry.generate_s": "s",
    "geometry.packing_constant_s": "s",
    "geometry.packing_constant_calls": "count",
    "geometry.accept_ratio": "ratio",
    "measure.quadrature_s": "s",
    "measure.ball_sums_s": "s",
    "measure.ball_sum_evals": "count",
    "measure.ball_mass_s": "s",
    "measure.ball_mass_calls": "count",
    "kernels.cz_s": "s",
    "kernels.cz_triples": "count",
    "operators.direct_apply_s": "s",
    "operators.direct_apply_calls": "count",
    "operators.direct_pairs": "count",
    "operators.direct_pairs_per_s": "1/s",
    "operators.norm_s": "s",
    "operators.norm_self_s": "s",
    "operators.norm_iterations": "count",
    "operators.norm_applies": "count",
    "operators.maximal_s": "s",
    "operators.maximal_evals": "count",
    "operators.t1_s": "s",
    "operators.t1_self_s": "s",
    "operators.t1_applies": "count",
    "operators.t1_skipped": "count",
    "fastsum.build_tree_s": "s",
    "fastsum.trees_built": "count",
    "fastsum.tree_cells": "count",
    "fastsum.tree_leaves": "count",
    "fastsum.tree_depth": "count",
    "fastsum.leaf_fill": "ratio",
    "fastsum.apply_s": "s",
    "fastsum.apply_calls": "count",
    "fastsum.moments_s": "s",
    "fastsum.downward_s": "s",
    "fastsum.applies_per_tree": "ratio",
    "fastsum.max_rel_err": "ratio",
    "fastsum.ref_check_s": "s",
    "verify.self_s": "s",
    "trace.setup_s": "s",
    "trace.run_s": "s",
    "trace.unaccounted_s": "s",
    "trace.overhead_s": "s",
}
RUNG_METRICS = {
    "fastsum.nodes": "count",
    "fastsum.build_tree_s": "s",
    "fastsum.tree_cells": "count",
    "fastsum.tree_leaves": "count",
    "fastsum.tree_depth": "count",
    "fastsum.leaf_fill": "ratio",
    "fastsum.moments_s": "s",
    "fastsum.downward_s": "s",
}

# one per span name; with trace.unaccounted_s (the root spans' self time) they
# add up to trace.setup_s + trace.run_s
SELF_TIME_METRICS = (
    "geometry.generate_s",
    "geometry.packing_constant_s",
    "measure.quadrature_s",
    "measure.ball_sums_s",
    "measure.ball_mass_s",
    "kernels.cz_s",
    "operators.direct_apply_s",
    "operators.norm_self_s",
    "operators.maximal_s",
    "operators.t1_self_s",
    "fastsum.build_tree_s",
    "fastsum.moments_s",
    "fastsum.downward_s",
    "verify.self_s",
)


def per_layer_units(rung_labels):
    units = dict(PER_LAYER)
    for label in rung_labels:
        units.update({f"{name}.{label}": unit for name, unit in RUNG_METRICS.items()})
    return units


def _ratio(num, den):
    return num / den if den else 0.0


def _blas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def machine_block():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": BLAS_THREADS,
        "apply_direct_threads": APPLY_DIRECT_THREADS,
        "platform": platform.platform(),
    }


def _no_mark(label):
    pass


def check_reps(wl, inputs, outputs):
    """Gates on every rep's outputs, plus byte identity across reps."""
    gates = []
    for out in outputs:
        gates.extend(wl.gates(inputs, out))
    digests = [wl.digest(out) for out in outputs]
    gates.extend(("reps_identical", d == digests[0]) for d in digests[1:])
    return gates


def time_setups(wl, args):
    """One set-up window: returns the last inputs and every set-up's time."""
    min_reps, min_seconds = (1, 0.0) if args.tiny else (SETUP_WINDOW_REPS, SETUP_WINDOW_SECONDS)
    times = []
    while len(times) < min_reps or sum(times) < min_seconds:
        t0 = time.perf_counter()
        inputs = wl.setup(args.seed, args.tiny)
        times.append(time.perf_counter() - t0)
    return inputs, times


def timed_run(wl, args):
    inputs, setup_times = time_setups(wl, args)
    rep_times, outputs = [], []
    while not rep_times or sum(rep_times) < args.seconds:
        t0 = time.perf_counter()
        outputs.append(wl.run(inputs, _no_mark))
        rep_times.append(time.perf_counter() - t0)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_times += time_setups(wl, args)[1]
    gates = check_reps(wl, inputs, outputs)
    if wl.reference is not None:
        ref_gates, _ = wl.reference(inputs, outputs[0])
        gates.extend(ref_gates)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(rep_times),
        "peak_rss_mb": peak_mb,
    }
    info = {"setup_times_s": setup_times, "rep_times_s": rep_times}
    return metrics, END_TO_END, gates, info, None


def traced_run(wl, args, rung_labels):
    from tracing import ROOT as ROOT_SPAN, Tracer

    tracer = Tracer()
    tracer.install()
    inputs, setup_s = tracer.phase("setup", wl.setup, args.seed, args.tiny)
    tracer.uninstall()

    t0 = time.perf_counter()
    plain = wl.run(inputs, _no_mark)
    untraced_s = time.perf_counter() - t0

    def mark(label):
        tracer.tag = f"run/{label}"

    tracer.install()
    traced, run_s = tracer.phase("run", wl.run, inputs, mark)
    max_rel_err, ref_s, ref_gates = 0.0, 0.0, []
    if wl.reference is not None:
        (ref_gates, max_rel_err), ref_s = tracer.phase("ref", wl.reference, inputs, traced)
    tracer.uninstall()
    gates = check_reps(wl, inputs, [plain, traced]) + ref_gates

    self_s, incl_s, counts, applies = tracer.summary(lambda t: t.split("/")[0] in ("setup", "run"))
    trees = counts["trees_built"]
    m = {
        "geometry.generate_s": self_s["geometry.generate"],
        "geometry.packing_constant_s": self_s["geometry.packing_constant"],
        "geometry.packing_constant_calls": counts["packing_constant_calls"],
        "geometry.accept_ratio": _ratio(counts["squares_generated"], counts["packing_constant_calls"]),
        "measure.quadrature_s": self_s["measure.quadrature"],
        "measure.ball_sums_s": self_s["measure.ball_sums"],
        "measure.ball_sum_evals": counts["ball_sum_evals"],
        "measure.ball_mass_s": self_s["measure.ball_mass"],
        "measure.ball_mass_calls": counts["ball_mass_calls"],
        "kernels.cz_s": self_s["kernels.cz"],
        "kernels.cz_triples": counts["cz_triples"],
        "operators.direct_apply_s": self_s["operators.direct_apply"],
        "operators.direct_apply_calls": counts["direct_calls"],
        "operators.direct_pairs": counts["direct_pairs"],
        "operators.direct_pairs_per_s": _ratio(counts["direct_pairs"], self_s["operators.direct_apply"]),
        "operators.norm_s": incl_s["operators.norm"],
        "operators.norm_self_s": self_s["operators.norm"],
        "operators.norm_iterations": counts["norm_iterations"],
        "operators.norm_applies": applies["operators.norm"],
        "operators.maximal_s": self_s["operators.maximal"],
        "operators.maximal_evals": counts["maximal_evals"],
        "operators.t1_s": incl_s["operators.t1"],
        "operators.t1_self_s": self_s["operators.t1"],
        "operators.t1_applies": applies["operators.t1"],
        "operators.t1_skipped": counts["t1_skipped"],
        "fastsum.build_tree_s": self_s["fastsum.build_tree"],
        "fastsum.trees_built": trees,
        "fastsum.tree_cells": counts["tree_cells"],
        "fastsum.tree_leaves": counts["tree_leaves"],
        "fastsum.tree_depth": counts["tree_depth"],
        "fastsum.leaf_fill": _ratio(counts["tree_nodes"], counts["leaf_slots"]),
        "fastsum.apply_s": incl_s["fastsum.apply"],
        "fastsum.apply_calls": counts["apply_calls"],
        "fastsum.moments_s": self_s["fastsum.moments"],
        "fastsum.downward_s": self_s["fastsum.apply"],
        "fastsum.applies_per_tree": _ratio(counts["apply_calls"], trees),
        "fastsum.max_rel_err": max_rel_err,
        "fastsum.ref_check_s": ref_s,
        "verify.self_s": self_s["verify"],
        "trace.setup_s": setup_s,
        "trace.run_s": run_s,
        "trace.unaccounted_s": self_s[ROOT_SPAN],
        "trace.overhead_s": run_s - untraced_s,
    }
    for label in rung_labels:
        r_self, _, r_counts, _ = tracer.summary(lambda t, label=label: t == f"run/{label}")
        m.update(
            {
                f"fastsum.nodes.{label}": r_counts["tree_nodes"],
                f"fastsum.build_tree_s.{label}": r_self["fastsum.build_tree"],
                f"fastsum.tree_cells.{label}": r_counts["tree_cells"],
                f"fastsum.tree_leaves.{label}": r_counts["tree_leaves"],
                f"fastsum.tree_depth.{label}": r_counts["tree_depth"],
                f"fastsum.leaf_fill.{label}": _ratio(r_counts["tree_nodes"], r_counts["leaf_slots"]),
                f"fastsum.moments_s.{label}": r_self["fastsum.moments"],
                f"fastsum.downward_s.{label}": r_self["fastsum.apply"],
            }
        )
    covered = sum(m[name] for name in SELF_TIME_METRICS) + m["trace.unaccounted_s"]
    info = {
        "untraced_run_s": untraced_s,
        "accounting_error_s": covered - m["trace.setup_s"] - m["trace.run_s"],
    }
    return m, per_layer_units(rung_labels), gates, info, tracer.to_json()


def run_all(args, workloads):
    """Each workload in its own process, so none sets another's peak memory;
    the last line merges their results under ``<workload>.<metric>``."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        merged["metrics"].update({f"{name}.{m}": v for m, v in res["metrics"].items()})
    print(json.dumps(merged))
    return 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, help="a workload name, or all")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="shrink every size (quick test only)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy loads
    src = ROOT / "src"
    if not (src / "nhcz" / "__init__.py").is_file():
        print(f"benchmark: no nhcz sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.dont_write_bytecode = True
    import nhcz

    if Path(nhcz.__file__).resolve().parent != src / "nhcz":
        print(f"benchmark: imported nhcz from {nhcz.__file__}, not {src}", file=sys.stderr)
        return 2
    from workloads import RUNG_LABELS, WORKLOADS

    if args.workload == "all":
        return run_all(args, WORKLOADS)
    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or all", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    machine = machine_block()
    if args.trace:
        metrics, units, gates, info, spans = traced_run(wl, args, RUNG_LABELS)
    else:
        metrics, units, gates, info, spans = timed_run(wl, args)

    failed = [name for name, ok in gates if not ok]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "machine": machine,
        "gates": gates,
        "info": info,
        "metrics": metrics,
        "spans": spans,
    }
    mode = "trace" if args.trace else "e2e"
    with open(out_dir / f"{mode}-{args.workload}-seed{args.seed}.json", "w") as fh:
        json.dump(record, fh)

    print("machine " + json.dumps(machine, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} " + json.dumps(info, sort_keys=True))
    for name in failed:
        print(f"gate FAILED: {name}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]!r} {unit}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(gates),
                "failed": len(failed),
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Alternating benchmark pairs between two checkouts, summarized per metric.

    python3 tools/bench_pairs.py --parent ../parent --change . --workload scaling_row \
        --seed 6161 --pairs 10 --seconds 12 --out BENCH.json

Each pair runs ``benchmarks/run.py --trace 0`` once in each checkout, with
the same workload, seed and ``--seconds``; even pairs run the parent first,
odd pairs the change.  Both runs of a pair are pinned to the same CPU with
``os.sched_setaffinity`` in the child, and pair i takes the i-th of this
process's allowed CPUs in turn, so a pair compares the two sides on one
CPU and every CPU carries the same number of pairs, give or take one.  The
last stdout line of each run is its result JSON.  For every end-to-end
metric that ``BENCHMARK.json`` names, the output holds each side's values
in pair order, their median and quartiles, and how many pairs the change
won (ties count for neither), and the same medians and win counts for the
pairs of each CPU; each workload records its pairs' CPUs.  A gain holds
when the change wins at least nine tenths of all pairs and its median
beats the parent's by more than the parent's interquartile range; the
per-CPU figures do not enter it.  The output file is
rewritten after each workload.  A seed that a ``BENCH_*.json`` record in
the repository root already holds, other than ``--out``, is refused with
exit status 2, so every record's pairs run on a fresh seed.  Only the
standard library is used.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
WIN_SHARE = 0.9  # share of pairs the change must win for a gain


def quartiles(values):
    """(q1, median, q3), interpolated linearly between order statistics."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def cpu_schedule(pairs, allowed):
    """The CPU of each pair: the ``allowed`` CPUs in ascending order, in turn."""
    cpus = sorted(allowed)
    return [cpus[i % len(cpus)] for i in range(pairs)]


def _wins(parent, change, sign):
    """(change wins, parent wins) over the pairs; ties count for neither."""
    gaps = [sign * (c - p) for p, c in zip(parent, change)]
    return sum(g < 0 for g in gaps), sum(g > 0 for g in gaps)


def summarize(parent, change, better, cpus):
    """Summary of one metric's paired values (``parent[i]`` and
    ``change[i]`` ran as pair i, on CPU ``cpus[i]``); ``better`` is "lower"
    or "higher"."""
    if not len(parent) == len(change) == len(cpus) or not parent:
        raise ValueError("need the same positive number of values on each side and of CPUs")
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    out = {"better": better, "pairs": len(parent)}
    for side, values in zip(SIDES, (parent, change)):
        q1, med, q3 = quartiles(values)
        out[side] = {"values": list(values), "median": med, "q1": q1, "q3": q3}
    out["change_wins"], out["parent_wins"] = _wins(parent, change, sign)
    out["per_cpu"] = {}
    for cpu in sorted(set(cpus)):
        p, c = ([x for x, on in zip(values, cpus) if on == cpu] for values in (parent, change))
        wins = _wins(p, c, sign)
        out["per_cpu"][str(cpu)] = {
            "pairs": len(p),
            "parent_median": statistics.median(p),
            "change_median": statistics.median(c),
            "change_wins": wins[0],
            "parent_wins": wins[1],
        }
    gap = sign * (out["parent"]["median"] - out["change"]["median"])  # > 0: the change is better
    out["relative_change"] = (
        (out["change"]["median"] - out["parent"]["median"]) / out["parent"]["median"]
        if out["parent"]["median"]
        else None
    )
    out["gain_holds"] = out["change_wins"] >= WIN_SHARE * len(parent) and gap > out["parent"]["q3"] - out["parent"]["q1"]
    return out


def source_digest(checkout):
    """sha256 over the paths and bytes of every file under ``src`` and
    ``benchmarks``, so a record names the code it ran even when uncommitted."""
    h = hashlib.sha256()
    for sub in ("src", "benchmarks"):
        for path in sorted((checkout / sub).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit_of(checkout):
    """HEAD and whether tracked files differ from it, or None outside git."""
    git = ["git", "-C", str(checkout)]
    head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
    if head.returncode != 0:
        return None
    dirty = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"], capture_output=True, text=True)
    return {"head": head.stdout.strip(), "dirty": bool(dirty.stdout.strip())}


def run_once(checkout, workload, seed, seconds, cpu):
    """One end-to-end run pinned to ``cpu``: its result JSON and its
    ``machine`` line."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    pin = functools.partial(os.sched_setaffinity, 0, {cpu})  # runs in the child: pins its own process only
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, preexec_fn=pin)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    machine = next((json.loads(ln[len("machine ") :]) for ln in lines if ln.startswith("machine ")), None)
    return json.loads(lines[-1]), machine


def spent_by(root, seed, out):
    """The first ``BENCH_*.json`` in ``root``, other than ``out``, whose
    ``seed`` is ``seed``, or None."""
    for path in sorted(Path(root).glob("BENCH_*.json")):
        if path.resolve() != Path(out).resolve() and json.loads(path.read_text()).get("seed") == seed:
            return path
    return None


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--change", type=Path, required=True, help="checkout of the change")
    p.add_argument("--workload", action="append", required=True, help="a workload name; repeat for several")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    if args.pairs < 1 or args.seconds <= 0 or args.seed < 0:
        p.error("--pairs must be >= 1, --seconds > 0 and --seed >= 0")
    if (spent := spent_by(ROOT, args.seed, args.out)) is not None:
        p.error(f"--seed {args.seed} is spent: {spent} records it")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    record = {
        "seed": args.seed,
        "pairs": args.pairs,
        "seconds": args.seconds,
        "sides": {s: {"commit": commit_of(c), "source_sha256": source_digest(c)} for s, c in checkouts.items()},
        "machine": None,
        "workloads": {},
    }
    cpus = cpu_schedule(args.pairs, os.sched_getaffinity(0))
    for workload in args.workload:
        values = {s: {name: [] for name in better} for s in SIDES}
        correct = {s: True for s in SIDES}
        for i, cpu in enumerate(cpus):
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                res, machine = run_once(checkouts[side], workload, args.seed, args.seconds, cpu)
                record["machine"] = record["machine"] or machine
                correct[side] = correct[side] and res["correct"] and res["failed"] == 0
                for name in better:
                    values[side][name].append(res["metrics"][name]["value"])
            print(f"{workload} pair {i + 1}/{args.pairs} on CPU {cpu}", file=sys.stderr, flush=True)
        record["workloads"][workload] = {
            "correct": correct,
            "cpus": cpus,
            "metrics": {n: summarize(values["parent"][n], values["change"][n], b, cpus) for n, b in better.items()},
        }
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Alternating benchmark pairs between two checkouts, summarized per metric.

    python3 tools/bench_pairs.py --parent ../parent --change . --workload scaling_row \
        --seed 6161 --pairs 10 --seconds 12 --out BENCH.json

Each pair runs ``benchmarks/run.py --trace 0`` once in each checkout, with
the same workload, seed and ``--seconds``.  Both runs of a pair are pinned
to the same CPU with ``os.sched_setaffinity`` in the child, and pair i
takes the i-th of this process's allowed CPUs in turn, so a pair compares
the two sides on one CPU and every CPU carries the same number of pairs,
give or take one.  With n CPUs, pair i runs the parent first when
``i // n + i % n`` is even, so the run order flips on each CPU from one of
its pairs to the next (see ``order_schedule``).  Just before and just after
each run, ``PROBE``, a few ms of fixed pure-Python and numpy work that
imports nothing from ``nhcz``, runs as its own process pinned to the same
CPU and prints its own time.  The last stdout line of each run is its
result JSON.

For every end-to-end metric that ``BENCHMARK.json`` names, the output
holds each side's values in pair order, their median and quartiles, and
how many pairs the change won (ties count for neither); the same medians
and win counts, and the run order counts, for the pairs of each CPU; and
``probe_r``, the correlation of the pairs' log ratios (change / parent) of
the metric and of the probe, None when either is constant.  Each workload
records its pairs' CPUs and run orders, each run's probe times, and each
pair's probe ratio: the change's before-plus-after probe time over the
parent's.  A gain holds when the change wins at least nine tenths of all
pairs and its median beats the parent's by more than the parent's
interquartile range; the per-CPU and probe figures do not enter it.  The
output file is rewritten after each workload.  A seed that a
``BENCH_*.json`` record in the repository root already holds, other than
``--out``, is refused with exit status 2, so every record's pairs run on a
fresh seed.  This script uses only the standard library; the probe's own
process imports numpy.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
WIN_SHARE = 0.9  # share of pairs the change must win for a gain
# the calibration probe: fixed elementwise, matrix and interpreter work of a few ms
PROBE = """
import time
import numpy as np

t0 = time.perf_counter()
x = np.linspace(0.0, 1.0, 1 << 15)
for _ in range(20):
    x = np.sqrt(x * x + 0.5) - 0.5
a = np.full((64, 64), 0.5 + 0.25j)
for _ in range(10):
    b = a @ a
s = 0
for i in range(20_000):
    s += i * i % 7
print(time.perf_counter() - t0)
"""


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


def order_schedule(pairs, n):
    """The side each pair runs first, for pairs that take n CPUs in turn:
    the parent when ``i // n + i % n`` is even.  Consecutive pairs of one CPU
    flip the order, and so do consecutive pairs of one round."""
    return [SIDES[(i // n + i % n) % 2] for i in range(pairs)]


def probe_r(parent, change, probe_ratio):
    """Correlation of the pairs' log ratios (change / parent) of a metric
    and of the probe; None when either is constant or a value is not
    positive."""
    if min(parent + change + probe_ratio) <= 0:
        return None
    x = [math.log(c / p) for p, c in zip(parent, change)]
    y = [math.log(r) for r in probe_ratio]
    if len(set(x)) < 2 or len(set(y)) < 2:
        return None
    return statistics.correlation(x, y)


def _wins(parent, change, sign):
    """(change wins, parent wins) over the pairs; ties count for neither."""
    gaps = [sign * (c - p) for p, c in zip(parent, change)]
    return sum(g < 0 for g in gaps), sum(g > 0 for g in gaps)


def summarize(parent, change, better, cpus, first, probe_ratio):
    """Summary of one metric's paired values (``parent[i]`` and
    ``change[i]`` ran as pair i, on CPU ``cpus[i]``, side ``first[i]``
    first, with probe ratio ``probe_ratio[i]``); ``better`` is "lower" or
    "higher"."""
    if not len(parent) == len(change) == len(cpus) == len(first) == len(probe_ratio) or not parent:
        raise ValueError("need the same positive number of values on each side, CPUs, orders and probe ratios")
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
        firsts = [side for side, on in zip(first, cpus) if on == cpu]
        out["per_cpu"][str(cpu)] = {
            "pairs": len(p),
            "parent_median": statistics.median(p),
            "change_median": statistics.median(c),
            "change_wins": wins[0],
            "parent_wins": wins[1],
            "parent_first": firsts.count("parent"),
            "change_first": firsts.count("change"),
        }
    gap = sign * (out["parent"]["median"] - out["change"]["median"])  # > 0: the change is better
    out["relative_change"] = (
        (out["change"]["median"] - out["parent"]["median"]) / out["parent"]["median"]
        if out["parent"]["median"]
        else None
    )
    out["gain_holds"] = out["change_wins"] >= WIN_SHARE * len(parent) and gap > out["parent"]["q3"] - out["parent"]["q1"]
    out["probe_r"] = probe_r(list(parent), list(change), list(probe_ratio))
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


def _pinned(cmd, cpu, cwd=None):
    """``cmd`` run to completion pinned to ``cpu``; its stdout lines."""
    pin = functools.partial(os.sched_setaffinity, 0, {cpu})  # runs in the child: pins its own process only
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, preexec_fn=pin)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {cwd or '.'} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout.strip().splitlines()


def probe_once(cpu):
    """``PROBE``'s own time in seconds, run as its own process pinned to ``cpu``."""
    return float(_pinned([sys.executable, "-c", PROBE], cpu)[-1])


def run_once(checkout, workload, seed, seconds, cpu):
    """One end-to-end run pinned to ``cpu``: its result JSON and its
    ``machine`` line."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(seconds), "--trace", "0"]
    lines = _pinned(cmd, cpu, checkout)
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
    first = order_schedule(args.pairs, len(set(cpus)))
    for workload in args.workload:
        values = {s: {name: [] for name in better} for s in SIDES}
        probe = {s: {"before": [], "after": []} for s in SIDES}
        correct = {s: True for s in SIDES}
        for i, cpu in enumerate(cpus):
            for side in SIDES if first[i] == "parent" else SIDES[::-1]:
                probe[side]["before"].append(probe_once(cpu))
                res, machine = run_once(checkouts[side], workload, args.seed, args.seconds, cpu)
                probe[side]["after"].append(probe_once(cpu))
                record["machine"] = record["machine"] or machine
                correct[side] = correct[side] and res["correct"] and res["failed"] == 0
                for name in better:
                    values[side][name].append(res["metrics"][name]["value"])
            print(f"{workload} pair {i + 1}/{args.pairs} on CPU {cpu}", file=sys.stderr, flush=True)
        side_probe = {s: [b + a for b, a in zip(probe[s]["before"], probe[s]["after"])] for s in SIDES}
        probe["ratio"] = [c / p for p, c in zip(side_probe["parent"], side_probe["change"])]
        record["workloads"][workload] = {
            "correct": correct,
            "cpus": cpus,
            "first": first,
            "probe": probe,
            "metrics": {
                n: summarize(values["parent"][n], values["change"][n], b, cpus, first, probe["ratio"])
                for n, b in better.items()
            },
        }
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

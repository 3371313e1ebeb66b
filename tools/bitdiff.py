"""The output values that move between two revisions, leaf by leaf.

    python3 tools/bitdiff.py --parent HEAD~1 [--change REV] [--json moved.json]
        [--change-env NAME=VALUE ...]

Each revision is exported with ``git archive`` into a temporary directory;
the change defaults to the working tree as it stands.  Each
``--change-env NAME=VALUE`` (the flag repeats) is set in the change side's
runs only, so one revision against itself with, say,
``OPENBLAS_CORETYPE=Sandybridge`` shows which leaves hang on the kernels
numpy and OpenBLAS pick.  The committed
command matrix ``MATRIX`` then runs on each side with ``PYTHONPATH`` at
that side's ``src``, always from the same working directory, so paths
written into the reports agree.  A row is a whole interpreter argv: an
``nhcz`` command, or a probe script of this directory, which imports the
side's ``nhcz``.  Every JSON leaf and every CSV cell of
each command's output directory is compared, except ``IGNORED_KEYS``,
``IGNORED_COLUMNS`` and ``IGNORED_FILES`` (wall-clock times).  For each
command the summary gives both exit codes, the number of moved, added and
removed leaves, and the largest absolute, relative and ulp move with its
key path, after a line naming the change side's variables; ``--json``
writes the summary, those variables and every moved leaf.  Exit
status 0 means nothing moved, 1 that something did.  Only the standard
library is used.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
IGNORED_KEYS = {"runtime_s", "profile"}
IGNORED_COLUMNS = {"t_direct_ms", "t_fast_ms", "speedup"}  # bench.csv's timings
IGNORED_FILES = {"scaling_timings.csv"}

_CLI = ["-m", "nhcz.cli"]
_F16 = ["--family", "f16/family.json", "--n", "8"]  # 16 squares, 1,024 nodes: the dense backend
_F47 = ["--family", "f47/family.json", "--n", "8"]  # 47 squares, 3,008 nodes: A_I's whole-row scan
_F96 = ["--family", "f96/family.json", "--n", "8"]  # 96 squares, 6,144 nodes: above EXACT_LIMIT
# (name, interpreter arguments); each command writes into its own directory <name>
MATRIX = [
    ("f16", [*_CLI, "generate", "--M", "16", "--d", "1.2", "--packing-target", "4", "--seed", "1"]),
    ("f47", [*_CLI, "generate", "--M", "47", "--d", "1.2", "--packing-target", "4", "--seed", "1"]),
    ("f96", [*_CLI, "generate", "--M", "96", "--d", "1.2", "--packing-target", "4", "--seed", "1"]),
    ("validate", [*_CLI, "validate", "--family", "f16/family.json"]),
    *[
        (f"norm-{variant}", [*_CLI, "norm", *_F16, "--variant", variant])
        for variant in ("modified", "adjoint", "full", "local")
    ],
    ("norm-3008", [*_CLI, "norm", *_F47]),
    ("dominate", [*_CLI, "dominate", *_F16]),
    ("dominate-6144", [*_CLI, "dominate", *_F96, "--trials", "2"]),
    ("czcheck", [*_CLI, "czcheck", *_F16]),
    ("czcheck-3008", [*_CLI, "czcheck", *_F47]),
    # 144 nodes, within EXHAUSTIVE_LIMIT: the exhaustive smoothness scans
    ("czcheck-144", [*_CLI, "czcheck", "--family", "f16/family.json", "--n", "3"]),
    ("growth", [*_CLI, "growth", *_F16]),
    ("a2", [*_CLI, "a2", *_F16]),
    ("t1", [*_CLI, "t1", *_F16]),
    ("decompose", [*_CLI, "decompose", *_F16]),
    ("beurling", [*_CLI, "beurling", "--n", "16", "--trials", "2"]),
    ("scaling", [*_CLI, "scaling", "--M", "4,16", "--d", "1.2", "--n", "6"]),
    # the benchmark's scaling row: the tree backend, the ladder maximal pass
    # and 4,096 sampled targets
    ("scaling-16384", [*_CLI, "scaling", "--M", "256", "--d", "1.2", "--n", "8"]),
    # a uniform 8,192-node treecode ladder rung, whose plan has split leaves
    ("bench-8192", [*_CLI, "bench", "--sizes", "8192", "--tol", "1e-6"]),
    # every output of that rung's fast applies, as re/im leaves
    ("apply-8192", [str(ROOT / "tools" / "treecode_probe.py"), "--n", "8192"]),
    # above BENCH_DIRECT_LIMIT: its direct check sums 512 sampled targets in
    # several kernel-row blocks
    ("bench-16384", [*_CLI, "bench", "--sizes", "16384", "--tol", "1e-6"]),
    # every output of that rung's fast applies: its 537,857 far pairs take
    # 10.8 MB, past ``fastsum._FAR_CACHE_BYTES``, so each far pass decodes them
    ("apply-16384", [str(ROOT / "tools" / "treecode_probe.py"), "--n", "16384"]),
]


def ordered_bits(x: float) -> int:
    """An integer whose order is the order of the doubles, one apart for
    neighbouring doubles (-0.0 and 0.0 both map to 0)."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def same_leaf(a, b) -> bool:
    """Equal type and bits; NaNs of the same bits are equal."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return a == b


def flatten(obj, prefix="", out=None) -> dict:
    """{key path: leaf} of a parsed JSON value, "/" between keys and
    "[i]" for list items; ``IGNORED_KEYS`` are left out."""
    out = {} if out is None else out
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key not in IGNORED_KEYS:
                flatten(value, f"{prefix}/{key}", out)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            flatten(value, f"{prefix}[{i}]", out)
    else:
        out[prefix] = obj
    return out


def _cell(text):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def read_outputs(directory: Path) -> dict:
    """{key path: leaf} over every JSON and CSV file in ``directory``; a CSV
    cell's path is file[row]/column, and ``IGNORED_COLUMNS`` are left out."""
    leaves = {}
    for path in sorted(directory.rglob("*")):
        rel = path.relative_to(directory).as_posix()
        if path.name in IGNORED_FILES or not path.is_file():
            continue
        if path.suffix == ".json":
            flatten(json.loads(path.read_text()), rel, leaves)
        elif path.suffix == ".csv":
            with path.open(newline="") as fh:
                for i, row in enumerate(csv.DictReader(fh)):
                    for column, text in row.items():
                        if column not in IGNORED_COLUMNS:
                            leaves[f"{rel}[{i}]/{column}"] = _cell(text)
    return leaves


def move_of(a, b) -> dict:
    """Absolute, relative and ulp size of a move from ``a`` to ``b``; None
    where a size is not defined (a non-number, or an ulp between ints)."""
    move = {"parent": a, "change": b, "abs": None, "rel": None, "ulp": None}
    if not (_is_number(a) and _is_number(b)):
        return move
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        move["abs"] = move["rel"] = math.inf
        return move
    move["abs"] = abs(b - a)
    scale = max(abs(a), abs(b))
    move["rel"] = move["abs"] / scale if scale else 0.0
    if isinstance(move["parent"], float) or isinstance(move["change"], float):
        move["ulp"] = abs(ordered_bits(b) - ordered_bits(a))
    return move


def compare(parent: dict, change: dict, exits=(0, 0)) -> dict:
    """The moves between two {key path: leaf} trees and a command's exit
    codes (parent, change)."""
    moved = {k: move_of(parent[k], change[k]) for k in parent if k in change and not same_leaf(parent[k], change[k])}
    report = {
        "exit": list(exits),
        "exit_changed": exits[0] != exits[1],
        "leaves": len(parent),
        "moved": len(moved),
        "added": sorted(k for k in change if k not in parent),
        "removed": sorted(k for k in parent if k not in change),
        "largest": {},
        "moves": moved,
    }
    for size in ("abs", "rel", "ulp"):
        sized = [(m[size], k) for k, m in moved.items() if m[size] is not None]
        if sized:
            value, key = max(sized)
            report["largest"][size] = {"key": key, "value": value}
    return report


def anything_moved(report: dict) -> bool:
    return report["exit_changed"] or report["moved"] or report["added"] or report["removed"]


def export(rev: str, into: Path) -> Path:
    """``git archive`` of ``rev`` unpacked into ``into``."""
    into.mkdir(parents=True)
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev], capture_output=True, check=True)
    tar_path = into.with_suffix(".tar")
    tar_path.write_bytes(tar.stdout)
    with tarfile.open(tar_path) as archive:
        archive.extractall(into, filter="data")
    tar_path.unlink()
    return into


def run_matrix(checkout: Path, work: Path, extra_env=None) -> dict:
    """Run ``MATRIX`` with ``checkout``'s sources in ``work``, with the
    variables of ``extra_env`` set on top of this process's: {name: exit code}."""
    env = {**os.environ, **(extra_env or {}), "PYTHONPATH": str(checkout / "src")}
    work.mkdir(parents=True)
    exits = {}
    for name, args in MATRIX:
        cmd = [sys.executable, *args, "--out", name]
        exits[name] = subprocess.run(cmd, cwd=work, env=env, capture_output=True).returncode
    return exits


def summary_line(name: str, report: dict) -> str:
    parts = [f"{name}: exit {report['exit'][0]}/{report['exit'][1]}", f"{report['moved']} of {report['leaves']} moved"]
    if report["added"] or report["removed"]:
        parts.append(f"{len(report['added'])} added, {len(report['removed'])} removed")
    for size, largest in report["largest"].items():
        parts.append(f"max {size} {largest['value']:.3g} at {largest['key']}")
    return ", ".join(parts)


def env_assignment(text: str) -> tuple[str, str]:
    """(NAME, VALUE) of a ``--change-env NAME=VALUE`` argument."""
    name, sep, value = text.partition("=")
    if not (sep and name):
        raise argparse.ArgumentTypeError(f"expected NAME=VALUE, got {text!r}")
    return name, value


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="revision of the parent")
    p.add_argument("--change", help="revision of the change (default: the working tree)")
    p.add_argument("--json", type=Path, help="write the summary and every moved leaf here")
    p.add_argument(
        "--change-env",
        type=env_assignment,
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="set in the change side's runs only; repeatable",
    )
    args = p.parse_args(argv)
    change_env = dict(args.change_env)
    print("change-side environment: " + (" ".join(f"{k}={v}" for k, v in change_env.items()) or "as the parent's"))
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="bitdiff-") as tmp:
        tmp = Path(tmp)
        sides = {"parent": export(args.parent, tmp / "parent-src")}
        sides["change"] = ROOT if args.change is None else export(args.change, tmp / "change-src")
        exits, outputs = {}, {}
        for side, checkout in sides.items():
            exits[side] = run_matrix(checkout, tmp / "work", change_env if side == "change" else None)
            outputs[side] = (tmp / "work").rename(tmp / f"{side}-out")
        commands = {}
        for name, _ in MATRIX:
            parent, change = (read_outputs(outputs[side] / name) for side in ("parent", "change"))
            commands[name] = compare(parent, change, (exits["parent"][name], exits["change"][name]))
            print(summary_line(name, commands[name]))
    record = {
        "parent": args.parent,
        "change": args.change or "working tree",
        "change_env": change_env,
        "matrix_s": round(time.perf_counter() - t0, 1),
        "commands": commands,
    }
    print(f"matrix wall time {record['matrix_s']} s")
    if args.json:
        args.json.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 1 if any(anything_moved(r) for r in commands.values()) else 0


if __name__ == "__main__":
    sys.exit(main())

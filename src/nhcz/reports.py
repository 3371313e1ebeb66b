"""Report containers, deterministic serialization and atomic artifact
writers.

Reports serialize to canonical JSON (sorted keys, compact separators, a
trailing newline) so a rerun with the same inputs and seeds reproduces them
byte for byte; the wall-clock field is the single exception and is excluded
from that contract.  Every artifact is written to a temporary file and
moved into place, so a failed write leaves any old file untouched.

Imports no other nhcz module, so ``geometry`` and every later module can
use it without an import cycle.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import tempfile
from contextlib import contextmanager
from dataclasses import asdict, dataclass, is_dataclass

import numpy as np

SCHEMA = "nhcz/1"


def jsonable(obj):
    """Recursively convert report payloads to plain JSON types."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, complex):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, np.complexfloating):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if hasattr(obj, "to_json_dict"):
        return jsonable(obj.to_json_dict())
    if is_dataclass(obj):
        return jsonable(asdict(obj))
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def canonical_json(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":")) + "\n"


def family_digest(family) -> str:
    return hashlib.sha256(canonical_json(family.to_json_dict()).encode()).hexdigest()


@dataclass
class VerificationReport:
    check: str
    inputs: dict
    constants: dict
    witnesses: dict
    thresholds: dict
    passed: bool
    runtime_s: float
    schema: str = SCHEMA

    def to_json_dict(self, include_runtime: bool = True) -> dict:
        out = {
            "schema": self.schema,
            "check": self.check,
            "inputs": jsonable(self.inputs),
            "constants": jsonable(self.constants),
            "witnesses": jsonable(self.witnesses),
            "thresholds": jsonable(self.thresholds),
            "passed": self.passed,
        }
        if include_runtime:
            out["runtime_s"] = self.runtime_s
        return out


@contextmanager
def atomic_open(path, newline=None):
    """Text handle on a temporary file beside ``path``.

    A clean exit moves the file onto ``path``; an exception removes it and
    leaves any existing ``path`` untouched.
    """
    path = os.fspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)) or ".")
    try:
        with os.fdopen(fd, "w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json_atomic(path, obj) -> None:
    with atomic_open(path) as fh:
        fh.write(canonical_json(obj))


def write_csv_atomic(path, header, rows) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

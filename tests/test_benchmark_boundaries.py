"""The benchmark tracer wraps nhcz functions by name; a rename or removal
would silently drop a layer from ``--trace 1``, so every boundary it lists
must resolve."""

import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


def _boundaries():
    # executed from its source so nothing is written next to it
    namespace = {"__name__": "benchmark_tracing"}
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), namespace)
    return namespace["BOUNDARIES"]


BOUNDARIES = _boundaries()


@pytest.mark.parametrize("module,attr", [(m, a) for _, m, a, _ in BOUNDARIES], ids=lambda v: v)
def test_traced_boundary_resolves_in_nhcz(module, attr):
    assert module == "nhcz" or module.startswith("nhcz.")
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)

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


@pytest.mark.parametrize("n_per_side,fast", [(4, False), (8, True)], ids=["528-nodes", "2112-nodes"])
def test_traced_operator_constructors_stay_on_the_check_path(monkeypatch, n_per_side, fast):
    """The check's backend switch calls the constructors the tracer wraps,
    so they stay live rather than becoming dead aliases."""
    from nhcz import verify
    from nhcz.geometry import generate_family

    calls = {"_direct_apply_pair": 0, "_fast_apply_pair": 0}

    def counting(name):
        original = getattr(verify, name)

        def constructor(family, cloud):
            calls[name] += 1
            return original(family, cloud)

        return constructor

    for name in calls:
        monkeypatch.setattr(verify, name, counting(name))
    fam = generate_family(seed=5, count=33, d=1.2, packing_target=4.0, k_range=(4, 6))
    assert (len(fam) * n_per_side**2 > verify.FAST_NODE_THRESHOLD) is fast
    for name, value in (("MAIN_TRIALS", 1), ("MAIN_NORM_TOL", 1e-4), ("MAIN_NORM_MAX_ITER", 3)):
        monkeypatch.setattr(verify, name, value)
    report = verify.check_main_inequality(fam, n_per_side=n_per_side, seed=2)
    assert report.inputs["fast"] is fast
    assert calls == {"_direct_apply_pair": int(not fast), "_fast_apply_pair": int(fast)}

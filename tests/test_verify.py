import math

import numpy as np
import pytest

from nhcz.geometry import DyadicSquare, SquareFamily, generate_family
from nhcz.kernels import KernelSpec, kernel_eval
from nhcz.measure import build_measure, build_quadrature
from nhcz.operators import Field, apply_direct, operator_norm
from nhcz import verify
from nhcz.fastsum import _COLUMN_BLOCK
from nhcz.reports import VerificationReport, canonical_json, family_digest, jsonable
from nhcz.verify import (
    FAST_NODE_THRESHOLD,
    SCALING_HEADER,
    annulus_index,
    check_decomposition,
    check_domination,
    check_main_inequality,
    scaling_study,
)


def test_decomposition_identity_random_fields():
    fam = generate_family(seed=1, count=6, d=1.3, packing_target=4.0, k_range=(2, 4))
    report = check_decomposition(fam, n_per_side=4, trials=5, seed=0)
    assert report.passed
    assert report.constants["max_rel_deviation"] <= 1e-12


def test_decomposition_single_square_full_equals_local():
    fam = SquareFamily.build([DyadicSquare(0, 0, 0)], 1.0, 4.0)
    cloud = build_quadrature(build_measure(fam), 4)
    rng = np.random.default_rng(0)
    f = Field(rng.standard_normal(len(cloud)) + 1j * rng.standard_normal(len(cloud)), "mu")
    full = apply_direct(KernelSpec("full", fam), cloud, f).values
    loc = apply_direct(KernelSpec("local", fam), cloud, f).values
    assert np.array_equal(full, loc)
    report = check_decomposition(fam, n_per_side=4, trials=2, seed=1)
    assert report.passed


def test_decomposition_delta_field_machine_exact():
    fam = generate_family(seed=3, count=3, d=0.8, packing_target=4.0, k_range=(2, 3))
    cloud = build_quadrature(build_measure(fam), 3)
    vals = np.zeros(len(cloud), dtype=np.complex128)
    vals[2] = 1.0
    f = Field(vals, "mu")
    lhs = apply_direct(KernelSpec("full", fam), cloud, f).values
    rhs = (
        apply_direct(KernelSpec("modified", fam), cloud, f).values
        + apply_direct(KernelSpec("local", fam), cloud, f).values
    )
    assert np.abs(lhs - rhs).max() <= 1e-15 * np.abs(lhs).max()


def test_domination_single_square_zero():
    fam = SquareFamily.build([DyadicSquare(0, 0, 0)], 1.0, 4.0)
    report = check_domination(fam, n_per_side=4, trials=2, seed=0)
    assert report.passed
    assert report.constants["c_dom"] == 0.0


def test_domination_constants_and_audits():
    fam = generate_family(seed=4, count=10, d=1.2, packing_target=4.0, k_range=(2, 5))
    report = check_domination(fam, n_per_side=4, trials=3, seed=1)
    assert report.passed
    assert math.isfinite(report.constants["c_dom"]) and report.constants["c_dom"] > 0
    assert report.constants["min_annulus_index"] >= 2
    assert report.constants["containment_violations"] == 0
    assert report.constants["partition_ok"] and report.constants["reconstruction_ok"]
    annuli = report.witnesses["annuli"]
    assert annuli, "expected a per-annulus breakdown at the witness"
    assert all(a["a"] >= 2 for a in annuli)
    assert sum(a["member_count"] for a in annuli) == len(fam) - 1
    for a in annuli:
        assert a["ball_mass_3R_a"] >= a["ball_mass_R_a"] >= 0


def test_domination_applies_its_fields_in_column_blocks(monkeypatch):
    widths = []

    def recording_pair(family, cloud):
        mod, adj = direct_pair(family, cloud)

        def recorded_adj(f):
            widths.append(f.values.shape[1])
            return adj(f)

        return mod, recorded_adj

    direct_pair = verify._direct_apply_pair
    monkeypatch.setattr(verify, "_direct_apply_pair", recording_pair)
    fam = generate_family(seed=4, count=10, d=1.2, packing_target=4.0, k_range=(2, 5))
    report = check_domination(fam, n_per_side=4, trials=3, seed=1)
    assert report.passed
    # 3 uniforms, 10 square indicators and 3 deltas, at most a block per apply
    assert sum(widths) == 16 and max(widths) == _COLUMN_BLOCK < 16


def test_annulus_index_matches_float_oracle():
    fam = generate_family(seed=7, count=8, d=1.0, packing_target=4.0, k_range=(2, 5))
    for j in range(len(fam)):
        (cjx, cjy), lj = fam.squares[j].center, fam.squares[j].side
        for i in range(len(fam)):
            if i == j:
                continue
            a = annulus_index(fam, j, i)
            (cix, ciy), _ = fam.squares[i].center, fam.squares[i].side
            dist = max(abs(cix - cjx), abs(ciy - cjy))
            assert dist <= 2.0 ** (a + 1) * lj / 2 + 1e-12
            assert dist > 2.0**a * lj / 2 - 1e-12


def test_main_inequality_two_square_dense_oracle():
    fam = SquareFamily.build([DyadicSquare(0, 0, 0), DyadicSquare(0, 6, 1)], 1.2, 16.0)
    cloud = build_quadrature(build_measure(fam), 2)
    report = check_main_inequality(fam, n_per_side=2, trials=6, seed=0, tol=1e-10, max_iter=5000)
    assert report.passed
    # dense decomposition of the weighted adjoint-kernel matrix
    n = len(cloud)
    a = np.zeros((n, n), dtype=np.complex128)
    spec = KernelSpec("adjoint", fam)
    for p in range(n):
        for q in range(n):
            if p != q:
                a[p, q] = kernel_eval(spec, cloud.z[p], cloud.z[q]) * cloud.mu_weight[q]
    b = np.diag(np.sqrt(cloud.mu_weight)) @ a @ np.diag(1.0 / np.sqrt(cloud.mu_weight))
    sigma_ref = float(np.linalg.svd(b, compute_uv=False)[0])
    assert report.constants["sigma_max"] == pytest.approx(sigma_ref, abs=1e-8)
    assert report.constants["max_field_ratio"] <= report.constants["sigma_max_sq"] + 1e-10


def test_main_inequality_fast_norm_matches_dense():
    fam = generate_family(seed=5, count=33, d=1.2, packing_target=4.0, k_range=(4, 6))
    cloud = build_quadrature(build_measure(fam), 8)
    assert len(cloud) > FAST_NODE_THRESHOLD
    report = check_main_inequality(fam, n_per_side=8, trials=2, seed=2, tol=1e-4)
    assert report.inputs["fast"] is True
    assert report.passed
    dense = operator_norm(KernelSpec("adjoint", fam), cloud, tol=1e-4, seed=2, threads=2)
    assert report.constants["sigma_max"] == pytest.approx(dense.sigma_max, rel=1e-5)


def test_main_inequality_single_square_zero():
    fam = SquareFamily.build([DyadicSquare(0, 0, 0)], 1.0, 4.0)
    report = check_main_inequality(fam, n_per_side=3, trials=3, seed=0)
    assert report.passed
    assert report.constants["sigma_max"] == 0.0


def test_reports_reproducible_modulo_runtime():
    fam = generate_family(seed=5, count=5, d=1.1, packing_target=4.0, k_range=(2, 4))
    a = check_domination(fam, n_per_side=3, trials=2, seed=9)
    b = check_domination(fam, n_per_side=3, trials=2, seed=9)
    assert a.to_json(include_runtime=False) == b.to_json(include_runtime=False)
    c = check_main_inequality(fam, n_per_side=3, trials=2, seed=9)
    d = check_main_inequality(fam, n_per_side=3, trials=2, seed=9)
    assert c.to_json(include_runtime=False) == d.to_json(include_runtime=False)


def test_scaling_study_rows_and_determinism():
    rows1, t1 = scaling_study(d=1.2, packing_target=4.0, m_ladder=[2, 4], n_per_side=3, seed=7)
    rows2, t2 = scaling_study(d=1.2, packing_target=4.0, m_ladder=[2, 4], n_per_side=3, seed=7)
    assert rows1 == rows2
    assert len(rows1) == 2 and len(rows1[0]) == len(SCALING_HEADER)
    for row in rows1:
        assert row[2] is True  # complete
        assert float(row[6]) <= 4.0  # c_pack within target
        assert math.isfinite(float(row[8]))


def test_scaling_single_square_row_zero_operator():
    rows, _ = scaling_study(d=1.0, packing_target=4.0, m_ladder=[1], n_per_side=3, seed=0)
    row = rows[0]
    assert float(row[8]) == 0.0  # sigma_max
    assert float(row[10]) == 0.0  # c_dom
    assert float(row[12]) == 0.0 and float(row[13]) == 0.0  # t1 sups


def test_family_digest_tracks_content():
    fam = generate_family(seed=2, count=4, d=1.0, packing_target=4.0, k_range=(2, 4))
    d1 = family_digest(fam)
    assert d1 == family_digest(fam)
    other = generate_family(seed=3, count=4, d=1.0, packing_target=4.0, k_range=(2, 4))
    assert d1 != family_digest(other)


def test_jsonable_handles_numpy_and_complex():
    obj = {
        "a": np.float64(1.5),
        "b": np.int32(3),
        "c": 1 + 2j,
        "d": np.arange(3),
        "e": (DyadicSquare(1, 2, 3),),
        "f": np.bool_(True),
    }
    out = jsonable(obj)
    assert out["a"] == 1.5 and out["b"] == 3
    assert out["c"] == {"re": 1.0, "im": 2.0}
    assert out["d"] == [0, 1, 2]
    assert out["e"] == [{"k": 1, "i": 2, "j": 3}]
    assert out["f"] is True
    assert canonical_json(obj).endswith("\n")
    with pytest.raises(TypeError):
        jsonable(object())

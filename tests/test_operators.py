import math

import numpy as np
import pytest

from nhcz.geometry import DyadicSquare, SquareFamily, generate_family
from nhcz.kernels import KernelSpec, kernel_eval
from nhcz.measure import BallQuery, ball_mass, build_measure, build_quadrature
from nhcz.operators import (
    Field,
    adjoint_apply_direct,
    apply_direct,
    apply_direct_targets,
    beurling_multiplier,
    beurling_spectral,
    default_t1_balls,
    export_field_csv,
    field_inner,
    field_norm,
    grid_field,
    load_field_csv,
    maximal_function,
    operator_norm,
    power_iteration,
    t1_testing,
)


from oracles import apply_bruteforce, beurling_dft_bruteforce, maximal_bruteforce, weighted_sigma_max


def small_family(seed=2, count=2, d=1.2, n=4):
    fam = generate_family(seed=seed, count=count, d=d, packing_target=4.0, k_range=(2, 4))
    return fam, build_quadrature(build_measure(fam), n)


def test_apply_single_square_adjoint_is_zero():
    fam = SquareFamily.build([DyadicSquare(0, 0, 0)], 1.0, 4.0)
    cloud = build_quadrature(build_measure(fam), 3)
    f = Field(np.arange(1, 10, dtype=np.complex128), "mu")
    out = apply_direct(KernelSpec("adjoint", fam), cloud, f)
    assert np.all(out.values == 0)


def test_apply_delta_input_is_one_kernel_eval():
    fam, cloud = small_family()
    q = 5
    vals = np.zeros(len(cloud), dtype=np.complex128)
    vals[q] = 1.0
    out = apply_direct(KernelSpec("modified", fam), cloud, Field(vals, "mu"))
    for p in range(len(cloud)):
        if p == q:
            continue
        expected = kernel_eval(KernelSpec("modified", fam), cloud.z[p], cloud.z[q]) * cloud.mu_weight[q]
        assert out.values[p] == pytest.approx(expected, rel=1e-13, abs=1e-300)


@pytest.mark.parametrize("variant", ["full", "modified", "adjoint", "local"])
def test_apply_direct_matches_bruteforce(variant):
    fam, cloud = small_family(seed=4, count=2, n=4)  # 32 nodes
    rng = np.random.default_rng(7)
    f = Field(rng.standard_normal(len(cloud)) + 1j * rng.standard_normal(len(cloud)), "mu")
    spec = KernelSpec(variant, fam)
    got = apply_direct(spec, cloud, f).values
    ref = apply_bruteforce(spec, cloud, f)
    scale = np.abs(ref).max()
    assert np.abs(got - ref).max() <= 1e-14 * max(scale, 1.0)


def test_apply_direct_threads_bitwise_identical():
    fam, cloud = small_family(seed=6, count=3, n=4)
    rng = np.random.default_rng(1)
    f = Field(rng.standard_normal(len(cloud)) + 1j * rng.standard_normal(len(cloud)), "mu")
    spec = KernelSpec("modified", fam)
    a = apply_direct(spec, cloud, f, block=16, threads=1).values
    b = apply_direct(spec, cloud, f, block=16, threads=3).values
    assert np.array_equal(a, b)


@pytest.mark.parametrize("variant", ["full", "modified", "adjoint", "local"])
def test_apply_direct_targets_subset(variant):
    fam, cloud = small_family(seed=8, count=2, n=3)
    rng = np.random.default_rng(2)
    f = Field(rng.standard_normal(len(cloud)) + 1j * rng.standard_normal(len(cloud)), "mu")
    spec = KernelSpec(variant, fam)
    full = apply_direct(spec, cloud, f).values
    rows = np.array([0, 3, 7, 11])
    assert np.array_equal(apply_direct_targets(spec, cloud, f, rows), full[rows])


def test_apply_rejects_mismatched_lengths():
    fam, cloud = small_family()
    with pytest.raises(ValueError):
        apply_direct(KernelSpec("full", fam), cloud, Field(np.zeros(3), "mu"))


def test_maximal_constant_field_saturates_at_one():
    fam, cloud = small_family(seed=3, count=3, n=3)
    mf = maximal_function(cloud, Field(np.ones(len(cloud)), "mu"))
    assert np.all(mf.values.real <= 1.0 + 1e-12)
    assert mf.values.real.max() == pytest.approx(1.0, rel=1e-12)


def test_maximal_delta_matches_bruteforce():
    fam, cloud = small_family(seed=5, count=2, n=3)
    vals = np.zeros(len(cloud), dtype=np.complex128)
    vals[4] = 2.0
    f = Field(vals, "mu")
    got = maximal_function(cloud, f).values.real
    ref = maximal_bruteforce(cloud, f)
    assert np.abs(got - ref).max() <= 1e-12 * max(ref.max(), 1.0)


def test_maximal_random_matches_bruteforce():
    fam, cloud = small_family(seed=9, count=3, n=3)
    rng = np.random.default_rng(3)
    f = Field(rng.uniform(0, 1, len(cloud)).astype(np.complex128), "mu")
    got = maximal_function(cloud, f).values.real
    ref = maximal_bruteforce(cloud, f)
    assert np.abs(got - ref).max() <= 1e-12 * max(ref.max(), 1.0)


@pytest.mark.parametrize("d", [0.8, 1.2, 1.6])
def test_maximal_ladder_mode_matches_bruteforce(d):
    # exact_limit=0 sends every cloud through the radius-ladder engine
    fam, cloud = small_family(seed=4, count=4, d=d, n=4)
    rng = np.random.default_rng(7)
    f = Field(rng.standard_normal(len(cloud)) + 1j * rng.standard_normal(len(cloud)), "mu")
    got = maximal_function(cloud, f, exact_limit=0).values.real
    ref = maximal_bruteforce(cloud, f, exact_limit=0)
    assert np.abs(got - ref).max() <= 1e-12 * ref.max()


def test_maximal_rejects_bad_dilation():
    fam, cloud = small_family()
    with pytest.raises(ValueError):
        maximal_function(cloud, Field(np.ones(len(cloud)), "mu"), kappa=0.5)


def test_power_iteration_identity_seam():
    w = np.full(3, 0.7)
    est = power_iteration(lambda v: v, lambda v: v, w, 3, tol=1e-12, max_iter=50, seed=0)
    assert est.sigma_max == pytest.approx(1.0, abs=1e-12)
    assert est.converged


def test_operator_norm_zero_operator():
    fam = SquareFamily.build([DyadicSquare(0, 0, 0)], 1.0, 4.0)
    cloud = build_quadrature(build_measure(fam), 3)
    est = operator_norm(KernelSpec("modified", fam), cloud, seed=1)
    assert est.sigma_max == 0.0
    assert est.converged


def test_operator_norm_matches_dense_svd():
    fam, cloud = small_family(seed=1, count=2, n=2)  # 8 nodes
    for variant in ("modified", "adjoint"):
        spec = KernelSpec(variant, fam)
        est = operator_norm(spec, cloud, tol=1e-13, max_iter=3000, seed=2)
        assert est.sigma_max == pytest.approx(weighted_sigma_max(spec, cloud), abs=1e-8)


def test_operator_norm_modified_equals_adjoint():
    fam, cloud = small_family(seed=10, count=3, n=3)
    a = operator_norm(KernelSpec("modified", fam), cloud, tol=1e-12, max_iter=2000, seed=0)
    b = operator_norm(KernelSpec("adjoint", fam), cloud, tol=1e-12, max_iter=2000, seed=1)
    assert a.sigma_max == pytest.approx(b.sigma_max, rel=1e-6)


@pytest.mark.parametrize("variant", ["full", "modified", "adjoint", "local"])
def test_mu_adjointness(variant):
    fam, cloud = small_family(seed=11, count=3, n=3)
    spec = KernelSpec(variant, fam)
    rng = np.random.default_rng(4)
    for _ in range(5):
        f = Field(rng.standard_normal(len(cloud)) + 1j * rng.standard_normal(len(cloud)), "mu")
        g = Field(rng.standard_normal(len(cloud)) + 1j * rng.standard_normal(len(cloud)), "mu")
        lhs = field_inner(cloud, apply_direct(spec, cloud, f), g)
        rhs = field_inner(cloud, f, adjoint_apply_direct(spec, cloud, g))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_rayleigh_history_nondecreasing():
    fam, cloud = small_family(seed=14, count=3, n=3)
    est = operator_norm(KernelSpec("adjoint", fam), cloud, tol=1e-12, max_iter=300, seed=3)
    hist = est.rayleigh_history
    assert all(b >= a - 1e-12 * max(a, 1.0) for a, b in zip(hist, hist[1:]))


def unit_grid_cloud(n):
    fam = SquareFamily.build([DyadicSquare(0, 0, 0)], 1.0, 4.0)
    return build_quadrature(build_measure(fam), n)


def test_beurling_single_mode_passthrough():
    n = 8
    cloud = unit_grid_cloud(n)
    xs = np.arange(n) / n
    g = np.exp(2j * np.pi * xs)[None, :] * np.ones((n, 1))  # mode (kx=1, ky=0)
    out = beurling_multiplier(g)
    assert np.abs(out - g).max() <= 1e-12


def test_beurling_constant_annihilated():
    out = beurling_multiplier(np.full((8, 8), 3.0 + 1.0j))
    assert np.abs(out).max() <= 1e-13


def test_beurling_zero_mean_isometry():
    rng = np.random.default_rng(6)
    g = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    g -= g.mean()
    out = beurling_multiplier(g)
    assert np.linalg.norm(out) / np.linalg.norm(g) == pytest.approx(1.0, abs=1e-12)


def test_beurling_matches_dft_double_loop():
    n = 6
    rng = np.random.default_rng(8)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    out = beurling_multiplier(g)
    ref = beurling_dft_bruteforce(g)
    assert np.abs(out - ref).max() <= 1e-12 * max(np.abs(ref).max(), 1.0)


def test_beurling_spectral_validates_cloud():
    cloud = unit_grid_cloud(8)
    f = Field(np.ones(64), "m2")
    out = beurling_spectral(cloud, f)
    assert np.abs(out.values).max() <= 1e-13
    odd = unit_grid_cloud(7)
    with pytest.raises(ValueError):
        beurling_spectral(odd, Field(np.ones(49), "m2"))
    fam, two = small_family()
    with pytest.raises(ValueError):
        grid_field(two, Field(np.ones(len(two)), "m2"))


def test_t1_single_square_zero():
    fam = SquareFamily.build([DyadicSquare(0, 0, 0)], 1.0, 4.0)
    cloud = build_quadrature(build_measure(fam), 4)
    rep = t1_testing(KernelSpec("modified", fam), cloud, seed=0)
    assert rep.sup_t == 0.0 and rep.sup_t_adjoint == 0.0


def test_t1_matches_bruteforce_on_full_ball():
    fam, cloud = small_family(seed=15, count=2, n=3)
    lo = cloud.xy.min(axis=0)
    hi = cloud.xy.max(axis=0)
    c = (lo + hi) / 2
    ball = BallQuery(float(c[0]), float(c[1]), float(np.hypot(*(hi - lo))) + 1.0)
    rep = t1_testing(KernelSpec("modified", fam), cloud, balls=[ball])
    chi = Field(np.ones(len(cloud), dtype=np.complex128), "mu")
    for spec, got in [(KernelSpec("modified", fam), rep.sup_t), (KernelSpec("adjoint", fam), rep.sup_t_adjoint)]:
        tv = apply_bruteforce(spec, cloud, chi)
        ref = float(np.sum(cloud.mu_weight * np.abs(tv) ** 2)) / ball_mass(cloud, ball)
        assert got == pytest.approx(ref, rel=1e-12)


def test_t1_skips_zero_mass_balls():
    fam, cloud = small_family(seed=16, count=2, n=2)
    balls = [BallQuery(-100.0, -100.0, 0.001), BallQuery(float(cloud.xy[0, 0]), float(cloud.xy[0, 1]), 1.0)]
    rep = t1_testing(KernelSpec("modified", fam), cloud, balls=balls)
    assert rep.skipped == 1
    assert rep.n_balls == 2


def test_default_t1_balls_independent_of_refinement():
    fam, _ = small_family(seed=17, count=4)
    a = default_t1_balls(fam, seed=5)
    b = default_t1_balls(fam, seed=5)
    assert a == b


def test_field_csv_roundtrip(tmp_path):
    f = Field(np.array([1 + 2j, -0.5 + 0j, 3.25 - 1e-9j]), "mu")
    path = tmp_path / "field.csv"
    export_field_csv(f, path)
    g = load_field_csv(path)
    assert np.array_equal(f.values, g.values)

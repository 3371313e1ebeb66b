"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single PASS line on success so a verbose run reads as a
checklist.  Budgets are asserted where the criterion pins one.
"""

import statistics
import time

import numpy as np
import pytest

from oracles import (
    apply_bruteforce,
    beurling_dft_bruteforce,
    cz_enumeration,
    fit_cost_exponent,
    maximal_bruteforce,
    weighted_sigma_max,
)

from nhcz.fastsum import ExpansionParams, apply_fast, build_tree
from nhcz.geometry import (
    DyadicSquare,
    check_disjointness,
    generate_cascade_family,
    generate_family,
    packing_constant,
    suggest_generation_range,
)
from nhcz.kernels import KernelSpec, cz_constants
from nhcz.measure import (
    BallQuery,
    a2_constant,
    ball_mass,
    build_measure,
    build_quadrature,
    growth_constant,
)
from nhcz.operators import (
    Field,
    beurling_multiplier,
    default_t1_balls,
    Operator,
    field_norm,
    maximal_function,
    t1_testing,
)
from nhcz.verify import benchmark, check_decomposition, check_domination, scaling_study

D_VALUES = (0.8, 1.2, 1.6)


def test_criterion_01_admissibility_exactness():
    t0 = time.perf_counter()
    mutations = 0
    for seed in range(1000):
        count = 2 + (seed % 63)
        d = D_VALUES[seed % 3]
        fam = generate_family(
            seed=seed,
            count=count,
            d=d,
            packing_target=4.0,
            k_range=suggest_generation_range(count, d, 4.0),
        )
        assert fam.complete, (seed, count, d)
        assert check_disjointness(fam.squares).ok
        c, _ = packing_constant(fam.squares, d)
        assert c <= 4.0
        assert c == fam.c_pack
        if seed % 25 == 0:
            # move one square flush against another: the exact checker must object
            squares = list(fam.squares)
            victim = 1 + (seed % (len(squares) - 1))
            anchor = squares[0]
            squares[victim] = DyadicSquare(anchor.k, anchor.i + 1, anchor.j)
            verdict = check_disjointness(squares)
            assert not verdict.ok, (seed, victim)
            mutations += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1: PASS - 1000 generated families exact-admissible, "
          f"{mutations} adversarial mutations caught, {elapsed:.1f}s")


def test_criterion_02_decomposition_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        count = 2 + seed
        d = D_VALUES[seed % 3]
        fam = generate_family(seed=100 + seed, count=count, d=d, packing_target=4.0,
                              k_range=(2, 5))
        report = check_decomposition(fam, n_per_side=4, trials=2, seed=seed)
        assert report.passed
        worst = max(worst, report.constants["max_rel_deviation"])
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-12
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2: PASS - decomposition identity on 20 fields / 10 families, "
          f"max rel deviation {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_uniform_norm_bound():
    t0 = time.perf_counter()
    summary = []
    for d in D_VALUES:
        rows, _ = scaling_study(d=d, packing_target=4.0, m_ladder=[4, 16, 64, 256],
                                n_per_side=8, seed=0)
        sigmas = [float(r[8]) for r in rows]
        assert all(r[9] for r in rows), f"non-converged norm estimate at d={d}"
        ratio = max(sigmas) / statistics.median(sigmas)
        assert ratio <= 1.25, (d, sigmas)
        summary.append(f"d={d}: max/median={ratio:.3f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"criterion 3 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 3: PASS - operator norm uniform over M in {{4,16,64,256}} "
          f"({'; '.join(summary)}), {elapsed:.1f}s")


def test_criterion_04_pointwise_domination():
    t0 = time.perf_counter()
    fam = generate_family(seed=21, count=24, d=1.2, packing_target=4.0, k_range=(3, 6))
    values = []
    for seed in range(20):
        report = check_domination(fam, n_per_side=6, trials=2, seed=seed)
        assert report.passed
        c = report.constants["c_dom"]
        assert np.isfinite(c) and c > 0
        assert report.constants["min_annulus_index"] >= 2
        assert report.constants["containment_violations"] == 0
        values.append(c)
    spread = max(values) / min(values)
    assert spread < 2.0, values
    # audits hold on other generated families too
    for seed, count, d in [(22, 8, 0.8), (23, 12, 1.6)]:
        rep = check_domination(
            generate_family(seed=seed, count=count, d=d, packing_target=4.0, k_range=(2, 5)),
            n_per_side=4,
            trials=1,
            seed=0,
        )
        assert rep.passed and np.isfinite(rep.constants["c_dom"])
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0, f"criterion 4 took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 4: PASS - domination constant finite, 20-seed spread "
          f"{spread:.3f}x < 2x, annulus audits clean, {elapsed:.1f}s")


def test_criterion_05_cz_conditions():
    t0 = time.perf_counter()
    # sampled path: stability under budget doubling at three smoothness levels
    fam = generate_family(seed=30, count=8, d=1.2, packing_target=4.0, k_range=(2, 4))
    cloud = build_quadrature(build_measure(fam), 8)  # 512 nodes
    spec = KernelSpec("modified", fam)
    for tau in (0.3, 0.6, 0.9):
        r1 = cz_constants(spec, cloud, tau=tau, budget=150_000, seed=1)
        r2 = cz_constants(spec, cloud, tau=tau, budget=300_000, seed=1)
        for lo, hi in [(r1.a_i, r2.a_i), (r1.a_ii, r2.a_ii), (r1.a_iii, r2.a_iii)]:
            assert np.isfinite(lo) and np.isfinite(hi)
            assert abs(hi - lo) <= 0.10 * max(hi, lo), (tau, lo, hi)
        assert r1.iii2_counterexamples == 0 and r2.iii2_counterexamples == 0
    # small instance: the scan must equal independent exhaustive enumeration
    small = generate_family(seed=31, count=12, d=1.2, packing_target=4.0, k_range=(2, 5))
    scloud = build_quadrature(build_measure(small), 4)  # 192 nodes <= 200
    assert len(scloud) <= 200
    for tau in (0.3, 0.6, 0.9):
        rep = cz_constants(KernelSpec("modified", small), scloud, tau=tau)
        assert rep.exhaustive
        a1, a2, a3 = cz_enumeration(KernelSpec("modified", small), scloud, tau)
        assert rep.a_i == pytest.approx(a1, rel=1e-13)
        assert rep.a_ii == pytest.approx(a2, rel=1e-13)
        assert rep.a_iii == pytest.approx(a3, rel=1e-13)
        assert rep.iii2_counterexamples == 0
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 5: PASS - condition constants stable under budget doubling "
          f"(<10%), exhaustive equality at 192 nodes, audits clean, {elapsed:.1f}s")


def test_criterion_06_maximal_operator_and_t1():
    t0 = time.perf_counter()
    fam = generate_family(seed=40, count=12, d=1.1, packing_target=4.0, k_range=(2, 5))
    cloud = build_quadrature(build_measure(fam), 6)
    rng = np.random.default_rng(0)
    ratios = []
    for _ in range(50):
        f = Field(rng.standard_normal(len(cloud)) + 1j * rng.standard_normal(len(cloud)), "mu")
        ratios.append(field_norm(cloud, maximal_function(cloud, f)) / field_norm(cloud, f))
    ratios = np.array(ratios)
    assert np.all(np.isfinite(ratios))
    bound_ratio = float(ratios.max() / np.median(ratios))
    assert bound_ratio <= 1.5, bound_ratio
    # testing-condition suprema stay put under quadrature refinement
    balls = default_t1_balls(fam, seed=3, max_balls=24)
    r1 = t1_testing(build_quadrature(build_measure(fam), 4), balls)
    r2 = t1_testing(build_quadrature(build_measure(fam), 8), balls)
    for lo, hi in [(r1.sup_t, r2.sup_t), (r1.sup_t_adjoint, r2.sup_t_adjoint)]:
        assert np.isfinite(lo) and np.isfinite(hi) and hi > 0
        assert abs(hi - lo) <= 0.10 * max(hi, lo)
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 6: PASS - maximal-operator ratios max/median {bound_ratio:.3f} "
          f"<= 1.5 over 50 fields; testing sups drift < 10% under n -> 2n, {elapsed:.1f}s")


def test_criterion_07_spectral_isometry():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(5):
        g = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        g -= g.mean()
        out = beurling_multiplier(g)
        worst = max(worst, abs(np.linalg.norm(out) / np.linalg.norm(g) - 1.0))
    assert worst <= 1e-12
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 7: PASS - spectral multiplier preserves the norm of "
          f"zero-mean 256x256 fields to {worst:.2e}, {elapsed:.1f}s")


def test_criterion_08_growth_and_a2_stability():
    t0 = time.perf_counter()
    lines = []
    for seed, count, d in [(50, 5, 0.8), (51, 6, 1.2), (52, 5, 1.6)]:
        fam = generate_family(seed=seed, count=count, d=d, packing_target=4.0, k_range=(2, 4))
        c1 = build_quadrature(build_measure(fam), 16)
        c2 = build_quadrature(build_measure(fam), 32)
        g1, _ = growth_constant(c1)
        g2, _ = growth_constant(c2)
        a1, _ = a2_constant(c1)
        a2v, _ = a2_constant(c2)
        for lo, hi in [(g1, g2), (a1, a2v)]:
            assert np.isfinite(lo) and np.isfinite(hi) and hi > 0
            assert abs(hi - lo) <= 0.05 * max(hi, lo), (d, lo, hi)
        lines.append(f"d={d}: growth {abs(g2-g1)/max(g1,g2):.1%}, a2 {abs(a2v-a1)/max(a1,a2v):.1%}")
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 8: PASS - growth and disc-ratio constants finite, refinement "
          f"drift < 5% ({'; '.join(lines)}), {elapsed:.1f}s")


def test_criterion_09_fast_summation():
    t0 = time.perf_counter()
    rows = benchmark([2048, 8192, 32768, 100_000], ExpansionParams(order=12, theta=0.5), seed=0)
    assert all(r.max_rel_err <= 1e-6 for r in rows), [(r.n, r.max_rel_err) for r in rows]
    assert rows[-1].n >= 100_000
    exponent = fit_cost_exponent([r.n for r in rows], [r.t_fast_ms for r in rows])
    assert exponent < 1.5, exponent
    # oracle equality once the truncated tail is below machine precision
    fam = generate_family(seed=60, count=6, d=1.2, packing_target=4.0, k_range=(2, 4))
    cloud = build_quadrature(build_measure(fam), 6)
    tree = build_tree(cloud, 16)
    rng = np.random.default_rng(1)
    f = Field(rng.standard_normal(len(cloud)) + 1j * rng.standard_normal(len(cloud)), "mu")
    params = ExpansionParams(order=16, theta=0.1)
    assert params.theta**params.order < 1e-15
    from nhcz.operators import apply_direct

    spec = KernelSpec("modified", fam)
    fast = apply_fast(spec, tree, f, params).values
    direct = apply_direct(spec, cloud, f).values
    tiny_err = float(np.abs(fast - direct).max() / np.abs(direct).max())
    assert tiny_err <= 1e-12
    elapsed = time.perf_counter() - t0
    worst = max(r.max_rel_err for r in rows)
    print(f"\nACCEPTANCE 9: PASS - fast summation error <= {worst:.2e} up to "
          f"{rows[-1].n} nodes, cost exponent {exponent:.2f} < 1.5, tiny-theta "
          f"equality {tiny_err:.2e}, {elapsed:.1f}s")


def test_criterion_10_small_instance_oracles():
    t0 = time.perf_counter()
    from nhcz.operators import apply_direct

    fam = generate_family(seed=70, count=4, d=1.3, packing_target=4.0, k_range=(2, 4))
    cloud = build_quadrature(build_measure(fam), 4)  # 64 nodes
    assert len(cloud) == 64
    rng = np.random.default_rng(2)
    f = Field(rng.standard_normal(len(cloud)) + 1j * rng.standard_normal(len(cloud)), "mu")
    for variant in ("full", "modified", "adjoint", "local"):
        spec = KernelSpec(variant, fam)
        got = apply_direct(spec, cloud, f).values
        ref = apply_bruteforce(spec, cloud, f)
        scale = max(float(np.abs(ref).max()), 1.0)
        assert np.abs(got - ref).max() <= 1e-12 * scale, variant
    nn = Field(rng.uniform(0, 1, len(cloud)).astype(np.complex128), "mu")
    got = maximal_function(cloud, nn).values.real
    ref = maximal_bruteforce(cloud, nn)
    assert np.abs(got - ref).max() <= 1e-12 * ref.max()
    for variant in ("modified", "adjoint"):
        spec = KernelSpec(variant, fam)
        est = Operator(cloud, "dense").norm(variant, 1e-13, 5000, 3)
        assert est.sigma_max == pytest.approx(weighted_sigma_max(spec, cloud), abs=1e-8)
    ball = BallQuery(0.5, 0.5, 100.0)
    rep = t1_testing(cloud, balls=[ball])
    chi = Field(np.ones(len(cloud), dtype=np.complex128), "mu")
    mass = ball_mass(cloud, ball)
    for spec, got_value in [
        (KernelSpec("modified", fam), rep.sup_t),
        (KernelSpec("adjoint", fam), rep.sup_t_adjoint),
    ]:
        tv = apply_bruteforce(spec, cloud, chi)
        ref_value = float(np.sum(cloud.mu_weight * np.abs(tv) ** 2)) / mass
        assert got_value == pytest.approx(ref_value, rel=1e-12)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    out = beurling_multiplier(g)
    ref = beurling_dft_bruteforce(g)
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 10: PASS - every operator operation matches its brute-force "
          f"oracle on a 64-node cloud, {elapsed:.1f}s")

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhcz.geometry import DyadicSquare, SquareFamily, generate_family, suggest_generation_range
from nhcz.kernels import KernelSpec, kernel_eval
from nhcz.measure import BallQuery, ball_mass, build_measure, build_quadrature, dyadic_radius_ladder
from nhcz import operators
from nhcz.fastsum import ExpansionParams, apply_fast, build_tree
from nhcz.operators import (
    FAST_NODE_THRESHOLD,
    Field,
    Operator,
    _maximal_many,
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
from nhcz.verify import _domination_fields

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


def test_apply_direct_threads_bitwise_identical(monkeypatch):
    fam, cloud = small_family(seed=6, count=3, n=4)
    rng = np.random.default_rng(1)
    f = Field(rng.standard_normal(len(cloud)) + 1j * rng.standard_normal(len(cloud)), "mu")
    spec = KernelSpec("modified", fam)
    monkeypatch.setattr(operators, "_TARGET_BLOCK", 16)
    a = apply_direct(spec, cloud, f, threads=1).values
    b = apply_direct(spec, cloud, f, threads=3).values
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
def test_maximal_ladder_mode_matches_bruteforce(monkeypatch, d):
    # EXACT_LIMIT = 0 sends every cloud through the radius-ladder engine
    fam, cloud = small_family(seed=4, count=4, d=d, n=4)
    rng = np.random.default_rng(7)
    f = Field(rng.standard_normal(len(cloud)) + 1j * rng.standard_normal(len(cloud)), "mu")
    monkeypatch.setattr(operators, "EXACT_LIMIT", 0)
    got = maximal_function(cloud, f).values.real
    ref = maximal_bruteforce(cloud, f, exact_limit=0)
    assert np.abs(got - ref).max() <= 1e-12 * ref.max()


def test_maximal_many_fields_match_single_field_runs():
    # blocks of 7 targets split the cloud unevenly; no field may see another's sums
    fam, cloud = small_family(seed=9, count=3, n=3)
    rng = np.random.default_rng(5)
    fields = [Field(rng.standard_normal(len(cloud)) + 1j * rng.standard_normal(len(cloud)), "mu") for _ in range(4)]
    targets = np.arange(1, len(cloud), 2)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "_TARGET_BLOCK", 7)
        many = _maximal_many(cloud, fields, targets=targets)
    assert len(many) == len(fields)
    for f, got in zip(fields, many):
        assert np.array_equal(got, _maximal_many(cloud, [f], targets=targets)[0])
        assert np.array_equal(got, maximal_function(cloud, f).values.real[targets])


def test_exact_maximal_memory_holds_one_block():
    # the 1152-node domination cloud of a 32-square family with its 39 fields
    fam = generate_family(seed=0, count=32, d=0.8, packing_target=4.0, k_range=suggest_generation_range(32, 0.8, 4.0))
    cloud = build_quadrature(build_measure(fam), 6)
    fields = [f for _, f in _domination_fields(cloud, 4, 0)]
    assert (len(cloud), len(fields)) == (1152, 39)
    tracemalloc.start()
    try:
        _maximal_many(cloud, fields)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # memory is bounded by the ball-sum engine's scratch for one block of 256
    # targets (its bins, and at most 2^16 straddling nodes times 40 weight
    # rows: 21 MB), the block's squared distances (256 * 1152 * 8 B = 2.4 MB)
    # and one target's refined prefix (its sorted nodes and the refined
    # fields' prefix sums, at most 39 * 1152 * 8 B = 0.36 MB)
    assert peak < 48 * 2**20


def test_margin_covers_the_rounding_gap_at_the_exact_limit():
    # the bound _MARGIN's comment derives: 4 gamma_N + 2u at N = EXACT_LIMIT,
    # gamma_N = N u / (1 - N u), u = 2^-53, in exact rational arithmetic
    u = Fraction(1, 2**53)
    nu = operators.EXACT_LIMIT * u
    assert Fraction(operators._MARGIN) >= 4 * nu / (1 - nu) + 2 * u


def aligned_row_cloud(k=2, columns=(0, 1, 3), n=4, d=1.2):
    """Same-level squares along one row.  With n a power of two every node
    coordinate is dyadic, so the distances along a row are exact multiples
    of the finest spacing, the ladder's base: some lie exactly on a ladder
    radius and some exactly on 1.5 or 3 times another node distance."""
    fam = SquareFamily.build([DyadicSquare(k, c, 0) for c in columns], d, 4.0)
    return build_quadrature(build_measure(fam), n)


@st.composite
def maximal_cases(draw):
    """A small cloud, one to three sparse, delta or square-indicator fields,
    a dilation, a target subset and a target block size."""
    if draw(st.booleans()):
        k_lo = draw(st.integers(0, 3))
        fam = generate_family(
            seed=draw(st.integers(0, 2**16)),
            count=draw(st.integers(1, 4)),
            d=draw(st.sampled_from([0.3, 1.0, 1.7])),
            packing_target=8.0,
            k_range=(k_lo, k_lo + draw(st.integers(0, 2))),
        )
        cloud = build_quadrature(build_measure(fam), draw(st.sampled_from([1, 2, 3, 4])))
    else:
        columns = draw(st.lists(st.integers(0, 5), min_size=1, max_size=3, unique=True))
        cloud = aligned_row_cloud(draw(st.integers(0, 3)), columns, draw(st.sampled_from([2, 4])))
    n = len(cloud)
    nodes = st.integers(0, n - 1)
    fields = []
    for kind in draw(st.lists(st.sampled_from(["sparse", "delta", "indicator"]), min_size=1, max_size=3)):
        vals = np.zeros(n, dtype=np.complex128)
        if kind == "sparse":
            for p, v in draw(st.lists(st.tuples(nodes, st.floats(-8.0, 8.0)), min_size=1, max_size=6)):
                vals[p] = v
        elif kind == "delta":
            vals[draw(nodes)] = 1.0
        else:
            vals[cloud.square_index == draw(st.integers(0, len(cloud.family) - 1))] = 1.0
        fields.append(Field(vals, "mu"))
    targets = np.array(sorted(draw(st.sets(nodes, min_size=1))), dtype=np.int64)
    return cloud, fields, draw(st.sampled_from([1.0, 1.5, 3.0])), targets, draw(st.integers(1, n))


@given(maximal_cases())
@settings(max_examples=60)
@example((aligned_row_cloud(), [Field(np.eye(48)[5], "mu")], 3.0, np.arange(48), 7))
@example((aligned_row_cloud(), [Field(np.eye(48)[17], "mu")], 1.5, np.arange(0, 48, 3), 256))
def test_exact_maximal_matches_bruteforce(case):
    cloud, fields, kappa, targets, block = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "KAPPA", kappa)
        mp.setattr(operators, "_TARGET_BLOCK", block)
        got = _maximal_many(cloud, fields, targets=targets)
    for f, values in zip(fields, got):
        ref = maximal_bruteforce(cloud, f, kappa)[targets]
        assert np.abs(values - ref).max() <= 1e-12 * ref.max()


def test_aligned_row_has_distances_on_ladder_and_dilated_radii():
    cloud = aligned_row_cloud()
    d2 = ((cloud.xy[:, None, :] - cloud.xy[None, :, :]) ** 2).sum(axis=2)
    ladder2 = dyadic_radius_ladder(cloud, base=cloud.finest_spacing) ** 2
    assert np.isin(ladder2, d2).sum() >= 3
    for kappa in (1.5, 3.0):
        assert np.isin(kappa * kappa * d2[0, 1:], d2[0]).any()


def test_exact_maximal_dominates_ladder_mode(monkeypatch):
    # the exact candidate set contains the ladder's, up to rounding
    fam = generate_family(seed=70, count=4, d=1.3, packing_target=4.0, k_range=(2, 4))
    cloud = build_quadrature(build_measure(fam), 4)
    rng = np.random.default_rng(2)
    fields = [f for _, f in _domination_fields(cloud, 2, 0)]
    fields.append(Field(rng.standard_normal(len(cloud)) + 1j * rng.standard_normal(len(cloud)), "mu"))
    for kappa in (1.0, 1.5, 3.0):
        monkeypatch.setattr(operators, "KAPPA", kappa)
        for f in fields:
            exact = maximal_function(cloud, f).values.real
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(operators, "EXACT_LIMIT", 0)
                ladder = maximal_function(cloud, f).values.real
            assert np.all(exact >= ladder * (1.0 - 1e-12))


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
def test_mu_adjointness(monkeypatch, variant):
    fam, cloud = small_family(seed=11, count=3, n=3)
    spec = KernelSpec(variant, fam)
    op = Operator(cloud, "dense")
    reference = (lambda f: apply_direct(spec, cloud, f), lambda g: adjoint_apply_direct(spec, cloud, g))
    dense = (lambda f: op.apply(variant, f), lambda g: op.adjoint(variant, g))
    # the on-the-fly reference, then the dense Operator on its matrix and on its blocked sums
    for threshold, (apply_fn, adjoint_fn) in [(FAST_NODE_THRESHOLD, reference), (FAST_NODE_THRESHOLD, dense), (0, dense)]:
        monkeypatch.setattr(operators, "FAST_NODE_THRESHOLD", threshold)
        rng = np.random.default_rng(4)
        for _ in range(5):
            f = Field(rng.standard_normal(len(cloud)) + 1j * rng.standard_normal(len(cloud)), "mu")
            g = Field(rng.standard_normal(len(cloud)) + 1j * rng.standard_normal(len(cloud)), "mu")
            lhs = field_inner(cloud, apply_fn(f), g)
            rhs = field_inner(cloud, f, adjoint_fn(g))
            assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("seed,count,n", [(4, 10, 4), (5, 5, 3)])
def test_tree_operator_matches_apply_fast_bit_for_bit(seed, count, n):
    fam = generate_family(seed=seed, count=count, d=1.2, packing_target=4.0, k_range=(2, 5))
    cloud = build_quadrature(build_measure(fam), n)
    params = ExpansionParams()
    tree = build_tree(cloud, params.leaf_cap)
    op = Operator(cloud, "tree")
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((len(cloud), 3)) + 1j * rng.standard_normal((len(cloud), 3))
    for v in (vals, vals[:, 1]):
        f = Field(v, "mu")
        for variant, partner in [("modified", "adjoint"), ("adjoint", "modified")]:
            forward = apply_fast(KernelSpec(variant, fam), tree, f, params).values
            assert np.array_equal(op.apply(variant, f).values, forward)
            conj = np.conj(apply_fast(KernelSpec(partner, fam), tree, Field(np.conj(v), "mu"), params).values)
            assert np.array_equal(op.adjoint(variant, f).values, conj)
    built = op._tree
    op.apply("modified", Field(vals, "mu"))
    assert op._tree is built  # one tree serves every apply


@pytest.mark.parametrize("variant", ["full", "local"])
def test_tree_operator_rejects_uncompressed_variants(variant):
    fam, cloud = small_family()
    op = Operator(cloud, "tree")
    f = Field(np.ones(len(cloud)), "mu")
    with pytest.raises(ValueError):
        op.apply(variant, f)
    with pytest.raises(ValueError):
        op.adjoint(variant, f)
    with pytest.raises(ValueError):
        Operator(cloud, "sparse")


def test_dense_operator_keeps_one_matrix_slot(monkeypatch):
    fam, cloud = small_family(seed=6, count=3, n=4)
    assembled = []
    assemble = operators.kernel_matrix

    def counting_assemble(cloud, mode, *args, **kwargs):
        assembled.append(mode)
        return assemble(cloud, mode, *args, **kwargs)

    monkeypatch.setattr(operators, "kernel_matrix", counting_assemble)
    op = Operator(cloud, "dense")
    assert op._kernel is None and assembled == []
    f = Field(np.arange(len(cloud), dtype=np.complex128), "mu")
    op.apply("modified", f)
    op.adjoint("adjoint", f)
    first = op._kernel[1]
    assert assembled == ["cross_square"] and op._kernel[0] == "cross_square"
    op.apply("full", f)
    assert assembled == ["cross_square", "off_diagonal"] and op._kernel[0] == "off_diagonal"
    assert op._kernel[1] is not first
    op.adjoint("full", f)
    op.apply("modified", f)
    assert assembled == ["cross_square", "off_diagonal", "cross_square"]


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

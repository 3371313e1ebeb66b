import dataclasses

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nhcz import fastsum, operators
from nhcz.fastsum import ExpansionParams, apply_fast, build_tree
from nhcz.geometry import DyadicSquare, SquareFamily, generate_family, suggest_generation_range
from nhcz.kernels import (
    VARIANT_RULES,
    CzReport,
    KernelSpec,
    _size_bounds,
    _size_scan,
    cz_constants,
    kernel_block,
    kernel_values,
    target_scale,
)
from nhcz.measure import build_measure, build_quadrature
from nhcz.operators import Field, Operator, apply_direct

from oracles import (
    assert_same_bits,
    cauchy_square_block_reference,
    kernel_block_reference,
    kernel_eval,
    locate_square,
    size_scan_rows,
)


def two_unit_squares(gap=8, d=1.0):
    return SquareFamily.build([DyadicSquare(0, 0, 0), DyadicSquare(0, gap, 0)], d, 16.0)


def test_locate_square_half_open():
    fam = two_unit_squares()
    assert locate_square(fam, 0.0, 0.0) == 0
    assert locate_square(fam, 0.999, 0.5) == 0
    assert locate_square(fam, 1.0, 0.5) is None
    assert locate_square(fam, 8.5, 0.25) == 1


def test_modified_same_square_is_zero():
    spec = KernelSpec("modified", two_unit_squares())
    assert kernel_eval(spec, 0.25 + 0.25j, 0.75 + 0.75j) == 0j


def test_modified_cross_square_value():
    spec = KernelSpec("modified", two_unit_squares())
    v = kernel_eval(spec, 8.5 + 0.5j, 0.5 + 0.5j)
    assert v == pytest.approx(1.0 / 64.0)  # unit side, distance 8


def test_full_kernel_imaginary_offset():
    fam = SquareFamily.build([DyadicSquare(-2, 0, 0)], 1.0, 4.0)  # side-4 square
    spec = KernelSpec("full", fam)
    assert kernel_eval(spec, 1.0 + 2.0j, 1.0 + 1.0j) == pytest.approx(-1.0)


def test_kernel_eval_rejects_outside_and_singular():
    fam = two_unit_squares()
    with pytest.raises(ValueError):
        kernel_eval(KernelSpec("full", fam), 3.0 + 0j, 0.5 + 0.5j)
    with pytest.raises(ValueError):
        kernel_eval(KernelSpec("full", fam), 0.5 + 0.5j, 0.5 + 0.5j)
    with pytest.raises(ValueError):
        kernel_eval(KernelSpec("local", fam), 0.5 + 0.5j, 0.5 + 0.5j)
    # structurally-zero cases stay fine at coincident or cross pairs
    assert kernel_eval(KernelSpec("modified", fam), 0.5 + 0.5j, 0.5 + 0.5j) == 0j
    assert kernel_eval(KernelSpec("local", fam), 0.5 + 0.5j, 8.5 + 0.5j) == 0j


def test_adjoint_is_transposed_modified():
    fam = generate_family(seed=3, count=5, d=1.3, packing_target=4.0, k_range=(2, 4))
    mod = KernelSpec("modified", fam)
    adj = KernelSpec("adjoint", fam)
    rng = np.random.default_rng(0)
    pts = []
    for sq in fam.squares:
        (cx, cy), side = sq.center, sq.side
        for _ in range(8):
            pts.append(complex(cx + side * (rng.random() - 0.5) * 0.9, cy + side * (rng.random() - 0.5) * 0.9))
    for _ in range(200):
        x, y = rng.choice(pts), rng.choice(pts)
        assert kernel_eval(adj, x, y) == kernel_eval(mod, y, x)


def test_pointwise_decomposition_identity():
    fam = generate_family(seed=5, count=4, d=0.9, packing_target=4.0, k_range=(2, 4))
    full = KernelSpec("full", fam)
    mod = KernelSpec("modified", fam)
    loc = KernelSpec("local", fam)
    rng = np.random.default_rng(1)
    pts = []
    for sq in fam.squares:
        (cx, cy), side = sq.center, sq.side
        for _ in range(10):
            pts.append((complex(cx + side * (rng.random() - 0.5) * 0.9, cy + side * (rng.random() - 0.5) * 0.9), sq))
    checked = 0
    while checked < 200:
        (x, _), (y, sq_y) = rng.choice(pts), rng.choice(pts)
        if x == y:
            continue
        t = kernel_eval(full, x, y)
        k = kernel_eval(mod, x, y)
        t0 = kernel_eval(loc, x, y)
        assert abs(t - (t0 + sq_y.side ** (-fam.d) * k)) <= 1e-14 * max(abs(t), 1.0)
        checked += 1


def test_kernel_values_match_scalar_eval():
    fam = generate_family(seed=9, count=3, d=1.5, packing_target=4.0, k_range=(2, 3))
    cloud = build_quadrature(build_measure(fam), 2)
    for variant in VARIANT_RULES:
        spec = KernelSpec(variant, fam)
        rows = kernel_values(spec, cloud, np.arange(len(cloud))[:, None], slice(None))
        for p in range(len(cloud)):
            for q in range(len(cloud)):
                if p == q:
                    assert rows[p, q] == 0j
                    continue
                zp = complex(cloud.xy[p, 0], cloud.xy[p, 1])
                zq = complex(cloud.xy[q, 0], cloud.xy[q, 1])
                assert rows[p, q] == pytest.approx(kernel_eval(spec, zp, zq), rel=1e-14, abs=1e-300)


def reference_cloud():
    # 144 nodes: not a multiple of 7, and with near blocks at leaf cap 4
    fam = generate_family(seed=0, count=16, d=1.2, packing_target=4.0, k_range=suggest_generation_range(16, 1.2, 4.0))
    return fam, build_quadrature(build_measure(fam), 3)


@pytest.mark.parametrize("mode", ["off_diagonal", "same_square", "cross_square"])
def test_kernel_blocks_match_allocating_reference(mode):
    """The in-place blocks carry the bits of the allocating formula, and a
    kernel value has one bit pattern at any shape: each upper strip the
    dense operator caches, and ``kernel_values`` at rows against all nodes,
    at a scalar target in every square and at scattered pairs, each against
    the reference times side^d, and the target scale at each such scalar
    target against its array call.  The reference takes side^d over the whole
    side array, so a scalar index must give the array's power bits (a numpy
    scalar's ``**`` calls the C library's pow, which differs from numpy's
    array pow on 3 of the 40 powers 2^-1 ... 2^-40 at d = 1.2 on an AVX512
    host, 2^-6 among them, a side this cloud holds)."""
    fam, cloud = reference_cloud()
    n, nn = len(cloud), cloud.n_per_side**2
    ref = cauchy_square_block_reference(cloud, np.arange(n), mode)
    op = Operator(cloud, "dense")
    op.apply(next(v for v, (m, _) in VARIANT_RULES.items() if m == mode), Field(np.ones(n), "mu"))
    cached = op._strips[1]
    block = operators._ROW_BLOCK
    assert sorted(cached) == list(range(0, n, block))
    for s, strip in cached.items():
        assert_same_bits(strip, ref[s : s + block, s:])
        assert_same_bits(strip, kernel_block(cloud, mode, np.arange(s, min(s + block, n))[:, None], slice(s, None)))
    rng = np.random.default_rng(3)
    p, q = rng.integers(0, n, 4000), rng.integers(0, n, 4000)
    p[:n], q[:n] = np.arange(n), np.arange(n)  # coincident pairs too
    pairs = kernel_block_reference(cloud, mode, p, q)
    raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)  # sums for the target scale
    side = np.power(cloud.square_sides[cloud.square_index], fam.d) if mode == "cross_square" else np.ones(n)
    rows, cols = np.arange(1, n, 4), np.arange(n)
    for variant in [v for v, (m, _) in VARIANT_RULES.items() if m == mode]:
        spec = KernelSpec(variant, fam)
        side_of = lambda p, q: side[p if spec.rule[1] else q]  # the source's side, or the target's
        got = kernel_values(spec, cloud, rows[:, None], slice(None))
        assert_same_bits(got, ref[rows] * side_of(rows[:, None], cols))
        for t in range(0, n, nn):
            assert_same_bits(kernel_values(spec, cloud, t, slice(None)), ref[t] * side_of(t, cols))
            assert_same_bits(target_scale(cloud, raw[t], True, targets=t), target_scale(cloud, raw, True)[t])
        assert_same_bits(kernel_values(spec, cloud, p, q), pairs * side_of(p, q))


def _squares_cloud(squares, d, n):
    return build_quadrature(build_measure(SquareFamily.build([DyadicSquare(*sq) for sq in squares], d, 64.0)), n)


# The dense sweep sums every mode's kernel over its upper triangle only.  A
# mode added to VARIANT_RULES must be listed here, and so tested for the
# symmetry the sweep relies on, before the sweep may sum it.
SYMMETRIC_MODES = ("off_diagonal", "same_square", "cross_square")


@st.composite
def symmetry_clouds(draw):
    """A generated family of 1 to 6 squares at n = 1 to 4 (one-node squares
    at n = 1), with up to 8 nodes moved onto other nodes, in the same
    square or another one."""
    k_lo = draw(st.integers(0, 4))
    fam = generate_family(
        seed=draw(st.integers(0, 2**16)),
        count=draw(st.integers(1, 6)),
        d=draw(st.floats(0.1, 1.95)),
        packing_target=8.0,
        k_range=(k_lo, k_lo + draw(st.integers(0, 3))),
    )
    cloud = build_quadrature(build_measure(fam), draw(st.integers(1, 4)))
    nodes = st.integers(0, len(cloud) - 1)
    xy = cloud.xy.copy()
    for p, q in draw(st.lists(st.tuples(nodes, nodes), max_size=8)):
        xy[p] = xy[q]
    return dataclasses.replace(cloud, xy=xy, z=xy[:, 0] + 1j * xy[:, 1])


def test_every_exclusion_mode_is_listed_as_symmetric():
    assert {mode for mode, _ in VARIANT_RULES.values()} == set(SYMMETRIC_MODES)


@given(symmetry_clouds())
@example(_squares_cloud([(0, 0, 0)], 1.3, 1))
@example(_squares_cloud([(2, 1, 1), (2, 1, 3), (2, 1, 2), (2, 2, 1)], 1.5, 2))
def test_kernel_block_is_bitwise_symmetric(cloud):
    n, first = len(cloud), len(cloud) // 2
    for mode in SYMMETRIC_MODES:
        # cross_square keeps a coincident pair of two squares, which disjoint
        # squares never hold: its entry is not finite, and still symmetric
        with np.errstate(divide="ignore", invalid="ignore"):
            kernel = kernel_block(cloud, mode, np.arange(n)[:, None], slice(None))
            strip = kernel_block(cloud, mode, np.arange(first, n)[:, None], slice(first, None))
        assert_same_bits(kernel, np.ascontiguousarray(kernel.T))
        assert_same_bits(strip, kernel[first:, first:])  # a strip from any first column has the same bits


@pytest.mark.parametrize("variant", list(VARIANT_RULES))
@pytest.mark.parametrize("block", [7, None])
def test_apply_direct_matches_allocating_reference(monkeypatch, variant, block):
    """Strips of 7 end in a short strip; the reused strip buffer must give
    the bits of a fresh allocating strip each.  The dense ``Operator`` runs
    these sums without its strip cache above the threshold."""
    fam, cloud = reference_cloud()
    rng = np.random.default_rng(4)
    f = Field(rng.standard_normal((len(cloud), 2)) + 1j * rng.standard_normal((len(cloud), 2)), "mu")
    spec = KernelSpec(variant, fam)
    if block is not None:
        monkeypatch.setattr(operators, "_ROW_BLOCK", block)
    monkeypatch.setattr(operators, "FAST_NODE_THRESHOLD", len(cloud) - 1)
    got = Operator(cloud, "dense").apply(variant, f).values
    monkeypatch.setattr(operators, "kernel_block", kernel_block_reference)
    assert_same_bits(got, apply_direct(spec, cloud, f).values)


@pytest.mark.parametrize("variant", ["modified", "adjoint"])
def test_near_sums_match_allocating_reference(monkeypatch, variant):
    fam, cloud = reference_cloud()
    params = ExpansionParams(order=4, theta=0.5, leaf_cap=4)
    tree = build_tree(cloud, params.leaf_cap)
    assert tree.plan(params.theta).near_start.size > 0
    f = Field(np.random.default_rng(5).standard_normal(len(cloud)) + 0j, "mu")
    spec = KernelSpec(variant, fam)
    got = apply_fast(spec, tree, f, params).values
    monkeypatch.setattr(fastsum, "kernel_block", kernel_block_reference)
    assert_same_bits(got, apply_fast(spec, tree, f, params).values)


def test_cz_single_square_all_zero():
    fam = SquareFamily.build([DyadicSquare(0, 0, 0)], 1.0, 4.0)
    cloud = build_quadrature(build_measure(fam), 4)
    rep = cz_constants(KernelSpec("modified", fam), cloud, tau=0.5)
    assert rep.a_i == rep.a_ii == rep.a_iii == 0.0
    assert rep.iii2_counterexamples == 0


def test_cz_epsilon_convention():
    fam = two_unit_squares(d=1.2)
    cloud = build_quadrature(build_measure(fam), 1)
    rep = cz_constants(KernelSpec("modified", fam), cloud, tau=0.5)
    assert rep.s == pytest.approx(0.8)
    assert rep.epsilon == pytest.approx(0.6)
    rep = cz_constants(KernelSpec("modified", fam), cloud, tau=0.9)
    assert rep.epsilon == 1.0  # capped


def _cz_bruteforce(spec, cloud, tau):
    """Independent triple-loop enumeration of the three condition constants."""
    d = spec.d
    s = 2.0 - d
    eps = min(1.0, tau * d)
    n = len(cloud)
    z = cloud.z
    sq = cloud.square_index
    side = cloud.square_sides[cloud.square_index]

    def kval(p, q):
        if sq[p] == sq[q]:
            return np.complex128(0.0)
        dz = z[p] - z[q]
        return np.complex128(side[q] ** d) / (dz * dz)

    a1 = a2 = a3 = 0.0
    for p in range(n):
        for q in range(n):
            dist = abs(z[p] - z[q])
            if dist > 0:
                a1 = max(a1, abs(kval(p, q)) * dist**s)
    for y in range(n):
        for x in range(n):
            dxy = abs(z[x] - z[y])
            if dxy == 0:
                continue
            for x2 in range(n):
                dxx = abs(z[x] - z[x2])
                if 0 < dxx <= 0.5 * dxy:
                    a2 = max(a2, abs(kval(x, y) - kval(x2, y)) * dxy ** (s + eps) / dxx**eps)
    for x in range(n):
        for y in range(n):
            dxy = abs(z[x] - z[y])
            if dxy == 0:
                continue
            for y2 in range(n):
                dyy = abs(z[y] - z[y2])
                if 0 < dyy <= 0.5 * dxy:
                    a3 = max(a3, abs(kval(x, y) - kval(x, y2)) * dxy ** (s + eps) / dyy**eps)
    return a1, a2, a3


def test_cz_two_squares_matches_bruteforce():
    fam = SquareFamily.build([DyadicSquare(0, 0, 0), DyadicSquare(0, 5, 2)], 1.2, 16.0)
    cloud = build_quadrature(build_measure(fam), 4)  # 32 nodes
    spec = KernelSpec("modified", fam)
    rep = cz_constants(spec, cloud, tau=0.5)
    assert rep.exhaustive
    a1, a2, a3 = _cz_bruteforce(spec, cloud, 0.5)
    assert rep.a_i == pytest.approx(a1, rel=1e-13)
    assert rep.a_ii == pytest.approx(a2, rel=1e-13)
    assert rep.a_iii == pytest.approx(a3, rel=1e-13)
    assert rep.iii2_counterexamples == 0


def test_cz_sampled_path_stability_and_audit():
    fam = generate_family(seed=12, count=6, d=1.1, packing_target=4.0, k_range=(2, 4))
    cloud = build_quadrature(build_measure(fam), 7)  # 294 nodes > exhaustive limit
    spec = KernelSpec("modified", fam)
    rep1 = cz_constants(spec, cloud, tau=0.6, budget=60_000, seed=3)
    rep2 = cz_constants(spec, cloud, tau=0.6, budget=120_000, seed=3)
    assert not rep1.exhaustive
    assert rep1.iii2_counterexamples == 0 and rep2.iii2_counterexamples == 0
    for lo, hi in [(rep1.a_ii, rep2.a_ii), (rep1.a_iii, rep2.a_iii)]:
        assert np.isfinite(hi) and hi > 0
        assert abs(hi - lo) <= 0.10 * max(hi, lo)
    # size constant is scanned exhaustively over pairs in both runs
    assert rep1.a_i == rep2.a_i


@pytest.mark.parametrize("exhaustive", [True, False], ids=["exhaustive", "sampled"])
def test_cz_witnesses_attain_constants(exhaustive):
    if exhaustive:  # the 32-node two-square cloud
        fam = SquareFamily.build([DyadicSquare(0, 0, 0), DyadicSquare(0, 5, 2)], 1.2, 16.0)
        cloud = build_quadrature(build_measure(fam), 4)
        rep = cz_constants(KernelSpec("modified", fam), cloud, tau=0.5)
    else:  # the 294-node sampled cloud
        fam = generate_family(seed=12, count=6, d=1.1, packing_target=4.0, k_range=(2, 4))
        cloud = build_quadrature(build_measure(fam), 7)
        rep = cz_constants(KernelSpec("modified", fam), cloud, tau=0.6, budget=60_000, seed=3)
    assert rep.exhaustive == exhaustive
    spec, z, s, eps = KernelSpec("modified", fam), cloud.z, rep.s, rep.epsilon

    def k(p, q):
        return kernel_eval(spec, complex(z[p]), complex(z[q]))

    def dist(p, q):
        return abs(z[p] - z[q])

    x, y = rep.witness_i
    assert abs(k(x, y)) * dist(x, y) ** s == pytest.approx(rep.a_i, rel=1e-13)
    x, x2, y = rep.witness_ii
    assert 0 < dist(x, x2) <= dist(x, y) / 2
    ratio = abs(k(x, y) - k(x2, y)) * dist(x, y) ** (s + eps) / dist(x, x2) ** eps
    assert ratio == pytest.approx(rep.a_ii, rel=1e-13)
    x, y, y2 = rep.witness_iii
    assert 0 < dist(y, y2) <= dist(x, y) / 2
    ratio = abs(k(x, y) - k(x, y2)) * dist(x, y) ** (s + eps) / dist(y, y2) ** eps
    assert ratio == pytest.approx(rep.a_iii, rel=1e-13)


def test_cz_report_json_fields():
    fam = two_unit_squares(d=0.8)
    cloud = build_quadrature(build_measure(fam), 2)
    rep = cz_constants(KernelSpec("modified", fam), cloud, tau=0.3)
    obj = rep.to_json_dict()
    assert set(obj) >= {"tau", "s", "epsilon", "A_I", "A_II", "A_III", "budget", "seed", "iii2_counterexamples"}
    assert obj["iii2_counterexamples"] == 0


def test_cz_rejects_bad_inputs():
    fam = two_unit_squares()
    cloud = build_quadrature(build_measure(fam), 2)
    with pytest.raises(ValueError):
        cz_constants(KernelSpec("full", fam), cloud, tau=0.5)
    with pytest.raises(ValueError):
        cz_constants(KernelSpec("modified", fam), cloud, tau=1.0)


@st.composite
def size_scan_clouds(draw):
    """A generated family of 1 to 14 squares and its cloud at n = 1 to 8."""
    k_lo = draw(st.integers(0, 4))
    fam = generate_family(
        seed=draw(st.integers(0, 2**16)),
        count=draw(st.integers(1, 14)),
        d=draw(st.floats(0.1, 1.95)),
        packing_target=8.0,
        k_range=(k_lo, k_lo + draw(st.integers(0, 3))),
    )
    return build_quadrature(build_measure(fam), draw(st.integers(1, 8)))


@st.composite
def size_scan_cases(draw):
    """A ``size_scan_clouds`` cloud and every target row or a random subset
    of them."""
    cloud = draw(size_scan_clouds())
    rows = np.arange(len(cloud))
    if draw(st.booleans()):
        rows = np.array(sorted(draw(st.sets(st.integers(0, len(cloud) - 1), min_size=1))))
    return cloud, rows


_ONE_SQUARE_CLOUD = _squares_cloud([(0, 0, 0)], 1.3, 5)
# the largest value sits on two square pairs, and the pair with the larger
# bound holds the later witness in row-major order
_TIED_CLOUD = _squares_cloud([(2, 1, 1), (2, 1, 3), (2, 1, 2), (2, 2, 1)], 1.5, 2)
# same-level squares in one row: the nearest nodes of neighbours lie exactly
# the gap between their extreme coordinates apart, so the bound is tight
_ROW_CLOUD = _squares_cloud([(3, 0, 2), (3, 1, 2), (3, 3, 2), (3, 6, 2)], 0.7, 4)


def _assert_size_scan_is_the_row_scan(cloud):
    spec, s = KernelSpec("modified", cloud.family), 2.0 - cloud.d
    got, ref = _size_scan(spec, cloud, s), size_scan_rows(spec, cloud, np.arange(len(cloud)), s)
    assert got[1] == ref[1]
    assert_same_bits(np.float64(got[0]), np.float64(ref[0]))
    return got


@given(size_scan_clouds())
@example(_ONE_SQUARE_CLOUD)
@example(_TIED_CLOUD)
@example(_ROW_CLOUD)
def test_size_scan_matches_row_scan(cloud):
    a_i, (p, q) = _assert_size_scan_is_the_row_scan(cloud)
    if len(cloud.family) == 1:
        assert (a_i, p, q) == (0.0, 0, 0)
    else:
        assert a_i > 0


@pytest.mark.parametrize("d", [0.8, 1.2, 1.6])
def test_size_scan_matches_row_scan_on_benchmark_clouds(d):
    """The benchmark's three 2,048-node direct-sum clouds (family seed =
    index of d, 32 squares, n = 8)."""
    fam = generate_family(
        seed=[0.8, 1.2, 1.6].index(d), count=32, d=d, packing_target=4.0, k_range=suggest_generation_range(32, d, 4.0)
    )
    cloud = build_quadrature(build_measure(fam), 8)
    assert len(cloud) == 2048
    _assert_size_scan_is_the_row_scan(cloud)


def test_cz_size_constant_scans_every_row_of_a_large_cloud():
    """A 3,008-node cloud (N^2 > 8e6, where a seeded sample of 2,048 rows
    once stood in for the rows; at cz seed 0 it missed the witness)."""
    fam = generate_family(seed=1, count=47, d=1.2, packing_target=4.0, k_range=suggest_generation_range(47, 1.2, 4.0))
    cloud = build_quadrature(build_measure(fam), 8)
    assert len(cloud) == 3008
    spec = KernelSpec("modified", fam)
    rep = cz_constants(spec, cloud, tau=0.6, budget=1000, seed=0)
    a_i, wit = size_scan_rows(spec, cloud, np.arange(len(cloud)), 2.0 - cloud.d)
    assert rep.witness_i == wit
    assert_same_bits(np.float64(rep.a_i), np.float64(a_i))


@given(size_scan_cases())
@example((_TIED_CLOUD, np.arange(16)))
@example((_ROW_CLOUD, np.arange(64)))
@example((_ROW_CLOUD, np.array([5, 16, 40, 63])))
def test_size_bounds_hold_every_scanned_value(case):
    cloud, rows = case
    spec, m, nn = KernelSpec("modified", cloud.family), len(cloud.family), cloud.n_per_side**2
    dist = np.abs(cloud.z[rows][:, None] - cloud.z)
    vals = np.where(dist > 0, np.abs(kernel_values(spec, cloud, rows[:, None], slice(None))) * dist ** (2.0 - cloud.d), 0.0)
    # each scanned row's values against its own square's row of the full
    # (square, square) bound matrix
    bound = _size_bounds(cloud, np.power(cloud.square_sides, cloud.d), cloud.d)
    assert bound.shape == (m, m)
    assert np.all(np.diag(bound) == -np.inf)
    owner = cloud.square_index[rows]
    row_max = vals.reshape(rows.size, m, nn).max(axis=2)
    other = owner[:, None] != np.arange(m)
    assert np.all(row_max[other] <= bound[owner][other])

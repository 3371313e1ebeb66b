import dataclasses
import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhcz import fastsum
from nhcz.fastsum import (
    _ENTRY_BLOCK,
    _MAX_DEPTH,
    BENCH_HEADER,
    ExpansionParams,
    _max_rel_err,
    apply_fast,
    benchmark,
    build_tree,
)
from nhcz.geometry import (
    MAX_ABS_GENERATION,
    DyadicSquare,
    SquareFamily,
    generate_cascade_family,
    generate_family,
    suggest_generation_range,
)
from nhcz.kernels import KernelSpec, kernel_values
from nhcz.measure import build_measure, build_quadrature
from nhcz.operators import Field, apply_direct
from oracles import (
    assert_same_bits,
    far_sums_per_cell,
    fit_cost_exponent,
    moments_per_column,
    plan_walk,
    quadtree_recursive,
)


def cloud_for(count, n, seed=0, d=1.2):
    fam = generate_family(seed=seed, count=count, d=d, packing_target=4.0, k_range=(2, 5))
    return fam, build_quadrature(build_measure(fam), n)


def test_tree_single_node_is_single_leaf():
    fam = SquareFamily.build([DyadicSquare(0, 0, 0)], 1.0, 4.0)
    cloud = build_quadrature(build_measure(fam), 1)
    tree = build_tree(cloud, leaf_cap=4)
    assert tree.n_cells == 1
    assert tree.is_leaf[0]
    assert np.array_equal(tree.perm, [0])


def test_tree_structure_audit():
    fam = SquareFamily.build([DyadicSquare(0, 0, 0)], 1.0, 4.0)
    cloud = build_quadrature(build_measure(fam), 64)  # 4096 uniform nodes
    tree = build_tree(cloud, leaf_cap=32)
    leaf_sizes = tree.end[tree.is_leaf] - tree.start[tree.is_leaf]
    assert leaf_sizes.max() <= 32
    assert leaf_sizes.sum() == len(cloud)
    assert np.array_equal(np.sort(tree.perm), np.arange(len(cloud)))
    # every node sits inside its leaf's tight radius
    for c in np.flatnonzero(tree.is_leaf)[:50]:
        ids = tree.perm[tree.start[c] : tree.end[c]]
        assert np.abs(cloud.z[ids] - tree.centers[c]).max() <= tree.radius[c] + 1e-15


def test_tree_deterministic():
    fam, cloud = cloud_for(6, 8, seed=3)
    t1 = build_tree(cloud, leaf_cap=16)
    t2 = build_tree(cloud, leaf_cap=16)
    assert np.array_equal(t1.perm, t2.perm)
    assert np.array_equal(t1.centers, t2.centers)
    assert np.array_equal(t1.start, t2.start)


def _check_moments_match_direct_sums(columns):
    fam, cloud = cloud_for(5, 6, seed=4)
    tree = build_tree(cloud, leaf_cap=8)
    rng = np.random.default_rng(0)
    shape = (len(cloud),) if columns is None else (len(cloud), columns)
    charges = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    p = 7
    mom = tree.moments(charges, p)
    assert mom.shape == (tree.n_cells, p) + shape[1:]
    for cell in range(0, tree.n_cells, max(tree.n_cells // 20, 1)):
        ids = tree.perm[tree.start[cell] : tree.end[cell]]
        diffs = cloud.z[ids] - tree.centers[cell]
        for k in range(p):
            powers = (diffs**k).reshape((-1,) + (1,) * (charges.ndim - 1))
            direct = np.sum(charges[ids] * powers, axis=0)
            assert mom[cell, k] == pytest.approx(direct, rel=1e-10, abs=1e-12)


def test_moments_match_direct_sums():
    _check_moments_match_direct_sums(None)


def test_moments_match_direct_sums_batched_columns():
    _check_moments_match_direct_sums(3)


def test_moment_zero_order_conserved_on_level_covers():
    fam, cloud = cloud_for(7, 8, seed=5)
    tree = build_tree(cloud, leaf_cap=16)
    rng = np.random.default_rng(1)
    charges = rng.standard_normal(len(cloud)) + 1j * rng.standard_normal(len(cloud))
    mom = tree.moments(charges, 4)
    total = charges.sum()
    for depth in range(int(tree.depth.max()) + 1):
        cover = [
            c
            for c in range(tree.n_cells)
            if tree.depth[c] == depth or (tree.is_leaf[c] and tree.depth[c] < depth)
        ]
        got = sum(mom[c, 0] for c in cover)
        assert got == pytest.approx(total, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("variant", ["modified", "adjoint"])
def test_apply_fast_oracle_equality_tiny_theta(variant):
    fam, cloud = cloud_for(6, 6, seed=6)
    tree = build_tree(cloud, leaf_cap=16)
    params = ExpansionParams(order=16, theta=0.1)  # theta^p < 1e-15
    rng = np.random.default_rng(2)
    f = Field(rng.standard_normal(len(cloud)) + 1j * rng.standard_normal(len(cloud)), "mu")
    spec = KernelSpec(variant, fam)
    fast = apply_fast(spec, tree, f, params).values
    direct = apply_direct(spec, cloud, f).values
    assert np.abs(fast - direct).max() <= 1e-12 * np.abs(direct).max()


def test_apply_fast_two_square_dense_cloud():
    fam = SquareFamily.build([DyadicSquare(0, 0, 0), DyadicSquare(0, 5, 3)], 1.2, 16.0)
    cloud = build_quadrature(build_measure(fam), 64)  # 2 * 64^2 nodes
    tree = build_tree(cloud, leaf_cap=32)
    rng = np.random.default_rng(3)
    f = Field(rng.standard_normal(len(cloud)) + 1j * rng.standard_normal(len(cloud)), "mu")
    spec = KernelSpec("modified", fam)
    fast = apply_fast(spec, tree, f, ExpansionParams(order=12, theta=0.5)).values
    direct = apply_direct(spec, cloud, f).values
    assert np.abs(fast - direct).max() <= 1e-6 * np.abs(direct).max()


def test_apply_fast_zero_field():
    fam, cloud = cloud_for(4, 4, seed=7)
    tree = build_tree(cloud, leaf_cap=8)
    out = apply_fast(KernelSpec("modified", fam), tree, Field(np.zeros(len(cloud)), "mu"), ExpansionParams())
    assert np.all(out.values == 0)


def test_apply_fast_error_decreases_in_order():
    fam, cloud = cloud_for(8, 8, seed=8)
    tree = build_tree(cloud, leaf_cap=16)
    rng = np.random.default_rng(4)
    f = Field(rng.standard_normal(len(cloud)) + 1j * rng.standard_normal(len(cloud)), "mu")
    spec = KernelSpec("modified", fam)
    direct = apply_direct(spec, cloud, f).values
    scale = np.abs(direct).max()
    errs = []
    for p in (4, 8, 12, 16):
        fast = apply_fast(spec, tree, f, ExpansionParams(order=p, theta=0.5)).values
        errs.append(np.abs(fast - direct).max() / scale)
    floor = 1e-14
    assert all(b <= max(a, floor) for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 1e-8


def test_apply_fast_rejects_unsupported_variants():
    fam, cloud = cloud_for(3, 3, seed=9)
    tree = build_tree(cloud, leaf_cap=8)
    f = Field(np.ones(len(cloud)), "mu")
    for variant in ("full", "local"):
        with pytest.raises(ValueError):
            apply_fast(KernelSpec(variant, fam), tree, f, ExpansionParams())


def test_expansion_params_validation():
    with pytest.raises(ValueError):
        ExpansionParams(order=0)
    with pytest.raises(ValueError):
        ExpansionParams(theta=1.0)
    with pytest.raises(ValueError):
        ExpansionParams(leaf_cap=0)


def test_benchmark_small_ladder(monkeypatch):
    monkeypatch.setattr(fastsum, "BENCH_N_PER_SIDE", 8)
    rows = benchmark([256, 1024], seed=1)
    assert len(rows) == 2
    assert all(r.max_rel_err <= 1e-6 for r in rows)
    assert all(r.direct_exact for r in rows)
    assert rows[0].n <= rows[1].n
    assert len(rows[0].csv_row()) == len(BENCH_HEADER)


def test_fit_cost_exponent_recovers_slope():
    ns = np.array([1e3, 4e3, 1.6e4, 6.4e4])
    times = 5.0 * ns**1.3
    assert fit_cost_exponent(ns, times) == pytest.approx(1.3, abs=1e-6)


HALVES = ("far", "near")


def _runs_of(plan, half):
    """(cells, ptr, start, len) of one half of the plan."""
    return tuple(getattr(plan, f"{half}_{field}") for field in ("cells", "ptr", "start", "len"))


def _plan_pairs(tree, plan):
    """(target, source) node pairs the plan expands and sums directly."""
    pairs = {half: [] for half in HALVES}
    for half in HALVES:
        cells, ptr, start, length = _runs_of(plan, half)
        for cell, e0, e1 in zip(cells, ptr[:-1], ptr[1:]):
            sources = tree.perm[tree.start[cell] : tree.end[cell]]
            targets = tree.perm[fastsum._run_positions(start[e0:e1], length[e0:e1])[0]]
            pairs[half].extend((t, s) for t in targets for s in sources)
    return pairs["far"], pairs["near"]


def test_plan_covers_every_cross_square_pair_once():
    fam, cloud = cloud_for(6, 5, seed=10)
    tree = build_tree(cloud, leaf_cap=4)
    far, near = _plan_pairs(tree, tree.plan(0.5))
    sq = cloud.square_index
    seen = np.zeros((len(cloud), len(cloud)), dtype=np.int64)
    for t, s in far + near:
        seen[t, s] += 1
    cross = sq[:, None] != sq[None, :]
    assert np.all(seen[cross] == 1)
    assert all(sq[t] != sq[s] for t, s in far)  # expansions never meet a same-square source
    assert np.all(seen <= 1)


@pytest.fixture(scope="module")
def ladder_cloud():
    """The 8,192-node rung of the treecode ladder."""
    fam = generate_family(
        seed=0, count=32, d=1.2, packing_target=4.0, k_range=suggest_generation_range(32, 1.2, 4.0)
    )
    return build_quadrature(build_measure(fam), 16)


def test_plan_counters_and_memory_on_the_ladder_family(ladder_cloud):
    tree = build_tree(ladder_cloud, leaf_cap=32)
    plan = tree.plan(0.5)
    assert tree.plan(0.5) is plan
    far_pairs = int(plan.far_len.sum())
    assert far_pairs * 8 > 1.4e6  # what per-pair int64 target lists would hold
    assert plan.nbytes < 0.5e6
    assert plan.far_start.size > 0
    assert plan.near_start.size > 0 and plan.near_blocks_skipped > plan.near_start.size
    # the walk decides whole cell pairs and tests few targets one by one; a
    # per-target walk makes about 70 tests per node here
    assert plan.cell_pairs + plan.target_tests < 2 * len(ladder_cloud)


def test_cascade_plan_keeps_no_near_blocks():
    fam = generate_cascade_family(seed=16, count=16, d=1.2, packing_target=4.0)
    cloud = build_quadrature(build_measure(fam), 8)
    tree = build_tree(cloud, leaf_cap=32)
    plan = tree.plan(0.5)
    assert plan.near_start.size == 0 and plan.near_blocks_skipped > 0
    rng = np.random.default_rng(5)
    f = Field(rng.standard_normal(len(cloud)) + 1j * rng.standard_normal(len(cloud)), "mu")
    spec = KernelSpec("modified", fam)
    fast = apply_fast(spec, tree, f, ExpansionParams()).values
    direct = apply_direct(spec, cloud, f).values
    assert np.abs(fast - direct).max() <= 1e-6 * np.abs(direct).max()


@st.composite
def treecode_cases(draw):
    """A random admissible family whose generations span up to the cap, a
    quadrature cloud on it, a leaf capacity and a few random columns."""
    k_lo = draw(st.integers(0, 4))
    fam = generate_family(
        seed=draw(st.integers(0, 2**16)),
        count=draw(st.integers(2, 8)),
        d=draw(st.sampled_from([0.02, 0.3, 1.0, 1.7, 1.98])),
        packing_target=8.0,
        k_range=(k_lo, k_lo + draw(st.integers(0, MAX_ABS_GENERATION - k_lo))),
    )
    cloud = build_quadrature(build_measure(fam), draw(st.sampled_from([2, 4, 8])))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    shape = (len(cloud), draw(st.integers(2, 5)))
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return fam, cloud, draw(st.sampled_from([1, 4, 16])), values


@given(treecode_cases())
@settings(max_examples=30)
def test_treecode_matches_direct_and_batches_columns(case):
    fam, cloud, leaf_cap, values = case
    default, tight = ExpansionParams(), ExpansionParams(order=16, theta=0.1, leaf_cap=leaf_cap)
    trees = {p: build_tree(cloud, p.leaf_cap) for p in (default, tight)}
    for variant in ("modified", "adjoint"):
        spec = KernelSpec(variant, fam)
        backends = {
            "direct": lambda f: apply_direct(spec, cloud, f).values,
            "fast": lambda f: apply_fast(spec, trees[tight], f, tight).values,
        }
        for apply in backends.values():
            batched = apply(Field(values, "mu"))
            for j in range(values.shape[1]):
                single = apply(Field(values[:, j], "mu"))
                assert np.abs(batched[:, j] - single).max() <= 1e-15 * np.abs(single).max()
        rows = kernel_values(spec, cloud, np.arange(len(cloud))[:, None], slice(None))
        for j in range(values.shape[1]):
            f = Field(values[:, j], "mu")
            direct = backends["direct"](f)
            assert _max_rel_err(backends["fast"](f), direct) <= 1e-12
            # at the defaults the truncation bound holds against each target's
            # sum of absolute terms; sums that cancel can leave a target's
            # error above 1e-6 of the largest output
            scale = np.abs(rows * (f.values * cloud.mu_weight)).sum(axis=1)
            default_err = np.abs(apply_fast(spec, trees[default], f, default).values - direct)
            assert np.all(default_err <= 1e-6 * scale)


def _check_batched_passes_match_references(fam, tree, values, params):
    """The moments and the chunked far pass equal their one-column and
    one-cell references bit for bit, and every column of a batched apply
    equals its single-column apply bit for bit."""
    mom = tree.moments(values, params.order)
    assert_same_bits(mom, moments_per_column(tree, values, params.order))
    plan = tree.plan(params.theta)
    got, want = np.zeros(values.shape, complex), np.zeros(values.shape, complex)
    fastsum._far_sums(tree, plan, mom, got)
    far_sums_per_cell(tree, plan, mom, want)
    assert_same_bits(got, want)
    for variant in ("modified", "adjoint"):
        spec = KernelSpec(variant, fam)
        batched = apply_fast(spec, tree, Field(values, "mu"), params).values
        for j in range(values.shape[1]):
            assert_same_bits(batched[:, j], apply_fast(spec, tree, Field(values[:, j], "mu"), params).values)


@given(treecode_cases(), st.integers(1, 5), st.sampled_from([1, 5, 12]), st.sampled_from([0.3, 0.5, 0.9]))
@settings(max_examples=30, deadline=None)
def test_chunked_far_pass_and_batched_moments_keep_every_bit(case, columns, order, theta):
    fam, cloud, leaf_cap, values = case
    params = ExpansionParams(order=order, theta=theta, leaf_cap=leaf_cap)
    tree = build_tree(cloud, leaf_cap)
    _check_batched_passes_match_references(fam, tree, values[:, :columns], params)
    single = values[:, 0]
    assert_same_bits(tree.moments(single, order), moments_per_column(tree, single, order))


def sparse_columns(tree, rng):
    """Charge columns whose far moments vanish on many (cell, column)
    pairs, mixed with dense ones: a square indicator, a delta, a ball
    indicator, an all-zero column, a column whose two charges cancel inside
    one leaf (its zeroth moments vanish, its higher ones do not) and a
    dense random column."""
    cloud = tree.cloud
    n, xy, sq = len(cloud), cloud.xy, cloud.square_index
    cols = np.zeros((n, 6), dtype=np.complex128)
    cols[:, 0] = sq == rng.integers(len(cloud.family))
    cols[rng.integers(n), 1] = 1.0 - 2.0j
    cx, cy = xy[rng.integers(n)]
    cols[:, 2] = (xy[:, 0] - cx) ** 2 + (xy[:, 1] - cy) ** 2 <= (rng.uniform(0.05, 0.5) * cloud.diameter) ** 2
    # two nodes of one square in one leaf carry +1 and -1 against the same
    # mu weight, so their charges cancel in every variant
    first, last = tree.start[tree.leaf_ids], tree.end[tree.leaf_ids]
    pair = [(a, a + 1) for a, b in zip(first, last) if b - a > 1 and sq[tree.perm[a]] == sq[tree.perm[a + 1]]]
    if pair:
        a, b = pair[rng.integers(len(pair))]
        cols[tree.perm[a], 4], cols[tree.perm[b], 4] = 1.0, -1.0
    cols[:, 5] = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return cols[:, rng.permutation(6)]


@pytest.mark.parametrize("columns", [1, 3, 8, 20, "sparse"])
@pytest.mark.parametrize("cloud_name", ["cascade_m256", "ladder_n8192"])
def test_chunked_far_pass_keeps_every_bit_on_benchmark_clouds(cloud_name, columns, ladder_cloud):
    if cloud_name == "cascade_m256":  # scaling_row's cloud
        fam = generate_cascade_family(seed=0, count=256, d=1.2, packing_target=4.0)
        cloud = build_quadrature(build_measure(fam), 8)
    else:
        cloud = ladder_cloud
        fam = cloud.family
    tree = build_tree(cloud, 32)
    # each case is one apply pass over all its columns; 20 is wider than Operator.images' blocks
    if columns == "sparse":  # 12 columns with many zero far moments
        rng = np.random.default_rng(11)
        values = np.concatenate([sparse_columns(tree, rng), sparse_columns(tree, rng)], axis=1)
    else:
        rng = np.random.default_rng(columns)
        values = rng.standard_normal((len(cloud), columns)) + 1j * rng.standard_normal((len(cloud), columns))
    _check_batched_passes_match_references(fam, tree, values, ExpansionParams())


@given(treecode_cases(), st.sampled_from([1, 5, 12]), st.sampled_from([0.3, 0.5, 0.9]), st.integers(0, 2**16))
@settings(max_examples=30, deadline=None)
def test_zero_moment_skip_keeps_every_bit(case, order, theta, seed):
    fam, cloud, leaf_cap, _ = case
    tree = build_tree(cloud, leaf_cap)
    rng = np.random.default_rng(seed)
    values = sparse_columns(tree, rng)
    _check_batched_passes_match_references(fam, tree, values, ExpansionParams(order=order, theta=theta, leaf_cap=leaf_cap))
    # moments that vanish in their real or imaginary parts only, or as -0
    shape = (tree.n_cells, order, values.shape[1])
    mom = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    pick = np.broadcast_to(rng.integers(0, 4, size=(tree.n_cells, 1, values.shape[1])), shape)
    mom.real[pick == 1] = 0.0
    mom.imag[pick == 2] = 0.0
    mom[pick == 3] = complex(-0.0, -0.0)
    plan = tree.plan(theta)
    got, want = np.zeros(values.shape, complex), np.zeros(values.shape, complex)
    fastsum._far_sums(tree, plan, mom, got)
    far_sums_per_cell(tree, plan, mom, want)
    assert_same_bits(got, want)


def _assert_tree_matches_oracle(tree, ref):
    assert tree.n_cells == ref.n_cells
    for name in ("centers", "radius", "start", "end", "depth", "parent", "perm", "rank", "is_leaf"):
        got, want = getattr(tree, name), getattr(ref, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    # the leaves' slots as ``_near_sums`` reads them are the oracle's pads
    assert np.array_equal(tree.leaf_ids, ref.leaf_ids)
    assert tree.leaf_width == ref.leaf_pad_nodes.shape[1]
    slot = np.arange(tree.leaf_width)
    first, size = tree.start[tree.leaf_ids], tree.end[tree.leaf_ids] - tree.start[tree.leaf_ids]
    valid = slot < size[:, None]
    assert np.array_equal(valid, ref.leaf_pad_mask)
    assert np.array_equal(np.where(valid, tree.perm.take(first[:, None] + slot, mode="clip"), 0), ref.leaf_pad_nodes)
    for c in range(tree.n_cells):
        kids = tree.child_ids[tree.child_ptr[c] : tree.child_ptr[c + 1]]
        assert kids.tolist() == ref.children[c]
        squares = tree.square_ids[tree.square_ptr[c] : tree.square_ptr[c + 1]]
        assert np.array_equal(squares, ref.square_ids[c])


def _walk_entries(tree, want, half):
    """``plan_walk``'s entries of one half: each entry's cell, target leaf
    row and slot mask."""
    if half == "far":
        return np.repeat(want["far_cells"], np.diff(want["far_ptr"])), want["far_leaf"], want["far_bits"]
    return tree.leaf_ids[want["near_source"]], want["near_target"], want["near_bits"]


def _mask_runs(tree, want):
    """``plan_walk``'s (cell, target leaf, slot mask) entries as the plan's
    runs: the set slots of all masks, as perm positions in entry order,
    broken at each gap and wherever the cell or the leaf changes."""
    runs = {"near_blocks_skipped": want["near_blocks_skipped"]}
    leaf_start, width = tree.start[tree.leaf_ids], tree.leaf_width
    for half in HALVES:
        cell, leaf, bits = _walk_entries(tree, want, half)
        entry, slot = np.nonzero(np.unpackbits(bits, axis=1, count=width))
        cell, leaf = cell[entry], leaf[entry]
        pos = leaf_start[leaf] + slot
        first = np.flatnonzero(
            (np.diff(cell, prepend=-1) != 0) | (np.diff(leaf, prepend=-1) != 0) | (np.diff(pos, prepend=-1) != 1)
        )
        last = np.flatnonzero(np.diff(cell[first], append=-1))  # each cell's last run
        runs[f"{half}_cells"] = cell[first][last].astype(np.int32)
        runs[f"{half}_ptr"] = np.append(0, last + 1).astype(np.int64)
        runs[f"{half}_start"] = pos[first].astype(np.int32)
        runs[f"{half}_len"] = np.diff(first, append=pos.size).astype(np.min_scalar_type(width))
    return runs


def _assert_plan_matches_oracle(tree, ref, theta):
    plan, want = tree.plan(theta), _mask_runs(tree, plan_walk(ref, theta))
    for name, value in want.items():
        got = getattr(plan, name)
        if isinstance(value, np.ndarray):
            assert got.dtype == value.dtype and np.array_equal(got, value), name
        else:
            assert got == value, name


def _assert_runs_decode_to_walk(tree, ref, theta):
    """In each half, decoding every run gives ``plan_walk``'s (cell, perm
    position) pairs in its order, as int64: the far half's expanded pairs
    and the near half's live (source leaf, target) pairs.  Each run is
    maximal and lies in one leaf, so it is at most the leaf width long.
    Returns, per half, the number of runs that continue a (cell, leaf)
    after a gap."""
    plan, want = tree.plan(theta), plan_walk(ref, theta)
    leaf_start, leaf_end = tree.start[tree.leaf_ids], tree.end[tree.leaf_ids]
    gaps = {}
    for half in HALVES:
        want_cell, want_leaf, bits = _walk_entries(tree, want, half)
        entry, slot = np.nonzero(np.unpackbits(bits, axis=1, count=tree.leaf_width))
        cells, ptr, start, length = _runs_of(plan, half)
        pos, ends = fastsum._run_positions(start, length)
        assert pos.dtype == ends.dtype == np.int64
        assert np.array_equal(pos, leaf_start[want_leaf[entry]] + slot), half
        cell = np.repeat(cells, np.diff(ptr))
        assert np.array_equal(np.repeat(cell, length), want_cell[entry]), half
        start, stop = start.astype(np.int64), start + length.astype(np.int64)
        leaf = np.searchsorted(leaf_start, start, side="right") - 1
        assert np.all(length >= 1) and np.all(length <= tree.leaf_width) and np.all(stop <= leaf_end[leaf]), half
        # a cell's next run in the same leaf starts after a gap
        same = (cell[1:] == cell[:-1]) & (leaf[1:] == leaf[:-1])
        assert np.all(start[1:][same] > stop[:-1][same]), half
        gaps[half] = int(np.count_nonzero(same))
    return gaps


@given(treecode_cases(), st.sampled_from([0.1, 0.5, 0.9]))
@settings(max_examples=25, deadline=None)
def test_runs_decode_to_the_walk_pairs(case, theta):
    cloud, leaf_cap = case[1], case[2]
    _assert_runs_decode_to_walk(build_tree(cloud, leaf_cap), quadtree_recursive(cloud, leaf_cap, _MAX_DEPTH), theta)


def test_runs_decode_to_the_walk_pairs_on_the_ladder_rung(ladder_cloud):
    tree = build_tree(ladder_cloud, leaf_cap=32)
    gaps = _assert_runs_decode_to_walk(tree, quadtree_recursive(ladder_cloud, 32, _MAX_DEPTH), 0.5)
    # the rung has leaves that a cell expands in more than one run
    assert gaps["far"] > 0 and tree.plan(0.5).near_start.size > 0


def test_near_runs_break_at_the_gaps_of_a_leaf():
    fam, cloud = cloud_for(6, 4, seed=10)
    gaps = _assert_runs_decode_to_walk(build_tree(cloud, 16), quadtree_recursive(cloud, 16, _MAX_DEPTH), 0.5)
    assert gaps["near"] > 0  # a source leaf serves some target leaf in more than one run


@given(
    st.lists(
        st.one_of(st.integers(1, 3 * _ENTRY_BLOCK), st.sampled_from([_ENTRY_BLOCK - 1, _ENTRY_BLOCK, _ENTRY_BLOCK + 1])),
        max_size=40,
    )
)
def test_far_chunks_tile_the_runs_and_keep_small_cells_whole(counts):
    ptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    end, whole = 0, set()
    for c0, b0, b1, cut in fastsum._far_chunks(ptr):
        assert b0 == end and 0 < b1 - b0 <= _ENTRY_BLOCK  # in order, without a gap
        assert cut[0] == 0 and cut[-1] == b1 - b0
        for c, s0, s1 in zip(range(c0, c0 + len(cut) - 1), cut, cut[1:]):
            assert ptr[c] <= b0 + s0 < b0 + s1 <= ptr[c + 1]  # each segment inside its own cell
            if (b0 + s0, b0 + s1) == (ptr[c], ptr[c + 1]):
                whole.add(c)
        end = b1
    assert end == ptr[-1]
    assert {c for c, n in enumerate(counts) if n < _ENTRY_BLOCK} <= whole


def _check_leaf_caps_against_oracle(cloud):
    for leaf_cap in (1, 4, 16, 32):
        tree = build_tree(cloud, leaf_cap)
        ref = quadtree_recursive(cloud, leaf_cap, _MAX_DEPTH)
        _assert_tree_matches_oracle(tree, ref)
        for theta in (0.1, 0.5, 0.9):
            _assert_plan_matches_oracle(tree, ref, theta)
    return tree


@given(treecode_cases())
@settings(max_examples=25, deadline=None)
def test_level_build_matches_recursive_oracle(case):
    _check_leaf_caps_against_oracle(case[1])


@st.composite
def cascade_clouds(draw):
    """A cascade family's quadrature cloud.  Its dyadic geometry can put a
    node exactly 2r/theta from a cell centre, where the plan's whole-pair
    decisions must give way to the exact per-target test."""
    fam = generate_cascade_family(
        seed=draw(st.integers(0, 2**16)),
        count=draw(st.integers(2, 40)),
        d=draw(st.sampled_from([0.8, 1.2, 1.6])),
        packing_target=4.0,
    )
    return build_quadrature(build_measure(fam), draw(st.sampled_from([1, 2, 4, 8])))


@given(cascade_clouds())
@settings(max_examples=15, deadline=None)
def test_level_build_matches_recursive_oracle_on_cascades(cloud):
    _check_leaf_caps_against_oracle(cloud)


def _tight_thetas(tree):
    """Opening parameters on the boundary of the plan's whole-pair bounds.

    A node of a leaf T lies at distance x from a cell S's centre, and the
    bound on T's disc puts x within [d - r_T, d + r_T], d = |c_T - c_S|.
    Where a node's x is within 1e-9 of a bound b, the parameters 2 r_S / x
    (an exact tie of that node's test) and 2 r_S / b (a float bound that
    rounding puts on the wrong side of x) are returned; only the plan's
    margins keep whole-pair decisions right there."""
    z = tree.cloud.z
    thetas = set()
    for leaf in np.flatnonzero(tree.is_leaf):
        dist = np.abs(z[tree.perm[tree.start[leaf] : tree.end[leaf]]][:, None] - tree.centers)
        d, r = np.abs(tree.centers - tree.centers[leaf]), tree.radius[leaf]
        for x, bound in ((dist.min(axis=0), d - r), (dist.max(axis=0), d + r)):
            tight = (tree.radius > 0) & (x > 0) & (np.abs(x - bound) <= 1e-9 * (d + r))
            for b in (x, bound):
                thetas.update((2.0 * tree.radius[tight] / b[tight]).tolist())
    return sorted(t for t in thetas if 0.0 < t < 1.0)


@pytest.mark.parametrize(
    "family, n, leaf_caps",
    [
        (generate_cascade_family(seed=0, count=16, d=1.2, packing_target=4.0), 2, (1, 4)),
        (generate_family(seed=3, count=5, d=1.2, packing_target=8.0, k_range=(1, 6)), 4, (1,)),
    ],
    ids=["cascade", "uniform"],
)
def test_plan_matches_oracle_at_tight_opening_parameters(family, n, leaf_caps):
    cloud = build_quadrature(build_measure(family), n)
    for leaf_cap in leaf_caps:
        tree = build_tree(cloud, leaf_cap)
        ref = quadtree_recursive(cloud, leaf_cap, _MAX_DEPTH)
        thetas = _tight_thetas(tree)
        assert thetas
        for t in thetas:
            for theta in (t, np.nextafter(t, 0.0), np.nextafter(t, 1.0)):
                _assert_plan_matches_oracle(tree, ref, float(theta))


def _coincident_cloud():
    """128 nodes on two squares, 40 of them moved onto one point."""
    fam = SquareFamily.build([DyadicSquare(0, 0, 0), DyadicSquare(2, 3, 1)], 1.2, 16.0)
    cloud = build_quadrature(build_measure(fam), 8)
    xy = cloud.xy.copy()
    xy[:40] = xy[7]
    return dataclasses.replace(cloud, xy=xy, z=xy[:, 0] + 1j * xy[:, 1])


@pytest.mark.parametrize(
    "cloud",
    [
        build_quadrature(build_measure(SquareFamily.build([DyadicSquare(0, 0, 0)], 1.0, 4.0)), 1),
        _coincident_cloud(),
    ],
    ids=["single_node", "coincident_nodes"],
)
def test_level_build_edge_clouds_match_recursive_oracle(cloud):
    tree = _check_leaf_caps_against_oracle(cloud)  # the last tree has leaf cap 32
    if len(cloud) > 1:
        # the coincident nodes cannot be split: one leaf at the depth cap
        # holds all of them, over capacity
        deepest = np.flatnonzero(tree.depth == _MAX_DEPTH)
        assert deepest.size == 1 and tree.is_leaf[deepest[0]]
        assert tree.end[deepest[0]] - tree.start[deepest[0]] == 40 > tree.leaf_cap


@pytest.mark.parametrize("theta", [0.5, 0.1, 0.9])
def test_ladder_plan_matches_recursive_oracle(ladder_cloud, theta):
    tree = build_tree(ladder_cloud, leaf_cap=32)
    ref = quadtree_recursive(ladder_cloud, 32, _MAX_DEPTH)
    _assert_tree_matches_oracle(tree, ref)
    _assert_plan_matches_oracle(tree, ref, theta)


def test_tree_build_leaves_no_reference_cycle(ladder_cloud):
    build_tree(ladder_cloud, leaf_cap=32)  # warm-up: lazy imports and caches
    gc.collect()
    gc.disable()
    try:
        tree = build_tree(ladder_cloud, leaf_cap=32)
        del tree
        assert gc.collect() == 0
    finally:
        gc.enable()

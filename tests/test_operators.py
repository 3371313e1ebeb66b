import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhcz.geometry import DyadicSquare, SquareFamily, generate_cascade_family, generate_family, suggest_generation_range
from nhcz.kernels import VARIANT_RULES, KernelSpec, source_charges, target_scale
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
    default_t1_balls,
    domination_constant,
    field_norm,
    maximal_function,
    operator_norm,
    power_iteration,
    t1_testing,
)
from nhcz.verify import _domination_fields

from oracles import (
    apply_bruteforce,
    assert_same_bits,
    beurling_dft_bruteforce,
    cauchy_square_block_reference,
    kernel_eval,
    maximal_bruteforce,
    maximal_ladder_one_call,
    summation_gap_bound,
    weighted_sigma_max,
    witness_loop,
)


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
    """Every apply path refuses a field one node short, and a one-node field
    that numpy would otherwise broadcast over the cloud."""
    fam, cloud = small_family()
    dense, tree = Operator(cloud, "dense"), Operator(cloud, "tree")
    built = build_tree(cloud, ExpansionParams().leaf_cap)
    calls = [
        lambda f: apply_direct(KernelSpec("full", fam), cloud, f),
        lambda f: adjoint_apply_direct(KernelSpec("modified", fam), cloud, f),
        lambda f: apply_direct_targets(KernelSpec("adjoint", fam), cloud, f, np.array([0, 3])),
        lambda f: dense.apply("full", f),
        lambda f: dense.adjoint("modified", f),
        lambda f: list(dense.images("local", [f, f])),
        lambda f: tree.apply("modified", f),
        lambda f: tree.adjoint("adjoint", f),
        lambda f: apply_fast(KernelSpec("modified", fam), built, f, ExpansionParams()),
    ]
    for length in (len(cloud) - 1, 1):
        f = Field(np.ones(length), "mu")
        for call in calls:
            with pytest.raises(ValueError, match="field length"):
                call(f)


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


@pytest.mark.parametrize("exact_limit", [4096, 0], ids=["exact", "ladder"])
def test_maximal_memory_holds_one_block(monkeypatch, exact_limit):
    # the 1152-node domination cloud of a 32-square family with its 39
    # fields, in the exact mode and (EXACT_LIMIT = 0) the ladder mode
    monkeypatch.setattr(operators, "EXACT_LIMIT", exact_limit)
    fam = generate_family(seed=0, count=32, d=0.8, packing_target=4.0, k_range=suggest_generation_range(32, 0.8, 4.0))
    cloud = build_quadrature(build_measure(fam), 6)
    fields = [f for _, f in _domination_fields(cloud, 4, 0)]
    assert (len(cloud), len(fields)) == (1152, 39)
    # memory is bounded by the ball-sum engine's scratch for one block of 256
    # targets (its bins, and at most 2^16 straddling nodes times 40 weight
    # rows: 21 MB) and, in the exact mode only, the kept bounds and refine
    # mask of every target (two 39 * 1152 float arrays and one bool per
    # target, rung and field: under 1.5 MB) and one target's squared
    # distances and refined prefix (its sorted nodes and the refined fields'
    # prefix sums, at most 39 * 1152 * 8 B = 0.36 MB)
    assert _traced_peak(lambda: _maximal_many(cloud, fields)) < 24 * 2**20


def test_maximal_ladder_blocks_match_one_call_on_the_scaling_cascade():
    # the M=256 cascade of scaling_study's d=1.2 row, its 7 fields and 4,096
    # seeded targets; the engine's block of 2^16 // 256 centres divides
    # _TARGET_BLOCK, so the blocked pass has the one call's bits
    fam = generate_cascade_family(seed=1_000_003 * 5 + 256, count=256, d=1.2, packing_target=4.0)
    cloud = build_quadrature(build_measure(fam), 8)
    assert len(cloud) == 16384 > operators.EXACT_LIMIT
    rng = np.random.default_rng(5)
    fields = [f for _, f in _domination_fields(cloud, trials=2, seed=5, max_indicators=2, deltas=1)]
    fields += [Field(rng.standard_normal(len(cloud)) + 1j * rng.standard_normal(len(cloud)), "mu") for _ in range(2)]
    targets = np.sort(rng.choice(len(cloud), 4096, replace=False))
    blocked = _maximal_many(cloud, fields, targets=targets)
    assert len(blocked) == 7
    assert_same_bits(np.array(blocked), np.array(maximal_ladder_one_call(cloud, fields, targets=targets)))


@pytest.fixture(scope="module")
def cloud_2048():
    fam = generate_family(seed=0, count=32, d=1.2, packing_target=4.0, k_range=suggest_generation_range(32, 1.2, 4.0))
    cloud = build_quadrature(build_measure(fam), 8)
    assert len(cloud) == 2048
    return fam, cloud


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def one_node_squares():
    """257 one-node squares: one node past four whole ``_ROW_BLOCK`` blocks."""
    fam = SquareFamily.build([DyadicSquare(5, i % 32, i // 32) for i in range(257)], 1.2, 1e9)
    return fam, build_quadrature(build_measure(fam), 1)


# 97 = 3 * 32 + 1 puts a lone row after the last full block of 32
@pytest.mark.parametrize("n", [70, 97])
@pytest.mark.parametrize("k", [1, 3, 8])
def test_column_products_equal_full_matrix_products(monkeypatch, n, k):
    fam, cloud = one_node_squares()
    rng = np.random.default_rng(n * k)
    vals = rng.standard_normal((len(cloud), k)) + 1j * rng.standard_normal((len(cloud), k))
    targets = rng.permutation(len(cloud))[:n]
    monkeypatch.setattr(operators, "_ROW_BLOCK", 32)
    got = apply_direct_targets(KernelSpec("modified", fam), cloud, Field(vals, "mu"), targets)
    cols = np.ascontiguousarray(source_charges(cloud, vals, transposed=False).T)
    for b0 in range(0, n, 32):
        kernel = cauchy_square_block_reference(cloud, targets[b0 : b0 + 32], "cross_square")
        expected = np.stack([kernel @ col for col in cols], axis=1)
        assert_same_bits(got[b0 : b0 + 32], expected)


# one target, two, one past whole _ROW_BLOCK blocks, and a short last block
# (300 targets, repeats among them)
@pytest.mark.parametrize("size", [1, 2, 257, 300])
@pytest.mark.parametrize("variant", ["modified", "full"])
def test_target_blocks_are_one_product_each(variant, size):
    fam, cloud = one_node_squares()
    rng = np.random.default_rng(17)
    f = Field(rng.standard_normal(len(cloud)) + 1j * rng.standard_normal(len(cloud)), "mu")
    targets = np.array([256]) if size == 1 else rng.integers(0, len(cloud), size)
    spec = KernelSpec(variant, fam)
    charges = source_charges(cloud, f.values, transposed=False)  # both variants are forward
    got = apply_direct_targets(spec, cloud, f, targets)
    block = operators._ROW_BLOCK
    for b0 in range(0, size, block):
        rows = targets[b0 : b0 + block]
        assert_same_bits(got[b0 : b0 + block], cauchy_square_block_reference(cloud, rows, spec.rule[0]) @ charges)
    # the full sweep sums the same products in another order
    kernel = cauchy_square_block_reference(cloud, targets, spec.rule[0])
    full = apply_direct(spec, cloud, f).values
    assert np.all(np.abs(full[targets] - got) <= summation_gap_bound(kernel, charges))


def _strip_bytes(n):
    """Bytes of a full strip cache: 16 per entry of rows [s, s + block)
    against columns [s, n)."""
    block = operators._ROW_BLOCK
    return 16 * sum(min(block, n - s) * (n - s) for s in range(0, n, block))


@pytest.mark.parametrize("mode", ["off_diagonal", "same_square", "cross_square"])
def test_kernel_matrix_memory_holds_the_matrix(cloud_2048, mode):
    _, cloud = cloud_2048
    n = len(cloud)
    op = Operator(cloud, "dense")
    variant = next(v for v, (m, _) in VARIANT_RULES.items() if m == mode)
    f = Field(np.ones(n), "mu")
    assert _strip_bytes(n) == 8 * n * (n + 64)  # N a multiple of 64: 33 MiB against the matrix's 64 MiB
    # the first dense apply caches the strips, plus one strip's exclusion
    # mask and comparisons (a few bytes per entry of 64 x 2048) and the (N,)
    # charges and sums
    assert _traced_peak(lambda: op.apply(variant, f)) < _strip_bytes(n) + 2**20
    assert sum(strip.nbytes for strip in op._strips[1].values()) == _strip_bytes(n)
    # a cached apply adds no kernel strip
    assert _traced_peak(lambda: op.apply(variant, f)) < 2**20


@pytest.mark.parametrize("variant", ["full", "local", "modified", "adjoint"])
def test_apply_direct_memory_holds_one_block(cloud_2048, variant):
    fam, cloud = cloud_2048
    n = len(cloud)
    f = Field(np.ones(n), "mu")
    # one reused (64, N) complex strip, plus that strip's exclusion mask and
    # indices and the (N,) charges and sums
    peak = _traced_peak(lambda: apply_direct(KernelSpec(variant, fam), cloud, f))
    assert peak < 16 * operators._ROW_BLOCK * n + 2**20
    # 300 targets read their rows in 64-row blocks through one such buffer
    targets = np.random.default_rng(3).permutation(n)[:300]
    peak = _traced_peak(lambda: apply_direct_targets(KernelSpec(variant, fam), cloud, f, targets))
    assert peak < 16 * operators._ROW_BLOCK * n + 2**20


def sweep_cloud():
    # 144 nodes on 16 squares of several sizes
    fam = generate_family(seed=0, count=16, d=1.2, packing_target=4.0, k_range=suggest_generation_range(16, 1.2, 4.0))
    return fam, build_quadrature(build_measure(fam), 3)


# 144 nodes: with strips of 16, 13, 29 and 64 rows, N mod the strip is 0, 1,
# one short of a strip, and a quarter strip
@pytest.mark.parametrize("block", [16, 13, 29, 64])
@pytest.mark.parametrize("variant", list(VARIANT_RULES))
def test_sweep_bits_at_every_last_strip_and_cache(monkeypatch, block, variant):
    fam, cloud = sweep_cloud()
    n = len(cloud)
    monkeypatch.setattr(operators, "_ROW_BLOCK", block)
    rng = np.random.default_rng(block)
    vals = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    spec = KernelSpec(variant, fam)
    mode, transposed = spec.rule
    want = apply_direct(spec, cloud, Field(vals, "mu")).values
    want_adjoint = adjoint_apply_direct(spec, cloud, Field(vals, "mu")).values
    for j in range(vals.shape[1]):  # a column's bits do not depend on its neighbours
        assert_same_bits(apply_direct(spec, cloud, Field(vals[:, j], "mu")).values, want[:, j])
    kernel = cauchy_square_block_reference(cloud, np.arange(n), mode)
    for threshold in (FAST_NODE_THRESHOLD, 0):  # cached strips, then strips recomputed per apply
        monkeypatch.setattr(operators, "FAST_NODE_THRESHOLD", threshold)
        op = Operator(cloud, "dense")
        for _ in range(2):  # the apply that fills the strips, then one that reads them
            assert_same_bits(op.apply(variant, Field(vals, "mu")).values, want)
            assert_same_bits(op.adjoint(variant, Field(vals, "mu")).values, want_adjoint)
        strips = op._strips[1]
        assert sorted(strips) == (list(range(0, n, block)) if threshold else [])
        for s, strip in strips.items():
            assert_same_bits(strip, kernel[s : s + block, s:])
    # against the one dense product, the sweep's sums differ by rounding alone
    charges = source_charges(cloud, vals, transposed)
    raw = operators._cauchy_square_apply(cloud, charges, mode)
    assert_same_bits(target_scale(cloud, raw, transposed), want)
    assert np.all(np.abs(raw - kernel @ charges) <= summation_gap_bound(kernel, charges))


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


def _adjoint_images(cloud, fields, targets):
    op = Operator(cloud, "dense")
    return [np.abs(op.apply("adjoint", f).values)[targets] for f in fields]


def _indicators(cloud):
    return [Field((cloud.square_index == sq).astype(np.complex128), "mu") for sq in range(len(cloud.family))]


_ONE_SQUARE = build_quadrature(build_measure(SquareFamily.build([DyadicSquare(0, 0, 0)], 1.0, 4.0)), 3)
_TIED_ROW = aligned_row_cloud(2, (0, 3), 4)  # mirror squares: both indicators reach the largest ratio twice
# a refined ratio here exceeds every bracket bound by rounding, so an upper
# bound without the (1 + _MARGIN) factor falls below the exact value
_ROUNDED_SQUARES = [DyadicSquare(3, 4, 0), DyadicSquare(5, 9, 19), DyadicSquare(3, 1, 7), DyadicSquare(5, 7, 11)]
_ROUNDED = build_quadrature(build_measure(SquareFamily.build(_ROUNDED_SQUARES, 1.8, 8.0)), 3)


@st.composite
def ratio_cases(draw):
    """``maximal_cases`` with ``check_domination``'s fields added: dense
    uniforms, whose sums round differently in the engine and in a sorted
    prefix, beside every square indicator and a few deltas."""
    cloud, fields, kappa, targets, block = draw(maximal_cases())
    extra = _domination_fields(cloud, draw(st.integers(0, 3)), draw(st.integers(0, 2**16)))
    return cloud, fields + [f for _, f in extra], kappa, targets, block


@given(ratio_cases())
@settings(max_examples=80)
@example((_ONE_SQUARE, [Field(np.linspace(0.0, 1.0, 9), "mu")], 3.0, np.arange(9), 4))  # |T'f| = 0 everywhere
@example((_TIED_ROW, _indicators(_TIED_ROW) + [Field(np.zeros(32), "mu")], 3.0, np.arange(32), 256))
@example((_TIED_ROW, _indicators(_TIED_ROW), 1.5, np.arange(0, 32, 3), 5))
@example((_ROUNDED, [f for _, f in _domination_fields(_ROUNDED, 2, 20332)], 3.0, np.arange(36), 256))
def test_ratio_of_is_exact_wherever_the_largest_ratio_can_be(case):
    cloud, fields, kappa, targets, block = case
    tfs = _adjoint_images(cloud, fields, targets)
    spike = np.zeros((len(fields), targets.size))  # one nonzero numerator: every other pair is left out
    spike[0, 0] = 1.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, "KAPPA", kappa)
        mp.setattr(operators, "_TARGET_BLOCK", block)
        plain = np.array(_maximal_many(cloud, fields, targets=targets))
        pruned = np.array(_maximal_many(cloud, fields, targets=targets, ratio_of=tfs))
        bounds = np.array(_maximal_many(cloud, fields, targets=targets, ratio_of=list(spike)))
    assert np.all(pruned >= plain)
    largest, field, node = witness_loop(tfs, plain)
    assert witness_loop(tfs, pruned) == (largest, field, node)
    # an entry may leave the exact value only where its exact ratio is below
    # the largest; at the largest ratio and at its ties it keeps every bit
    moved = pruned != plain
    ratios = np.divide(tfs, plain, out=np.zeros_like(plain), where=plain > 0)
    assert np.all(ratios[moved] < largest)
    assert_same_bits(pruned[~moved], plain[~moved])
    # the pairs left out return their upper bound of M f
    assert np.all(bounds >= plain)
    assert_same_bits(bounds[0, 0], plain[0, 0])


@pytest.mark.parametrize("exact_limit", [0, 4096])
def test_ratio_of_keeps_nan_and_zero_fields(exact_limit, monkeypatch):
    monkeypatch.setattr(operators, "EXACT_LIMIT", exact_limit)
    fam, cloud = small_family(seed=9, count=3, n=3)
    n = len(cloud)
    rng = np.random.default_rng(11)
    nan_field = rng.uniform(0.0, 1.0, n).astype(np.complex128)
    nan_field[4] = np.nan
    fields = [Field(nan_field, "mu"), Field(np.zeros(n), "mu")] + [f for _, f in _domination_fields(cloud, 2, 3)]
    tfs = _adjoint_images(cloud, fields, np.arange(n))
    plain = _maximal_many(cloud, fields)
    pruned = _maximal_many(cloud, fields, ratio_of=tfs)
    assert np.isnan(pruned[0]).all() and not pruned[1].any()
    assert_same_bits(np.array(pruned[:2]), np.array(plain[:2]))
    if exact_limit == 0:  # the ladder value is M f itself; ratio_of changes no bit
        assert_same_bits(np.array(pruned), np.array(plain))
    assert witness_loop(tfs, pruned) == witness_loop(tfs, plain)
    # a field with a NaN ratio adds nothing to the largest ratio, however large its others
    tfs[2][:2] = np.nan, 1e300
    assert witness_loop(tfs, _maximal_many(cloud, fields, ratio_of=tfs)) == witness_loop(tfs, plain)


@st.composite
def ratio_arrays(draw):
    """(|T'f|, M f) over fields x targets, from a few values so that ties
    within and across fields and exact zeros of M f come up, with at times
    an all-zero field and a NaN in one field."""
    shape = draw(st.integers(1, 5)), draw(st.integers(1, 12))
    values = st.sampled_from([0.0, 0.5, 1.0, 3.0]) | st.floats(0.0, 10.0)
    size = shape[0] * shape[1]
    tf, mf = (np.array(draw(st.lists(values, min_size=size, max_size=size))).reshape(shape) for _ in "tm")
    if draw(st.booleans()):
        tf[draw(st.integers(0, shape[0] - 1))] = 0.0
    if draw(st.booleans()):
        which = draw(st.sampled_from([tf, mf]))
        which[draw(st.integers(0, shape[0] - 1)), draw(st.integers(0, shape[1] - 1))] = np.nan
    return tf, mf


@given(ratio_arrays())
@example((np.array([[1.0, 2.0], [4.0, 2.0]]), np.array([[0.0, 1.0], [2.0, 1.0]])))  # ties across and within fields
@example((np.array([[np.nan, 9.0], [1.0, 0.0]]), np.array([[1.0, 1.0], [1.0, 1.0]])))  # the NaN field adds nothing
@example((np.zeros((2, 3)), np.array([[0.0, 1.0, 2.0], [0.0, 0.0, 0.0]])))  # no positive ratio
def test_domination_constant_equals_the_witness_loop(case):
    tf, mf = case
    with np.errstate(over="ignore"):  # a subnormal M f may take a ratio to inf
        want = witness_loop(list(tf), list(mf))
        for got in (domination_constant(list(tf), list(mf)), domination_constant(tf, mf)):
            assert got[0].hex() == want[0].hex() and got[1:] == want[1:]


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
        est = Operator(cloud, "dense").norm(variant, 1e-13, 3000, 2)
        assert est.sigma_max == pytest.approx(weighted_sigma_max(spec, cloud), abs=1e-8)


def test_operator_norm_modified_equals_adjoint():
    fam, cloud = small_family(seed=10, count=3, n=3)
    a = Operator(cloud, "dense").norm("modified", 1e-12, 2000, 0)
    b = Operator(cloud, "dense").norm("adjoint", 1e-12, 2000, 1)
    assert a.sigma_max == pytest.approx(b.sigma_max, rel=1e-6)


@pytest.mark.parametrize("variant", ["full", "modified", "adjoint", "local"])
def test_mu_adjointness(monkeypatch, variant):
    fam, cloud = small_family(seed=11, count=3, n=3)
    spec = KernelSpec(variant, fam)
    op = Operator(cloud, "dense")
    reference = (lambda f: apply_direct(spec, cloud, f), lambda g: adjoint_apply_direct(spec, cloud, g))
    dense = (lambda f: op.apply(variant, f), lambda g: op.adjoint(variant, g))

    def inner(f, g):
        return complex(np.sum(cloud.mu_weight * f.values * np.conj(g.values)))

    # the on-the-fly reference, then the dense Operator on its matrix and on its blocked sums
    for threshold, (apply_fn, adjoint_fn) in [(FAST_NODE_THRESHOLD, reference), (FAST_NODE_THRESHOLD, dense), (0, dense)]:
        monkeypatch.setattr(operators, "FAST_NODE_THRESHOLD", threshold)
        rng = np.random.default_rng(4)
        for _ in range(5):
            f = Field(rng.standard_normal(len(cloud)) + 1j * rng.standard_normal(len(cloud)), "mu")
            g = Field(rng.standard_normal(len(cloud)) + 1j * rng.standard_normal(len(cloud)), "mu")
            lhs = inner(apply_fn(f), g)
            rhs = inner(f, adjoint_fn(g))
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
    # 19 fields in blocks of at most _COLUMN_BLOCK, each image bit for bit its own apply
    fields = [Field(v, "mu") for v in rng.standard_normal((19, len(cloud))) + 1j * rng.standard_normal((19, len(cloud)))]
    for variant in ("modified", "adjoint"):
        for f, image in zip(fields, op.images(variant, fields), strict=True):
            assert np.array_equal(image, op.apply(variant, f).values)
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
    monkeypatch.setattr(operators, "_ROW_BLOCK", 16)
    firsts = list(range(0, len(cloud), 16))
    assert len(firsts) == 3
    op = Operator(cloud, "dense")
    filled, fill = [], operators.kernel_block

    def counting_fill(cloud, mode, p, q, out=None):
        assert op._strips[0] == mode  # the old mode's strips went before this one is built
        filled.append((mode, q.start))
        return fill(cloud, mode, p, q, out)

    monkeypatch.setattr(operators, "kernel_block", counting_fill)
    assert op._strips[1] == {}
    f = Field(np.arange(len(cloud), dtype=np.complex128), "mu")
    op.apply("modified", f)
    op.adjoint("adjoint", f)
    first = op._strips[1]
    cross = [("cross_square", s) for s in firsts]
    assert filled == cross and op._strips[0] == "cross_square" and sorted(first) == firsts
    op.apply("full", f)
    off = [("off_diagonal", s) for s in firsts]
    assert filled == cross + off and op._strips[0] == "off_diagonal"
    assert op._strips[1] is not first
    op.adjoint("full", f)
    op.apply("modified", f)
    assert filled == cross + off + cross


def test_dense_apply_that_raises_leaves_only_whole_blocks(monkeypatch):
    fam, cloud = small_family(seed=6, count=3, n=4)
    monkeypatch.setattr(operators, "_ROW_BLOCK", 16)
    fill, calls = operators.kernel_block, []

    def failing_fill(cloud, mode, p, q, out=None):
        calls.append(q.start)
        strip = fill(cloud, mode, p, q, out)
        if q.start == 16 and calls.count(16) == 1:
            strip[:] = np.nan  # a half-written strip must never be read again
            raise MemoryError("second strip")
        return strip

    f = Field(np.arange(len(cloud), dtype=np.complex128), "mu")
    ref = apply_direct(KernelSpec("modified", fam), cloud, f).values
    kernel = cauchy_square_block_reference(cloud, np.arange(len(cloud)), "cross_square")
    monkeypatch.setattr(operators, "kernel_block", failing_fill)
    op = Operator(cloud, "dense")
    with pytest.raises(MemoryError):
        op.apply("modified", f)
    assert sorted(op._strips[1]) == [0]  # the apply stops at the failing strip
    assert_same_bits(op._strips[1][0], kernel[:16])
    for _ in range(2):
        assert_same_bits(op.apply("modified", f).values, ref)
    assert calls == [0, 16, 16, 32]  # the failed strip is filled once more
    assert sorted(op._strips[1]) == [0, 16, 32]


def test_rayleigh_history_nondecreasing():
    fam, cloud = small_family(seed=14, count=3, n=3)
    est = Operator(cloud, "dense").norm("adjoint", 1e-12, 300, 3)
    hist = est.rayleigh_history
    assert all(b >= a - 1e-12 * max(a, 1.0) for a, b in zip(hist, hist[1:]))


def test_beurling_single_mode_passthrough():
    n = 8
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


def test_beurling_rejects_odd_grid():
    with pytest.raises(ValueError, match="even"):
        beurling_multiplier(np.ones((7, 7)))


def test_t1_single_square_zero():
    fam = SquareFamily.build([DyadicSquare(0, 0, 0)], 1.0, 4.0)
    cloud = build_quadrature(build_measure(fam), 4)
    rep = t1_testing(cloud, seed=0)
    assert rep.sup_t == 0.0 and rep.sup_t_adjoint == 0.0


def test_t1_matches_bruteforce_on_full_ball():
    fam, cloud = small_family(seed=15, count=2, n=3)
    lo = cloud.xy.min(axis=0)
    hi = cloud.xy.max(axis=0)
    c = (lo + hi) / 2
    ball = BallQuery(float(c[0]), float(c[1]), float(np.hypot(*(hi - lo))) + 1.0)
    rep = t1_testing(cloud, balls=[ball])
    chi = Field(np.ones(len(cloud), dtype=np.complex128), "mu")
    for spec, got in [(KernelSpec("modified", fam), rep.sup_t), (KernelSpec("adjoint", fam), rep.sup_t_adjoint)]:
        tv = apply_bruteforce(spec, cloud, chi)
        ref = float(np.sum(cloud.mu_weight * np.abs(tv) ** 2)) / ball_mass(cloud, ball)
        assert got == pytest.approx(ref, rel=1e-12)


def test_t1_skips_zero_mass_balls():
    fam, cloud = small_family(seed=16, count=2, n=2)
    balls = [BallQuery(-100.0, -100.0, 0.001), BallQuery(float(cloud.xy[0, 0]), float(cloud.xy[0, 1]), 1.0)]
    rep = t1_testing(cloud, balls=balls)
    assert rep.skipped == 1
    assert rep.n_balls == 2


def test_default_t1_balls_independent_of_refinement():
    fam, _ = small_family(seed=17, count=4)
    a = default_t1_balls(fam, seed=5)
    b = default_t1_balls(fam, seed=5)
    assert a == b


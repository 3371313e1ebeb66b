import gc
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhcz.geometry import DyadicSquare, SquareFamily, generate_family, suggest_generation_range
from nhcz.kernels import VARIANT_RULES, KernelSpec
from nhcz.measure import build_measure, build_quadrature, growth_constant
from nhcz.operators import (
    _COLUMN_BLOCK,
    Field,
    Operator,
    _maximal_many,
    adjoint_apply_direct,
    apply_direct,
    default_t1_balls,
    operator_norm,
    t1_testing,
)
from nhcz import operators, verify
from nhcz.reports import VerificationReport, canonical_json, family_digest, jsonable
from nhcz.verify import (
    FAST_NODE_THRESHOLD,
    SCALING_HEADER,
    check_decomposition,
    check_domination,
    check_main_inequality,
    scaling_study,
)

from oracles import annulus_index, assert_same_bits, domination_reference, kernel_eval


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


@pytest.mark.parametrize("caller", ["domination", "t1-dense", "t1-tree"])
def test_domination_applies_its_fields_in_column_blocks(monkeypatch, caller):
    widths = []
    apply = Operator.apply

    def recording_apply(self, variant, f):
        widths.append((variant, f.values.shape[1]))
        return apply(self, variant, f)

    monkeypatch.setattr(Operator, "apply", recording_apply)
    fam = generate_family(seed=4, count=10, d=1.2, packing_target=4.0, k_range=(2, 5))
    if caller == "domination":
        report = check_domination(fam, n_per_side=4, trials=3, seed=1)
        assert report.passed
        # 3 uniforms, 10 square indicators and 3 deltas
        variants, fields = ["adjoint"], 16
    else:
        cloud = build_quadrature(build_measure(fam), 4)
        balls = default_t1_balls(fam, seed=1, max_balls=20)
        report = t1_testing(cloud, balls, op=Operator(cloud, caller[3:]))
        variants, fields = ["modified", "adjoint"], report.n_balls - report.skipped
        assert fields > 2 * _COLUMN_BLOCK
    assert {variant for variant, _ in widths} == set(variants)
    for variant in variants:  # at most a block per apply
        blocks = [w for v, w in widths if v == variant]
        assert sum(blocks) == fields and max(blocks) == _COLUMN_BLOCK < fields


@st.composite
def domination_cases(draw):
    """A generated family of 1 to 6 squares, n 1 to 5, trials 1 to 4."""
    k_lo = draw(st.integers(0, 3))
    fam = generate_family(
        seed=draw(st.integers(0, 2**16)),
        count=draw(st.integers(1, 6)),
        d=draw(st.sampled_from([0.4, 1.2, 1.8])),
        packing_target=8.0,
        k_range=(k_lo, k_lo + draw(st.integers(0, 3))),
    )
    return fam, draw(st.integers(1, 5)), draw(st.integers(1, 4)), draw(st.integers(0, 2**16))


@given(domination_cases())
@settings(max_examples=40)
@example((SquareFamily.build([DyadicSquare(0, 0, 0)], 1.0, 4.0), 4, 2, 0))  # c_dom = 0, no witness
@example((SquareFamily.build([DyadicSquare(2, c, 0) for c in (0, 3)], 1.2, 4.0), 4, 1, 0))  # mirror squares
def test_pruned_domination_matches_the_exact_reference(case):
    fam, n, trials, seed = case
    report = check_domination(fam, n_per_side=n, trials=trials, seed=seed)
    cloud = build_quadrature(build_measure(fam), n)
    fields = verify._domination_fields(cloud, trials, seed)
    c_dom, field, node = domination_reference(cloud, [f for _, f in fields])
    assert_same_bits(np.float64(report.constants["c_dom"]), np.float64(c_dom))
    assert report.witnesses["field"] == (None if field is None else fields[field][0])
    assert report.witnesses["node"] == node


def test_domination_report_in_ladder_mode_ignores_ratio_of(monkeypatch):
    # above EXACT_LIMIT M f is the ladder value, so there is nothing to prune
    monkeypatch.setattr(operators, "EXACT_LIMIT", 0)
    fam = generate_family(seed=4, count=10, d=1.2, packing_target=4.0, k_range=(2, 5))
    with_ratio = check_domination(fam, n_per_side=4, trials=3, seed=1)
    maximal = verify._maximal_many
    monkeypatch.setattr(verify, "_maximal_many", lambda cloud, fields, ratio_of: maximal(cloud, fields))
    without = check_domination(fam, n_per_side=4, trials=3, seed=1)
    assert canonical_json(with_ratio.to_json_dict(include_runtime=False)) == canonical_json(without.to_json_dict(include_runtime=False))


def test_domination_releases_the_kernel_matrix_before_the_maximal_pass(monkeypatch):
    held = []
    maximal = verify._maximal_many

    def spy(cloud, fields, ratio_of):
        gc.collect()
        held.extend(o for o in gc.get_objects() if isinstance(o, Operator) and o.cloud is cloud)
        return maximal(cloud, fields, ratio_of=ratio_of)

    monkeypatch.setattr(verify, "_maximal_many", spy)
    fam = generate_family(seed=4, count=10, d=1.2, packing_target=4.0, k_range=(2, 5))
    assert check_domination(fam, n_per_side=4, trials=3, seed=1).passed
    assert held == []


# sha256 of check_domination(...)'s canonical JSON without runtime, computed
# with the maximal function exact at every node: the benchmark's
# small_direct families (seed = index of d, 32 squares, n = 6, trials 4)
# and acceptance criterion 4's family (seed 21, 24 squares, d 1.2, n = 6,
# trials 2)
DOMINATION_DIGESTS = {
    ("direct", 0.8, 0): "f4087451fbecffd281493deeb244b2e92f1632065d2a7d1fa21d8789c18f0423",
    ("direct", 0.8, 4242): "c0f8edd24a0901881f277346a89a2012295854cbc7bcb36b6344580d441b7011",
    ("direct", 1.2, 0): "1e3f8ef6f0974381a02b45b57e31d612fbcc0538098aff8696d69dcab38a11a4",
    ("direct", 1.2, 4242): "5165580ee907febd5802ebd1a0ed4d698b0e29c88c5b666013703632567575a3",
    ("direct", 1.6, 0): "42c735f3efd61b1178df5d4375a88cf39604ba4502883005e601c9bcec498b5f",
    ("direct", 1.6, 4242): "e6eab9513489c969f30e04b8813a6131dc0b463334ef6391ef651beff40a863a",
    ("criterion4", 1.2, 0): "eb45cd1acc011283c9c52a4a040f029e4dbe4a30a21bb10796de562fff66c0d7",
    ("criterion4", 1.2, 1): "4928d8880cfd65372f7c7387a85801e92c90bb44bbe7d1847395d8c6e58ff481",
    ("criterion4", 1.2, 2): "acd25c4fddbf07bb160e1e579691eb4686ac71c7660df8c466d123f7e0be5f56",
    ("criterion4", 1.2, 3): "d6c8365bd0f27493432066eb802c0f5cbe1d4f2dccd8c75e9e2f47330c453c1c",
}


@pytest.mark.parametrize("family,d,seed", sorted(DOMINATION_DIGESTS))
def test_domination_reports_are_pinned(family, d, seed):
    if family == "direct":
        fam_seed, count, k_range, trials = [0.8, 1.2, 1.6].index(d), 32, suggest_generation_range(32, d, 4.0), 4
    else:
        fam_seed, count, k_range, trials = 21, 24, (3, 6), 2
    fam = generate_family(seed=fam_seed, count=count, d=d, packing_target=4.0, k_range=k_range)
    report = check_domination(fam, n_per_side=6, trials=trials, seed=seed)
    digest = hashlib.sha256(canonical_json(report.to_json_dict(include_runtime=False)).encode()).hexdigest()
    assert digest == DOMINATION_DIGESTS[(family, d, seed)]


# sha256 of the canonical JSON without runtime of check_main_inequality (n = 6)
# and check_decomposition (n = 4, trials 3) on the small_direct families above,
# and of check_main_inequality on a 47-square, 3,008-node cloud (the tree backend)
CHECK_DIGESTS = {
    ("main", 0.8, 0): "ac1796b9be9fe17a675bfa7831631950f101a5ca683c298c6782fd1996705d7d",
    ("main", 0.8, 4242): "a4c0bc6eb34e704fd29bfb64b129536ba9510c220bc2e0cfc4d4fdacbf8e0b3a",
    ("main", 1.2, 0): "74c8951dd725dc4eccceb035e1fb98c403302bb35451a3895c3aa17e39ed9e2a",
    ("main", 1.2, 4242): "63652f5d1363cd01d0b6eeb5ae609b04ed0ac969984999dfbf15630a2c7df908",
    ("main", 1.6, 0): "b2ff3d2a148c2dd10191bdd6140661e22ae45473b4a9cb31cd7565a5fdab599a",
    ("main", 1.6, 4242): "afcec1640fcbac820079f53a7a43e357ac556a0b2f071549664bc1832fb696a6",
    ("main-tree", 1.2, 0): "b75cea552eafbcd8d5612e50811b099bbbed8dcfce00986696a1d7aff76f68a9",
    ("decomposition", 0.8, 0): "12cf1d529072476f341f504e5c51cdfca48d2c9aa0864c6df587d4b16cc1f20c",
    ("decomposition", 0.8, 4242): "af4611bf131a0530a03a4a824a05d520b0e6f8d712741490920d5152d37bb7fd",
    ("decomposition", 1.2, 0): "6108e155cb1ae0a13769bd01a52f1b66cf5df0570280631573a2dc51d3df34b9",
    ("decomposition", 1.2, 4242): "c524c0e1be074d0b058570ee81363cc2d7bf53df945f778c3ce73009411d2972",
    ("decomposition", 1.6, 0): "57577c44ba89667f50e6589d28ff12015f58fbb3b855e18c2f02ecdb78e15ca9",
    ("decomposition", 1.6, 4242): "9df7db8a14188ad3522a510154f74c9dbd02bb127ff2322dc1ae3f5938959c0c",
}


@pytest.mark.parametrize("check,d,seed", sorted(CHECK_DIGESTS))
def test_main_inequality_and_decomposition_reports_are_pinned(check, d, seed):
    if check == "main-tree":
        fam = generate_family(seed=1, count=47, d=d, packing_target=4.0, k_range=suggest_generation_range(47, d, 4.0))
        report = check_main_inequality(fam, n_per_side=8, seed=seed)
        assert report.inputs["fast"] is True
    else:
        k_range = suggest_generation_range(32, d, 4.0)
        fam = generate_family(seed=[0.8, 1.2, 1.6].index(d), count=32, d=d, packing_target=4.0, k_range=k_range)
        if check == "main":
            report = check_main_inequality(fam, n_per_side=6, seed=seed)
        else:
            report = check_decomposition(fam, n_per_side=4, trials=3, seed=seed)
    digest = hashlib.sha256(canonical_json(report.to_json_dict(include_runtime=False)).encode()).hexdigest()
    assert digest == CHECK_DIGESTS[(check, d, seed)]


@pytest.mark.parametrize("seed,count,n", [(4, 10, 4), (5, 5, 3)])
def test_dense_pair_matches_on_the_fly_applies_bit_for_bit(monkeypatch, seed, count, n):
    fam = generate_family(seed=seed, count=count, d=1.2, packing_target=4.0, k_range=(2, 5))
    cloud = build_quadrature(build_measure(fam), n)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((len(cloud), 3)) + 1j * rng.standard_normal((len(cloud), 3))
    # the cached kernel strips, then the strips recomputed per apply above the threshold
    for threshold, matrix in [(FAST_NODE_THRESHOLD, True), (0, False)]:
        monkeypatch.setattr(operators, "FAST_NODE_THRESHOLD", threshold)
        op = verify._direct_apply_pair(fam, cloud)
        for variant in VARIANT_RULES:
            spec = KernelSpec(variant, fam)
            for op_fn, ref_fn in [(op.apply, apply_direct), (op.adjoint, adjoint_apply_direct)]:
                batched = op_fn(variant, Field(vals, "mu")).values
                assert batched.shape == vals.shape
                assert np.array_equal(batched, ref_fn(spec, cloud, Field(vals, "mu")).values)
                for j in range(vals.shape[1]):
                    single = op_fn(variant, Field(vals[:, j], "mu")).values
                    assert single.shape == (len(cloud),)
                    assert np.array_equal(single, ref_fn(spec, cloud, Field(vals[:, j], "mu")).values)
                    assert np.array_equal(batched[:, j], single)
        # 19 fields in blocks of at most _COLUMN_BLOCK, each image bit for bit its own apply
        fields = [Field(v, "mu") for v in rng.standard_normal((19, len(cloud))) + 1j * rng.standard_normal((19, len(cloud)))]
        for f, image in zip(fields, op.images("adjoint", fields), strict=True):
            assert np.array_equal(image, op.apply("adjoint", f).values)
        assert bool(op._strips[1]) is matrix


def _counting_dense_sums(monkeypatch):
    """Patch the dense layer to record each ``Operator`` apply, each
    ``_cauchy_square_apply`` call (whether it passes a cache) and each kernel
    fill (mode, first column, whether it goes to the cache)."""
    seen = {"applies": [], "sums": [], "fills": []}
    sums, cauchy, fill = Operator._sums, operators._cauchy_square_apply, operators.kernel_block

    def counting_sums(self, *args, **kwargs):
        seen["applies"].append(self.backend)
        return sums(self, *args, **kwargs)

    def counting_cauchy(*args, cache=None, **kwargs):
        seen["sums"].append(cache is not None)
        return cauchy(*args, cache=cache, **kwargs)

    def counting_fill(cloud, mode, p, q, out=None):
        seen["fills"].append((mode, q.start or 0, out is None))
        return fill(cloud, mode, p, q, out)

    monkeypatch.setattr(Operator, "_sums", counting_sums)
    monkeypatch.setattr(operators, "_cauchy_square_apply", counting_cauchy)
    monkeypatch.setattr(operators, "kernel_block", counting_fill)
    return seen


def test_main_inequality_assembles_the_dense_kernel_once(monkeypatch):
    seen = _counting_dense_sums(monkeypatch)
    monkeypatch.setattr(operators, "_ROW_BLOCK", 64)
    fam = generate_family(seed=4, count=10, d=1.2, packing_target=4.0, k_range=(2, 5))
    cloud = build_quadrature(build_measure(fam), 4)
    assert 64 < len(cloud) <= FAST_NODE_THRESHOLD
    blocks = [("cross_square", s, True) for s in range(0, len(cloud), 64)]
    verify._direct_apply_pair(fam, cloud)
    assert seen["fills"] == []  # the strips wait for the first apply
    monkeypatch.setattr(verify, "MAIN_TRIALS", 3)
    for checks in (1, 2):
        report = check_main_inequality(fam, n_per_side=4, seed=1)
        assert report.passed and report.inputs["fast"] is False
        assert report.constants["iterations"] > 2
        # one fill of each strip per check serves every norm iteration and trial field
        assert seen["fills"] == blocks * checks
    est = operator_norm(KernelSpec("adjoint", fam), cloud, seed=1)
    assert est.iterations > 2
    assert seen["fills"] == blocks * 3
    assert all(seen["sums"]) and len(seen["sums"]) == len(seen["applies"])


@pytest.mark.parametrize("check", ["main_inequality", "domination"])
def test_dense_checks_send_every_apply_through_the_blocked_sums(monkeypatch, check):
    seen = _counting_dense_sums(monkeypatch)
    monkeypatch.setattr(operators, "_ROW_BLOCK", 64)
    monkeypatch.setattr(verify, "MAIN_TRIALS", 3)
    fam = generate_family(seed=4, count=10, d=1.2, packing_target=4.0, k_range=(2, 5))
    n = len(build_quadrature(build_measure(fam), 4))
    assert 64 < n <= FAST_NODE_THRESHOLD
    if check == "main_inequality":
        report = check_main_inequality(fam, n_per_side=4, seed=1)
        # an apply per norm step, an adjoint per step but the last, one apply for the trials
        assert len(seen["applies"]) == 2 * report.constants["iterations"]
    else:
        report = check_domination(fam, n_per_side=4, trials=3, seed=1)
        assert len(seen["applies"]) == math.ceil((3 + 10 + 3) / _COLUMN_BLOCK)
    assert report.passed and report.inputs["fast"] is False
    assert seen["applies"] == ["dense"] * len(seen["applies"])
    # every operator apply is one cached call of the dense sums, each strip
    # filled once; the domination check's reconstruction adds one uncached call
    cached = [s for s in seen["sums"] if s]
    assert len(cached) == len(seen["applies"])
    assert len(seen["sums"]) - len(cached) == (check == "domination")
    fills = [fill for fill in seen["fills"] if fill[2]]
    assert fills == [("cross_square", s, True) for s in range(0, n, 64)]


class OnTheFlyOperator(Operator):
    """The dense backend's interface over the on-the-fly reference sums."""

    def apply(self, variant, f):
        return apply_direct(KernelSpec(variant, self.cloud.family), self.cloud, f)

    def adjoint(self, variant, f):
        return adjoint_apply_direct(KernelSpec(variant, self.cloud.family), self.cloud, f)


def test_checks_through_the_dense_kernel_match_on_the_fly_sums(monkeypatch):
    fam = generate_family(seed=4, count=10, d=1.2, packing_target=4.0, k_range=(2, 5))
    monkeypatch.setattr(verify, "MAIN_TRIALS", 3)
    cached = [
        check_main_inequality(fam, n_per_side=4, seed=1),
        check_domination(fam, n_per_side=4, trials=3, seed=1),
    ]
    monkeypatch.setattr(verify, "_direct_apply_pair", lambda family, cloud: OnTheFlyOperator(cloud, "dense"))
    seen = _counting_dense_sums(monkeypatch)
    reference = [
        check_main_inequality(fam, n_per_side=4, seed=1),
        check_domination(fam, n_per_side=4, trials=3, seed=1),
    ]
    assert seen["sums"] and not any(seen["sums"])  # the reference never reaches a block cache
    for got, ref in zip(cached, reference):
        assert canonical_json(got.to_json_dict(include_runtime=False)) == canonical_json(ref.to_json_dict(include_runtime=False))


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


def test_main_inequality_two_square_dense_oracle(monkeypatch):
    fam = SquareFamily.build([DyadicSquare(0, 0, 0), DyadicSquare(0, 6, 1)], 1.2, 16.0)
    cloud = build_quadrature(build_measure(fam), 2)
    for name, value in (("MAIN_TRIALS", 6), ("MAIN_NORM_TOL", 1e-10), ("MAIN_NORM_MAX_ITER", 5000)):
        monkeypatch.setattr(verify, name, value)
    report = check_main_inequality(fam, n_per_side=2, seed=0)
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


def test_main_inequality_fast_norm_matches_dense(monkeypatch):
    fam = generate_family(seed=5, count=33, d=1.2, packing_target=4.0, k_range=(4, 6))
    cloud = build_quadrature(build_measure(fam), 8)
    assert len(cloud) > FAST_NODE_THRESHOLD
    monkeypatch.setattr(verify, "MAIN_TRIALS", 2)
    monkeypatch.setattr(verify, "MAIN_NORM_TOL", 1e-4)
    report = check_main_inequality(fam, n_per_side=8, seed=2)
    assert report.inputs["fast"] is True
    assert report.passed
    dense = operator_norm(KernelSpec("adjoint", fam), cloud, tol=1e-4, seed=2)
    assert report.constants["sigma_max"] == pytest.approx(dense.sigma_max, rel=1e-5)


def test_main_inequality_single_square_zero(monkeypatch):
    fam = SquareFamily.build([DyadicSquare(0, 0, 0)], 1.0, 4.0)
    monkeypatch.setattr(verify, "MAIN_TRIALS", 3)
    report = check_main_inequality(fam, n_per_side=3, seed=0)
    assert report.passed
    assert report.constants["sigma_max"] == 0.0


def test_reports_reproducible_modulo_runtime(monkeypatch):
    fam = generate_family(seed=5, count=5, d=1.1, packing_target=4.0, k_range=(2, 4))
    a = check_domination(fam, n_per_side=3, trials=2, seed=9)
    b = check_domination(fam, n_per_side=3, trials=2, seed=9)
    assert canonical_json(a.to_json_dict(include_runtime=False)) == canonical_json(b.to_json_dict(include_runtime=False))
    monkeypatch.setattr(verify, "MAIN_TRIALS", 2)
    c = check_main_inequality(fam, n_per_side=3, seed=9)
    d = check_main_inequality(fam, n_per_side=3, seed=9)
    assert canonical_json(c.to_json_dict(include_runtime=False)) == canonical_json(d.to_json_dict(include_runtime=False))


def test_scaling_study_rows_and_determinism():
    rows1, t1 = scaling_study(d=1.2, packing_target=4.0, m_ladder=[2, 4], n_per_side=3, seed=7)
    rows2, t2 = scaling_study(d=1.2, packing_target=4.0, m_ladder=[2, 4], n_per_side=3, seed=7)
    assert rows1 == rows2
    assert len(rows1) == 2 and len(rows1[0]) == len(SCALING_HEADER)
    for row in rows1:
        assert row[2] is True  # complete
        assert float(row[6]) <= 4.0  # c_pack within target
        assert math.isfinite(float(row[8]))


def test_scaling_study_samples_every_node_of_a_small_cloud(monkeypatch):
    # at n <= MAXIMAL_TARGET_CAP the sorted draw is every node in order, for
    # the growth centres and for the maximal targets alike
    seen = {}

    def growth_spy(cloud, centers):
        seen["cloud"], seen["centers"] = cloud, centers
        return growth_constant(cloud, centers)

    def maximal_spy(cloud, fields, targets):
        seen["targets"] = targets
        return _maximal_many(cloud, fields, targets=targets)

    monkeypatch.setattr(verify, "growth_constant", growth_spy)
    monkeypatch.setattr(verify, "_maximal_many", maximal_spy)
    scaling_study(d=1.2, packing_target=4.0, m_ladder=[4], n_per_side=3, seed=7)
    n = len(seen["cloud"])
    assert n <= verify.MAXIMAL_TARGET_CAP
    assert_same_bits(np.asarray(seen["centers"]), seen["cloud"].xy)
    assert np.array_equal(seen["targets"], np.arange(n)) and seen["targets"].dtype == np.int64


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

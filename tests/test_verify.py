import gc
import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhcz.geometry import DyadicSquare, SquareFamily, generate_family, suggest_generation_range
from nhcz.kernels import VARIANTS, KernelSpec
from nhcz.measure import build_measure, build_quadrature
from nhcz.operators import Field, Operator, adjoint_apply_direct, apply_direct, operator_norm
from nhcz import operators, verify
from nhcz.fastsum import _COLUMN_BLOCK
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


def test_domination_applies_its_fields_in_column_blocks(monkeypatch):
    widths = []
    apply = Operator.apply

    def recording_apply(self, variant, f):
        widths.append((variant, f.values.shape[1]))
        return apply(self, variant, f)

    monkeypatch.setattr(Operator, "apply", recording_apply)
    fam = generate_family(seed=4, count=10, d=1.2, packing_target=4.0, k_range=(2, 5))
    report = check_domination(fam, n_per_side=4, trials=3, seed=1)
    assert report.passed
    assert {variant for variant, _ in widths} == {"adjoint"}
    widths = [w for _, w in widths]
    # 3 uniforms, 10 square indicators and 3 deltas, at most a block per apply
    assert sum(widths) == 16 and max(widths) == _COLUMN_BLOCK < 16


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
    ("direct", 1.6, 0): "ddb8e32e8809ef6a648c34b20b4ba78bf16d714b1719a1e968e5de31a87c8eb8",
    ("direct", 1.6, 4242): "c55680b9d8f9fab0f65241c135aeb8dd3bacce4fe6b18283cd8fd68e7556ac8a",
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


@pytest.mark.parametrize("seed,count,n", [(4, 10, 4), (5, 5, 3)])
def test_dense_pair_matches_on_the_fly_applies_bit_for_bit(monkeypatch, seed, count, n):
    fam = generate_family(seed=seed, count=count, d=1.2, packing_target=4.0, k_range=(2, 5))
    cloud = build_quadrature(build_measure(fam), n)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((len(cloud), 3)) + 1j * rng.standard_normal((len(cloud), 3))
    # the kernel matrix, then the blocked sums the dense backend runs above the threshold
    for threshold, matrix in [(FAST_NODE_THRESHOLD, True), (0, False)]:
        monkeypatch.setattr(operators, "FAST_NODE_THRESHOLD", threshold)
        op = verify._direct_apply_pair(fam, cloud)
        for variant in VARIANTS:
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
        assert (op._kernel is not None) is matrix


def test_main_inequality_assembles_the_dense_kernel_once(monkeypatch):
    assembled, on_the_fly = [], []
    assemble, cauchy = operators.kernel_matrix, operators._cauchy_square_apply

    def counting_assemble(cloud, mode, *args, **kwargs):
        assembled.append((len(cloud), mode))
        return assemble(cloud, mode, *args, **kwargs)

    def counting_cauchy(*args, **kwargs):
        on_the_fly.append(1)
        return cauchy(*args, **kwargs)

    monkeypatch.setattr(operators, "kernel_matrix", counting_assemble)
    monkeypatch.setattr(operators, "_cauchy_square_apply", counting_cauchy)
    fam = generate_family(seed=4, count=10, d=1.2, packing_target=4.0, k_range=(2, 5))
    cloud = build_quadrature(build_measure(fam), 4)
    assert len(cloud) <= FAST_NODE_THRESHOLD
    verify._direct_apply_pair(fam, cloud)
    assert assembled == []  # the matrix waits for the first apply
    monkeypatch.setattr(verify, "MAIN_TRIALS", 3)
    for checks in (1, 2):
        report = check_main_inequality(fam, n_per_side=4, seed=1)
        assert report.passed and report.inputs["fast"] is False
        assert report.constants["iterations"] > 2
        # one assembly per check serves every norm iteration and trial field
        assert assembled == [(len(cloud), "cross_square")] * checks
        assert on_the_fly == []
    est = operator_norm(KernelSpec("adjoint", fam), cloud, seed=1)
    assert est.iterations > 2
    assert assembled == [(len(cloud), "cross_square")] * 3
    assert on_the_fly == []


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
    monkeypatch.setattr(operators, "kernel_matrix", None)  # the reference must not reach the matrix
    reference = [
        check_main_inequality(fam, n_per_side=4, seed=1),
        check_domination(fam, n_per_side=4, trials=3, seed=1),
    ]
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
    dense = operator_norm(KernelSpec("adjoint", fam), cloud, tol=1e-4, seed=2, threads=2)
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

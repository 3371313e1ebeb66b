"""Orchestrated inequality checks with reproducible reports.

Every check builds a cloud from a family, measures the relevant constants,
and returns a ``VerificationReport`` whose JSON form is reproducible bit for
bit from (family, parameters, seed), wall-clock field aside.  The checks
here and the CLI's cloud checks all go through ``run_on_cloud``, so the
cloud build counts in their ``runtime_s``.  The constants
have no reference values; acceptance is boundedness and stability across
scale ladders, so the scaling study is the main consumer.

Each check picks the backend of its one ``operators.Operator`` once
(``_check_operator``): the treecode above ``FAST_NODE_THRESHOLD`` nodes,
dense otherwise.  Trial and domination fields go through ``Operator.images``,
which sets how many ride in one apply.  The decomposition check stays on
the on-the-fly ``apply_direct`` sums, and the domination reconstruction
reference on ``apply_direct_targets``.  ``check_domination`` and the
scaling rows read c_dom, and the former its witness, with
``operators.domination_constant``.

``benchmark`` is the direct-vs-treecode timing and accuracy ladder of
``nhcz bench``; it sits here, above both sums, rather than in ``fastsum``,
which holds the treecode alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from nhcz.fastsum import ExpansionParams, _max_rel_err, apply_fast, build_tree
from nhcz.geometry import (
    SquareFamily, _scaled_centers_halves, generate_cascade_family, generate_family, suggest_generation_range
)
from nhcz.kernels import KernelSpec, kernel_values
from nhcz.measure import BallQuery, Field, ball_mass, build_quadrature, growth_constant
from nhcz.operators import (
    FAST_NODE_THRESHOLD,
    Operator,
    _maximal_many,
    apply_direct,
    apply_direct_targets,
    default_t1_balls,
    domination_constant,
    field_norm,
    t1_testing,
)
from nhcz.reports import VerificationReport, family_digest, run_check

MAXIMAL_TARGET_CAP = 4096
# power-iteration stopping rule of the scaling study's norm estimates
SCALING_NORM_TOL, SCALING_NORM_MAX_ITER, SCALING_NORM_REL_TOL = 1e-5, 150, 1e-3
# check_main_inequality's random trial fields and its norm estimate's
# stopping rule; the tolerance also bounds a trial's excess over sigma_max^2
MAIN_TRIALS, MAIN_NORM_TOL, MAIN_NORM_MAX_ITER = 8, 1e-6, 500


def run_on_cloud(check: str, work, family: SquareFamily, n_per_side: int, *args) -> VerificationReport:
    """``run_check`` of ``work(family, n_per_side, *args)``, which builds the
    family's ``n_per_side`` quadrature cloud itself, so the clock includes
    the build.  The report's inputs are the family digest, ``n_per_side``
    and those that ``work`` returns."""

    # the cloud is not an argument of ``work``: a cloud the caller holds is
    # freed after the work's arrays, not before them, and with glibc 2.36
    # that free order alone took three check_domination calls on the
    # small_direct families from about 8,800 to 25,500 minor page faults
    def on_cloud():
        inputs, *report = work(family, n_per_side, *args)
        return {"family_digest": family_digest(family), "n_per_side": n_per_side, **inputs}, *report

    return run_check(check, on_cloud)


def _family_inputs(family, seed, **extra):
    return {"squares": len(family), "d": family.d, "packing_target": family.packing_target, "seed": seed, **extra}


def _fast_apply_pair(_family, cloud):
    """The tree ``Operator`` of a check's cloud.  The name predates the
    object; ``benchmarks/tracing.py`` wraps the two constructors by name."""
    return Operator(cloud, "tree")


def _direct_apply_pair(_family, cloud):
    """The dense ``Operator`` of a check's cloud, named for the tracer as
    ``_fast_apply_pair`` is.  Its cached kernel strips are computed at the
    first apply and freed with the object, so ``check_domination`` drops the
    operator before its maximal pass."""
    return Operator(cloud, "dense")


def _check_operator(cloud) -> Operator:
    """A check's one backend choice: the tree above ``FAST_NODE_THRESHOLD`` nodes."""
    pair = _fast_apply_pair if len(cloud) > FAST_NODE_THRESHOLD else _direct_apply_pair
    return pair(cloud.family, cloud)


def check_main_inequality(family: SquareFamily, n_per_side: int = 8, seed: int = 0) -> VerificationReport:
    """Operator-norm bound for the adjoint-kernel operator on the measure.

    Reports the squared norm estimate (tolerance ``MAIN_NORM_TOL``, at most
    ``MAIN_NORM_MAX_ITER`` iterations) next to the largest Rayleigh quotient
    of ``MAIN_TRIALS`` seeded random fields; the latter may not exceed the
    former plus the tolerance.
    """
    return run_on_cloud("main_inequality", _main_inequality, family, n_per_side, seed)


def _main_inequality(family, n_per_side, seed):
    trials, tol = MAIN_TRIALS, MAIN_NORM_TOL
    cloud = build_quadrature(family, n_per_side)
    op = _check_operator(cloud)
    est = op.norm("adjoint", tol, MAIN_NORM_MAX_ITER, seed)
    rng = np.random.default_rng(seed + 1)
    n = len(cloud)
    trial_fields = [Field(rng.standard_normal(n) + 1j * rng.standard_normal(n), "mu") for _ in range(trials)]
    max_ratio, max_trial = 0.0, -1
    for t, (f, image) in enumerate(zip(trial_fields, op.images("adjoint", trial_fields))):
        r = (field_norm(cloud, Field(image, "mu")) / field_norm(cloud, f)) ** 2
        if r > max_ratio:
            max_ratio, max_trial = r, t
    constants = {
        "sigma_max": est.sigma_max,
        "sigma_max_sq": est.sigma_max**2,
        "max_field_ratio": max_ratio,
        "iterations": est.iterations,
        "residual": est.residual,
        "converged": est.converged,
    }
    inputs = _family_inputs(family, seed, trials=trials, tol=tol, fast=op.backend == "tree")
    passed = est.converged and max_ratio <= est.sigma_max**2 + tol
    return inputs, constants, {"max_ratio_trial": max_trial}, {"field_ratio_excess": tol}, passed


def _annulus_of(geom, j, i) -> int:
    """Annulus index of square i around square j from the integer centers
    and half-sides of ``_scaled_centers_halves``."""
    cx, cy, h = geom
    dist = max(abs(cx[i] - cx[j]), abs(cy[i] - cy[j]))
    a = 0
    while (h[j] << (a + 1)) < dist:
        a += 1
    return a


def _annulus_audits(family):
    """Exact integer audits of the annulus geometry over all ordered pairs:
    minimal index, and containment of each annulus square in the ball of
    radius 8 * 2^(a+1) * side_j around any point of Q_j.  Also returns the
    table whose row j holds the annulus index of each square i != j around
    square j (None at i = j)."""
    geom = cx, cy, h = _scaled_centers_halves(family.squares)
    m = len(family.squares)
    min_a = None
    containment_violations = 0
    table = [[None] * m for _ in range(m)]
    for j in range(m):
        for i in range(m):
            if i == j:
                continue
            a = table[j][i] = _annulus_of(geom, j, i)
            if min_a is None or a < min_a:
                min_a = a
            # farthest point pair between the two closed squares, exactly
            dx = max(abs(cx[i] - cx[j]) + h[i] + h[j], 0)
            dy = max(abs(cy[i] - cy[j]) + h[i] + h[j], 0)
            r_int = (2 * h[j]) << (a + 4)  # 8 * 2^(a+1) * side_j, scaled
            if dx * dx + dy * dy > r_int * r_int:
                containment_violations += 1
    return min_a, containment_violations, table


def _domination_fields(cloud, trials, seed, max_indicators=None, deltas=3):
    """Nonnegative trial fields: seeded uniforms, square indicators, deltas.

    By default every square indicator is included, so the dominating
    structured configuration is covered on every run and only the random
    fields vary with the seed.
    """
    rng = np.random.default_rng(seed)
    n = len(cloud)
    fields = []
    for t in range(trials):
        fields.append((f"uniform[{t}]", Field(rng.uniform(0.0, 1.0, size=n), "mu")))
    m = len(cloud.family)
    if max_indicators is None or max_indicators >= m:
        chosen = range(m)
    else:
        chosen = sorted(rng.choice(m, size=max_indicators, replace=False).tolist())
    for sq in chosen:
        fields.append((f"indicator[{sq}]", Field((cloud.square_index == sq).astype(np.complex128), "mu")))
    for p in sorted(rng.choice(n, size=min(n, deltas), replace=False).tolist()):
        vals = np.zeros(n, dtype=np.complex128)
        vals[p] = 1.0
        fields.append((f"delta[{p}]", Field(vals, "mu")))
    return fields


def check_domination(
    family: SquareFamily,
    n_per_side: int = 8,
    trials: int = 4,
    seed: int = 0,
) -> VerificationReport:
    """Pointwise bound of the adjoint-kernel operator by the dilated maximal
    operator, with exact annulus-geometry audits and a per-annulus breakdown
    of the witness value.

    c_dom is the largest |T'f(x)| / M f(x) over the trial fields and nodes
    (0 where M f is 0), and the witness is its first occurrence in field
    order, then node order, as ``operators.domination_constant`` reads
    them.  The images come first and go to
    ``_maximal_many`` as ``ratio_of``, so M f is exact only at the pairs
    whose ratio the ladder bounds cannot rule out: every other pair gets an
    upper bound of M f, which lowers a ratio already below the largest.
    c_dom and its witness are those of the exact M f at every pair.  The
    operator, with any cached dense kernel, is released before that pass.
    """
    return run_on_cloud("domination", _domination, family, n_per_side, trials, seed)


def _domination(family, n_per_side, trials, seed):
    cloud = build_quadrature(family, n_per_side)
    op = _check_operator(cloud)
    fields = _domination_fields(cloud, trials, seed)
    tfs = [np.abs(image) for image in op.images("adjoint", [f for _, f in fields])]
    fast = op.backend == "tree"
    del op  # a cached dense kernel goes with it, before the maximal pass
    maximal = _maximal_many(cloud, [f for _, f in fields], ratio_of=tfs)
    c_dom, fi, node = domination_constant(tfs, maximal)
    label, witness_f = (None, None) if fi is None else fields[fi]
    witness = {"field": label, "node": node}
    min_a, containment_violations, annuli = _annulus_audits(family)

    diagnostics = []
    partition_ok = True
    reconstruction_ok = True
    if witness_f is not None and len(family) > 1:
        j = int(cloud.square_index[node])
        by_a: dict[int, list[int]] = {}
        for i, a in enumerate(annuli[j]):
            if i != j:
                by_a.setdefault(a, []).append(i)
        partition_ok = sum(len(v) for v in by_a.values()) == len(family) - 1
        adj = KernelSpec("adjoint", family)
        contrib = kernel_values(adj, cloud, node, slice(None)) * witness_f.values * cloud.mu_weight
        total = 0j
        x = (float(cloud.xy[node, 0]), float(cloud.xy[node, 1]))
        ell_j = family.squares[j].side
        for a in sorted(by_a):
            sel = np.isin(cloud.square_index, by_a[a])
            part = complex(contrib[sel].sum())
            total += part
            r_a = 8.0 * 2.0 ** (a + 1) * ell_j
            # one dilate-annulus family around the witness square
            diagnostics.append(
                {
                    "a": a,
                    "member_count": len(by_a[a]),
                    "R_a": r_a,
                    "partial_abs": abs(part),
                    "ball_mass_R_a": ball_mass(cloud, BallQuery(x[0], x[1], r_a)),
                    "ball_mass_3R_a": ball_mass(cloud, BallQuery(x[0], x[1], 3.0 * r_a)),
                }
            )
        full = complex(apply_direct_targets(adj, cloud, witness_f, [node])[0])
        reconstruction_ok = abs(total - full) <= 1e-12 * max(abs(full), 1e-300) + 1e-300

    passed = (
        math.isfinite(c_dom)
        and (min_a is None or min_a >= 2)
        and containment_violations == 0
        and partition_ok
        and reconstruction_ok
    )
    constants = {
        "c_dom": c_dom,
        "min_annulus_index": min_a,
        "containment_violations": containment_violations,
        "partition_ok": partition_ok,
        "reconstruction_ok": reconstruction_ok,
    }
    witnesses = {**witness, "annuli": diagnostics}
    thresholds = {"min_annulus_index": 2, "containment_violations": 0}
    return _family_inputs(family, seed, trials=trials, fast=fast), constants, witnesses, thresholds, passed


def check_decomposition(
    family: SquareFamily,
    n_per_side: int = 4,
    trials: int = 4,
    seed: int = 0,
    rel_tol: float = 1e-12,
) -> VerificationReport:
    """Identity between the full-kernel operator and the sum of the
    measure-weighted modified operator and the local operator.

    The discrete sums regroup term by term, so the deviation is roundoff,
    not quadrature error.
    """
    return run_on_cloud("decomposition", _decomposition, family, n_per_side, trials, seed, rel_tol)


def _decomposition(family, n_per_side, trials, seed, rel_tol):
    cloud = build_quadrature(family, n_per_side)
    rng = np.random.default_rng(seed)
    full = KernelSpec("full", family)
    mod = KernelSpec("modified", family)
    loc = KernelSpec("local", family)
    # the trials, drawn one after another, are the columns of one field; each
    # column's sums do not depend on the columns beside it
    values = np.empty((len(cloud), trials), dtype=np.complex128)
    for j in range(trials):
        values[:, j] = rng.standard_normal(len(cloud)) + 1j * rng.standard_normal(len(cloud))
    f = Field(values, "mu")
    lhs = apply_direct(full, cloud, f).values
    rhs = apply_direct(mod, cloud, f).values + apply_direct(loc, cloud, f).values
    worst = 0.0
    for j in range(trials):
        scale = max(float(np.abs(lhs[:, j]).max()), 1e-300)
        worst = max(worst, float(np.abs(lhs[:, j] - rhs[:, j]).max()) / scale)
    inputs = _family_inputs(family, seed, trials=trials)
    return inputs, {"max_rel_deviation": worst}, {}, {"max_rel_deviation": rel_tol}, worst <= rel_tol


SCALING_HEADER = [
    "M",
    "generated",
    "complete",
    "n_nodes",
    "d",
    "packing_target",
    "c_pack",
    "c_growth",
    "sigma_max",
    "sigma_converged",
    "c_dom",
    "c_max_op",
    "sup_t1",
    "sup_t1_adjoint",
    "seed",
]


def scaling_study(d: float, packing_target: float, m_ladder, n_per_side: int = 8, seed: int = 0):
    """One row of measured constants per requested family size.

    Returns (rows, timings): ``rows`` hold only deterministic values (fit for
    byte-identical CSV), ``timings`` the per-row wall-clock seconds.
    """
    rows, timings = [], []
    for idx, m_req in enumerate(m_ladder):
        t0 = time.perf_counter()
        fam_seed = 1_000_003 * seed + m_req
        fam = generate_cascade_family(seed=fam_seed, count=m_req, d=d, packing_target=packing_target)
        cloud = build_quadrature(fam, n_per_side)
        # growth centres and maximal targets: a sorted draw of at most
        # MAXIMAL_TARGET_CAP nodes, which is every node in order on a small
        # cloud; the exhaustive per-node audit lives in check_domination
        picks = min(len(cloud), MAXIMAL_TARGET_CAP)
        g_rng = np.random.default_rng(seed + 77 * idx)
        c_growth, _ = growth_constant(cloud, centers=cloud.xy[np.sort(g_rng.choice(len(cloud), picks, replace=False))])
        op = _check_operator(cloud)
        est = op.norm("adjoint", SCALING_NORM_TOL, SCALING_NORM_MAX_ITER, seed, SCALING_NORM_REL_TOL)
        dom_fields = _domination_fields(cloud, trials=2, seed=seed + idx, max_indicators=2, deltas=1)
        rng = np.random.default_rng(seed + 31 * idx)
        norm_fields = [
            ("random", Field(rng.standard_normal(len(cloud)) + 1j * rng.standard_normal(len(cloud)), "mu"))
            for _ in range(2)
        ]
        all_fields = dom_fields + norm_fields
        targets = np.sort(rng.choice(len(cloud), picks, replace=False))
        maximal = _maximal_many(cloud, [f for _, f in all_fields], targets=targets)
        tfs = [np.abs(image[targets]) for image in op.images("adjoint", [f for _, f in dom_fields])]
        c_dom = domination_constant(tfs, maximal[: len(dom_fields)])[0]
        c_max_op = 0.0
        mu_t = cloud.mu_weight[targets]
        for (label, f), mf in zip(all_fields, maximal):
            num = math.sqrt(float(np.sum(mu_t * mf**2)))
            den = math.sqrt(float(np.sum(mu_t * np.abs(f.values[targets]) ** 2)))
            if den > 0:
                c_max_op = max(c_max_op, num / den)
        balls = default_t1_balls(fam, seed=seed, max_balls=16)
        t1 = t1_testing(cloud, balls, op=op)
        rows.append(
            [
                m_req,
                len(fam),
                fam.complete,
                len(cloud),
                repr(float(d)),
                repr(float(packing_target)),
                repr(fam.c_pack),
                repr(c_growth),
                repr(est.sigma_max),
                est.converged,
                repr(c_dom),
                repr(c_max_op),
                repr(t1.sup_t),
                repr(t1.sup_t_adjoint),
                seed,
            ]
        )
        timings.append(time.perf_counter() - t0)
    return rows, timings


@dataclass
class BenchRow:
    n: int
    t_direct_ms: float
    t_fast_ms: float
    speedup: float
    max_rel_err: float
    p: int
    theta: float
    seed: int
    direct_exact: bool  # False when the direct timing is extrapolated from a target subsample

    def csv_row(self):
        return [
            self.n,
            repr(self.t_direct_ms),
            repr(self.t_fast_ms),
            repr(self.speedup),
            repr(self.max_rel_err),
            self.p,
            repr(self.theta),
            self.seed,
            self.direct_exact,
        ]


BENCH_HEADER = ["N", "t_direct_ms", "t_fast_ms", "speedup", "max_rel_err", "p", "theta", "seed", "direct_exact"]
# the benchmark's families and clouds, and the node count above which its
# direct pass runs on BENCH_ORACLE_TARGETS seeded targets; read at call time
BENCH_PACKING_TARGET = 4.0
BENCH_N_PER_SIDE = 16
BENCH_ORACLE_TARGETS = 512
BENCH_DIRECT_LIMIT = 12_000


def benchmark(sizes, params: ExpansionParams | None = None, seed: int = 0, d: float = 1.2) -> list[BenchRow]:
    """Direct-vs-fast timing and accuracy ladder on generated clouds.

    Above ``BENCH_DIRECT_LIMIT`` nodes the direct pass runs on a seeded
    target subsample; its wall time is scaled up to full size and the row is
    marked as extrapolated.
    """
    if not sizes:
        raise ValueError("need at least one benchmark size")
    params = params or ExpansionParams()
    rows = []
    for si, size in enumerate(sizes):
        m_count = max(int(math.ceil(size / BENCH_N_PER_SIDE**2)), 2)
        fam = generate_family(
            seed=1_000_003 * seed + si,
            count=m_count,
            d=d,
            packing_target=BENCH_PACKING_TARGET,
            k_range=suggest_generation_range(m_count, d, BENCH_PACKING_TARGET),
        )
        cloud = build_quadrature(fam, BENCH_N_PER_SIDE)
        n = len(cloud)
        rng = np.random.default_rng(seed + si)
        f = Field(rng.standard_normal(n) + 1j * rng.standard_normal(n), "mu")
        spec = KernelSpec("modified", fam)

        t0 = time.perf_counter()
        tree = build_tree(cloud, params.leaf_cap)
        fast = apply_fast(spec, tree, f, params)
        t_fast = (time.perf_counter() - t0) * 1e3

        if n <= BENCH_DIRECT_LIMIT:
            t0 = time.perf_counter()
            direct = apply_direct(spec, cloud, f).values
            t_direct = (time.perf_counter() - t0) * 1e3
            err = _max_rel_err(fast.values, direct)
            exact = True
        else:
            targets = np.sort(rng.choice(n, size=min(BENCH_ORACLE_TARGETS, n), replace=False))
            t0 = time.perf_counter()
            direct_sub = apply_direct_targets(spec, cloud, f, targets)
            t_direct = (time.perf_counter() - t0) * 1e3 * (n / targets.size)
            err = _max_rel_err(fast.values[targets], direct_sub)
            exact = False
        rows.append(
            BenchRow(n, t_direct, t_fast, t_direct / t_fast, err, params.order, params.theta, seed, exact)
        )
    return rows

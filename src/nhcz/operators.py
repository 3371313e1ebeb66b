"""Discrete operators on quadrature clouds.

Each kernel application reads its variant's row of ``kernels.VARIANT_RULES``.
A forward variant (full, local, modified) sums area-weighted charges; since
the area weight is the measure weight times the source side^d, the modified
kernel integrates against the measure.  A transposed variant (adjoint) sums
measure-weighted charges and scales each output by the target's side^d.
The self-node term of the singular variants is dropped; by midpoint
symmetry the omitted cell's principal value is zero.

``Operator(cloud, backend)`` is the one apply object behind every check,
norm and testing condition; its docstring describes the dense and tree
backends.  ``apply_direct`` evaluates the kernel block of each block of
targets on the fly; it serves any cloud size and stays the independent
reference whose bits the dense backend reproduces.  Norm estimates run
power iteration in the measure-weighted inner product, where the adjoint of
a variant is the same exclusion mode with the transposition flipped, taken
between complex conjugations.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from nhcz.geometry import SquareFamily
from nhcz.kernels import KernelSpec, cauchy_square_block, source_charges, target_scale
from nhcz.measure import BallQuery, QuadratureCloud, _square_ball_sums, ball_mass, dyadic_radius_ladder

FAST_NODE_THRESHOLD = 2048  # largest cloud with a dense kernel matrix; the checks' treecode switch
KAPPA = 3.0  # dilation of the maximal operator M_{mu,3}
EXACT_LIMIT = 4096  # largest cloud whose maximal function takes every node distance as a radius
# targets per block of every on-the-fly sum; bounds its (targets x N) scratch
# arrays.  Read at call time, as are KAPPA and EXACT_LIMIT.
_TARGET_BLOCK = 256
_ROW_BLOCK = 32  # kernel rows per cache-sized block of the column products


@dataclass
class Field:
    """Complex values on cloud nodes, in the measure-weighted inner product;
    ``"mu"`` is the only ``weight`` tag."""

    values: np.ndarray
    weight: str = "mu"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.weight != "mu":
            raise ValueError(f"unknown weight tag {self.weight!r}")


def field_norm(cloud: QuadratureCloud, f: Field) -> float:
    return math.sqrt(float(np.sum(cloud.mu_weight * np.abs(f.values) ** 2)))


def _cauchy_square_apply(cloud, charges, mode, threads=1, targets=None):
    """Sum of charges_q / (z_p - z_q)^2 over the pairs the mode keeps, for
    charges of shape (N,) or (N, k).

    ``targets`` restricts the output to the given node indices (default all).
    """
    tgt = np.arange(len(cloud), dtype=np.int64) if targets is None else np.asarray(targets)
    cols = np.ascontiguousarray(charges.reshape(len(charges), -1).T)
    out = np.empty((tgt.size, cols.shape[0]), dtype=np.complex128)
    block = _TARGET_BLOCK
    starts = range(0, tgt.size, block)

    def run(mine):
        buf = np.empty((min(block, tgt.size), len(cloud)), dtype=np.complex128)
        for b0 in mine:
            rows = tgt[b0 : b0 + block]
            kernel = cauchy_square_block(cloud, rows, mode, buf[: rows.size])
            out[b0 : b0 + rows.size] = _column_products(kernel, cols)

    if threads <= 1:
        run(starts)
    else:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            list(ex.map(run, [starts[i::threads] for i in range(threads)]))
    return out.reshape((tgt.size,) + charges.shape[1:])


def _column_products(kernel, cols):
    """``kernel @ col`` for each row of ``cols``, as the columns of the
    result.

    Every column runs over one block of ``_ROW_BLOCK`` kernel rows while the
    block is in cache.  A row's product is the same zgemv dot in any block
    of two or more rows, so each column's sums equal ``kernel @ col`` bit for
    bit and do not depend on the columns that come with it.  numpy sends a
    one-row product to a dot, which sums in another order, so a lone last
    row joins the block before it, and a kernel of one row is taken as a
    block of that row twice.
    """
    n = kernel.shape[0]
    if n == 1:
        return _column_products(np.concatenate([kernel, kernel]), cols)[:1]
    out = np.empty((n, len(cols)), dtype=np.complex128)
    starts = list(range(0, n, _ROW_BLOCK))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    for r0, r1 in zip(starts, starts[1:] + [n]):
        block = kernel[r0:r1]
        for j, col in enumerate(cols):
            out[r0:r1, j] = block @ col
    return out


def kernel_matrix(cloud: QuadratureCloud, mode: str) -> np.ndarray:
    """The dense (N, N) kernel 1/(z_p - z_q)^2, the pairs the exclusion mode
    drops exact zeros, row for row ``_cauchy_square_apply``'s kernel blocks.

    Each block of ``_TARGET_BLOCK`` rows is written in place into the
    matrix, so the peak is the matrix, 16 N^2 bytes (64 MiB at
    ``FAST_NODE_THRESHOLD`` nodes), plus one block's exclusion mask.
    """
    n, block = len(cloud), _TARGET_BLOCK
    kernel = np.empty((n, n), dtype=np.complex128)
    for b0 in range(0, n, block):
        cauchy_square_block(cloud, np.arange(b0, min(b0 + block, n)), mode, kernel[b0 : b0 + block])
    return kernel


def _apply_rule(spec, cloud, values, transposed, threads, targets=None):
    """Dense sums of the spec's exclusion mode read forward or transposed."""
    charges = source_charges(cloud, values, transposed)
    out = _cauchy_square_apply(cloud, charges, spec.rule[0], threads, targets=targets)
    return target_scale(cloud, spec.d, out, transposed, targets)


def apply_direct(spec: KernelSpec, cloud: QuadratureCloud, f: Field, targets=None) -> Field:
    """Dense kernel application in fixed node order, blocked over targets,
    to a field of shape (N,) or (N, k); the kernel block of each target
    block is computed once for all columns.

    ``targets`` restricts the output to those node indices (default all).
    One (``_TARGET_BLOCK``, N) complex buffer holds every kernel block, so
    the peak is 16 * 256 * N bytes (8 MiB at 2,048 nodes) plus one block's
    exclusion mask and the (targets, k) output.  The dense ``Operator``
    runs the same sums on its ``threads`` threads above
    ``FAST_NODE_THRESHOLD`` nodes, with the same bits.
    """
    if len(f.values) != len(cloud):
        raise ValueError("field length does not match the cloud")
    return Field(_apply_rule(spec, cloud, f.values, spec.rule[1], 1, targets), "mu")


def apply_direct_targets(spec: KernelSpec, cloud: QuadratureCloud, f: Field, targets) -> np.ndarray:
    """``apply_direct`` restricted to the given target nodes (oracle helper)."""
    return apply_direct(spec, cloud, f, targets=targets).values


def adjoint_apply_direct(spec: KernelSpec, cloud: QuadratureCloud, f: Field) -> Field:
    """The measure-weighted adjoint of ``apply_direct`` for the same spec."""
    if len(f.values) != len(cloud):
        raise ValueError("field length does not match the cloud")
    out = _apply_rule(spec, cloud, np.conj(f.values), not spec.rule[1], 1)
    return Field(np.conj(out), "mu")


def maximal_function(cloud: QuadratureCloud, f: Field) -> Field:
    """Dilated maximal function M_{mu,3}: best ratio of the |f|-mass of
    B(x, R) to the measure of B(x, ``KAPPA`` R) over a finite set of
    candidate radii.

    Above ``EXACT_LIMIT`` nodes the candidates are the dyadic radii between
    the finest node spacing and the diameter.  At or below it they are every
    exact node distance, and the ball-sum engine's ladder sums only bound
    which distances need to be looked at (see ``_maximal_many``).
    """
    return Field(_maximal_many(cloud, [f])[0], "mu")


# Relative excess a bracket bound must show over lb_f before the bracket is
# refined.  The engine and a sorted cumulative sum add the same m <= N
# nonnegative terms in different orders, and each lies within
# gamma_N = N u / (1 - N u) of the exact sum (u = 2^-53).  A bracket bound
# and lb_f are each a quotient of two such sums, so the engine's and a sorted
# sum's version of either differ by a factor of at most 1 + 4 gamma_N + 2u:
# 1.82e-12 at N = EXACT_LIMIT = 4096 nodes.  An excess below that gap can be
# rounding alone, and a skipped bracket holds no ratio above
# lb_f (1 + _MARGIN)(1 + 4 gamma_N + 2u).  By the same gap no refined ratio
# exceeds its bracket's bound times 1 + _MARGIN, so
# ub_f = max(lb_f, bracket bounds) (1 + _MARGIN) bounds every value the
# exact mode returns.
_MARGIN = 2e-12


def _maximal_many(cloud, fields, targets=None, ratio_of=None):
    """Maximal-function values for several fields at once.  ``targets``
    restricts the evaluation nodes.

    Both modes take the ladder l_i (base ``finest_spacing``) through the
    square-level ball-sum engine with radii l_i and kappa l_i (kappa =
    ``KAPPA``), for the |f|-masses N_f(l_i) and the measures D(kappa l_i).
    Above ``EXACT_LIMIT`` nodes one engine call covers every target and the
    result is the best ladder ratio.

    At or below it each block of ``_TARGET_BLOCK`` targets makes one engine
    call.  The candidate radii are the node distances, and the ladder radii
    drop out of them: a radius R has the same numerator as the largest node
    distance r <= R, while D(kappa r) <= D(kappa R), since float products,
    cumulative sums of nonnegative weights and IEEE division are monotone.
    The best engine ladder ratio is a lower bound lb_f.  Bracket
    i = (l_{i-1}, l_i], with bracket 0 = [0, l_0], holds no ratio above
    N_f(l_i) / D(kappa l_{i-1}), or above N_f(l_0) over the target's own
    weight for bracket 0; a (target, field, bracket) is refined only when
    that bound exceeds lb_f (1 + ``_MARGIN``).  A refined target sorts its
    nodes within kappa times the outer edge of its last refined bracket
    (stably, so ties keep a full sort's order) and takes prefix sums of the
    weights and of the refined fields' numerators, so each refined ratio is
    bit-identical to a full sort's.  A field's value is the larger of lb_f and
    its best ratio on its own refined brackets, so it does not depend on the
    other fields of the call.

    ``ratio_of`` (exact mode only; ignored above ``EXACT_LIMIT``) holds one
    nonnegative array per field over the targets, the numerators a caller
    will divide by M f, as ``verify.check_domination`` divides |T'f|.  The
    engine pass then also keeps ub_f = max(lb_f, bracket bounds)
    (1 + ``_MARGIN``), which bounds the exact value from above (see
    ``_MARGIN``), and takes the floor L, the largest ratio_of / ub_f over
    the fields whose ratios are all numbers (ratio 0 where lb_f = 0, as the
    caller reads a zero M f).  Only the (target, field) pairs without
    ratio_of / lb_f < L are refined; every other pair returns ub_f.  Such a
    pair's true ratio is at most ratio_of / lb_f < L, and its returned ratio
    ratio_of / ub_f is no larger than the true one, so no pair left out can
    reach or tie the largest ratio, which some refined pair attains with
    its exact value.  The refined entries are bit-identical to the call
    without ``ratio_of``, and the others are no smaller.
    """
    n = len(cloud)
    tgt = np.arange(n, dtype=np.int64) if targets is None else np.asarray(targets)
    kappa2, block = KAPPA * KAPPA, _TARGET_BLOCK
    num_w = np.stack([np.abs(f.values) * cloud.mu_weight for f in fields])
    den_w = cloud.mu_weight
    ladder2 = dyadic_radius_ladder(cloud, base=cloud.finest_spacing) ** 2
    r2 = np.concatenate([ladder2, kappa2 * ladder2])
    weights = np.concatenate([den_w[None], num_w])
    xy = cloud.xy
    rungs = ladder2.size
    if n > EXACT_LIMIT:
        sums = _square_ball_sums(cloud, r2, weights, xy[tgt])
        ratios = sums[:, :rungs, 1:] / sums[:, rungs:, :1]
        return [ratios[:, :, fi].max(axis=1) for fi in range(len(fields))]
    lb, ub = np.empty((len(fields), tgt.size)), np.empty((len(fields), tgt.size))
    refine = np.empty((tgt.size, rungs, len(fields)), dtype=bool)
    for b0 in range(0, tgt.size, block):
        rows_idx = tgt[b0 : b0 + block]
        sums = _square_ball_sums(cloud, r2, weights, xy[rows_idx])
        num, den = sums[:, :rungs, 1:], sums[:, rungs:, :1]
        lo = (num / den).max(axis=1)
        inner = np.concatenate([den_w[rows_idx, None, None], den[:, :-1]], axis=1)
        bound = num / inner  # (block, rung, field)
        rows = slice(b0, b0 + rows_idx.size)
        lb[:, rows] = lo.T
        ub[:, rows] = (np.maximum(lo, bound.max(axis=1)) * (1.0 + _MARGIN)).T
        refine[rows] = bound > lo[:, None, :] * (1.0 + _MARGIN)
    outs = lb
    if ratio_of is not None:
        tf = np.stack(ratio_of)
        with np.errstate(divide="ignore", invalid="ignore"):
            low = np.divide(tf, ub, out=np.zeros_like(ub), where=lb > 0)
            floor = low[~np.isnan(low).any(axis=1)].max(initial=0.0)
            exact = ~(tf / lb < floor)
        refine &= exact.T[:, None, :]
        outs = np.where(exact, lb, ub)
    flags = np.empty(n, dtype=bool)  # scratch for the per-target run and bracket masks
    live_fields, wanted = refine.any(axis=1), refine.any(axis=2)
    for t in live_fields.any(axis=1).nonzero()[0]:
        live, p = live_fields[t].nonzero()[0], tgt[t]
        d2 = (xy[p, 0] - xy[:, 0]) ** 2 + (xy[p, 1] - xy[:, 1]) ** 2
        best = _refined_maximum(d2, refine[t], wanted[t], live, den_w, num_w, ladder2, kappa2, flags)
        outs[live, t] = np.maximum(lb[live, t], best)
    return list(outs)


def _refined_maximum(d2, refine, wanted, live, den_w, num_w, ladder2, kappa2, flags):
    """Best ratio of each ``live`` field over the node distances in its
    refined brackets (``wanted`` marks their union), for one target with
    squared distances ``d2``; ``flags`` is boolean scratch of N entries.
    Method calls and the scratch keep the per-target numpy calls few."""
    edge2 = ladder2[wanted.nonzero()[0][-1]]
    sel = (d2 <= kappa2 * edge2).nonzero()[0]
    order = sel[d2[sel].argsort(kind="stable")]
    row = d2[order]
    inside = row.searchsorted(edge2, side="right")
    bracket = ladder2.searchsorted(row[:inside])
    # a run of equal distances is one candidate, with the run's last prefix
    run_end = flags[:inside]
    np.not_equal(row[1:inside], row[: inside - 1], out=run_end[:-1])
    run_end[-1] = True
    run_end &= wanted[bracket]
    cand = run_end.nonzero()[0]
    di = row.searchsorted(kappa2 * row[cand], side="right")
    di -= 1
    cnum = num_w[live[:, None], order[:inside]].cumsum(axis=1)
    ratios = cnum[:, cand] / den_w[order].cumsum()[di]
    # candidates run in distance order, so each bracket is one slice of them
    held = bracket[cand]
    first = flags[: held.size]
    first[0] = True
    np.not_equal(held[1:], held[:-1], out=first[1:])
    starts = first.nonzero()[0]
    per_bracket = np.maximum.reduceat(ratios, starts, axis=1)
    per_bracket[~refine[held[starts][:, None], live].T] = 0.0
    return per_bracket.max(axis=1)


@dataclass
class NormEstimate:
    sigma_max: float
    iterations: int
    residual: float
    seed: int
    converged: bool
    rayleigh_history: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "sigma_max": self.sigma_max,
            "iterations": self.iterations,
            "residual": self.residual,
            "seed": self.seed,
            "converged": self.converged,
        }


def power_iteration(apply_fn, adjoint_fn, weights, n, tol=1e-6, max_iter=500, seed=0, rel_tol=0.0) -> NormEstimate:
    """Largest singular value in the weighted inner product.

    Iterates v -> T* T v with normalization; stops when successive Rayleigh
    quotients (= ||T v||_w^2 for unit v) differ by less than ``tol``, or by
    less than ``rel_tol`` relative to the current quotient when that is set.
    """
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    nv = math.sqrt(float(np.sum(weights * np.abs(v) ** 2)))
    v = v / nv
    history: list[float] = []
    rho_prev = None
    residual = math.inf
    converged = False
    it = 0
    while it < max_iter:
        it += 1
        u = apply_fn(v)
        rho = float(np.sum(weights * np.abs(u) ** 2))
        history.append(rho)
        if rho == 0.0:
            residual = 0.0
            converged = True
            break
        if rho_prev is not None:
            residual = abs(rho - rho_prev)
            if residual < tol or (rel_tol > 0.0 and residual < rel_tol * rho):
                converged = True
                break
        rho_prev = rho
        w = adjoint_fn(u)
        nw = math.sqrt(float(np.sum(weights * np.abs(w) ** 2)))
        if nw == 0.0:
            converged = True
            residual = 0.0
            break
        v = w / nw
    sigma = math.sqrt(history[-1]) if history else 0.0
    return NormEstimate(sigma, it, residual, seed, converged, history)


class Operator:
    """Every kernel variant of one cloud, and its measure adjoint, through
    one backend; the family, and with it d, is the cloud's.

    ``"dense"``: up to ``FAST_NODE_THRESHOLD`` nodes, one ``kernel_matrix``
    of the exclusion mode in use, assembled at the first apply and kept in
    a single slot (another mode replaces it), times each column; above it,
    the blocked ``apply_direct`` sums on ``threads`` threads.  The bits are
    ``apply_direct``'s either way.  ``"tree"``: ``apply_fast`` at the
    default ``ExpansionParams`` on a tree built at the first apply; modified
    and adjoint only.
    """

    def __init__(self, cloud: QuadratureCloud, backend: str, threads: int = 1):
        if backend not in ("dense", "tree"):
            raise ValueError(f"unknown operator backend {backend!r}")
        self.cloud, self.backend, self.threads = cloud, backend, threads
        self._kernel = None  # (exclusion mode, its kernel_matrix)
        self._tree = None

    def apply(self, variant: str, f: Field) -> Field:
        """The variant's operator on a field of shape (N,) or (N, k)."""
        return Field(self._sums(variant, f.values, flip=False), "mu")

    def adjoint(self, variant: str, f: Field) -> Field:
        """The measure-weighted adjoint: conj o (same exclusion mode,
        transposition flipped) o conj, as ``adjoint_apply_direct``."""
        return Field(np.conj(self._sums(variant, np.conj(f.values), flip=True)), "mu")

    def norm(self, variant: str, tol=1e-6, max_iter=500, seed=0, rel_tol=0.0) -> NormEstimate:
        """Measure-weighted norm of the variant's operator by power iteration."""
        return power_iteration(
            lambda v: self.apply(variant, Field(v)).values,
            lambda v: self.adjoint(variant, Field(v)).values,
            self.cloud.mu_weight, len(self.cloud), tol, max_iter, seed, rel_tol,
        )

    def _sums(self, variant, values, flip):
        cloud = self.cloud
        if len(values) != len(cloud):
            raise ValueError("field length does not match the cloud")
        spec = KernelSpec(variant, cloud.family)
        mode, transposed = spec.rule[0], spec.rule[1] != flip
        if self.backend == "tree":
            from nhcz.fastsum import ExpansionParams, apply_fast, build_tree

            if mode != "cross_square":
                raise ValueError("the tree backend carries the modified/adjoint variants only")
            params = ExpansionParams()
            if self._tree is None:
                self._tree = build_tree(cloud, params.leaf_cap)
            spec = KernelSpec("adjoint" if transposed else "modified", cloud.family)
            return apply_fast(spec, self._tree, Field(values), params).values
        if len(cloud) > FAST_NODE_THRESHOLD:
            return _apply_rule(spec, cloud, values, transposed, self.threads)
        if self._kernel is None or self._kernel[0] != mode:
            self._kernel = None  # frees the old mode's matrix before the new one is built
            self._kernel = (mode, kernel_matrix(cloud, mode))
        charges = source_charges(cloud, values, transposed)
        out = _column_products(self._kernel[1], np.ascontiguousarray(charges.reshape(len(charges), -1).T))
        return target_scale(cloud, spec.d, out.reshape(charges.shape), transposed)


def operator_norm(
    spec: KernelSpec, cloud: QuadratureCloud, tol: float = 1e-6, seed: int = 0, threads: int = 1
) -> NormEstimate:
    """Measure-weighted operator norm of the chosen kernel's dense operator,
    at ``Operator.norm``'s iteration cap and without a relative stop."""
    return Operator(cloud, "dense", threads).norm(spec.variant, tol, seed=seed)


def beurling_multiplier(grid: np.ndarray) -> np.ndarray:
    """Unitary Fourier-multiplier model of the plane singular integral.

    Multiplies mode (kx, ky) ~ xi = kx + i ky by conj(xi)/xi and kills the
    zero mode; an exact isometry on zero-mean grids.
    """
    grid = np.asarray(grid, dtype=np.complex128)
    if grid.ndim != 2 or grid.shape[0] != grid.shape[1]:
        raise ValueError(f"need a square grid, got shape {grid.shape}")
    n = grid.shape[0]
    if n % 2 != 0:
        raise ValueError(f"grid size must be even, got {n}")
    freq = np.fft.fftfreq(n, d=1.0 / n)
    xi = freq[None, :] + 1j * freq[:, None]  # axis 0 is y
    with np.errstate(divide="ignore", invalid="ignore"):
        mult = np.conj(xi) / xi
    mult[0, 0] = 0.0
    return np.fft.ifft2(np.fft.fft2(grid) * mult)


@dataclass
class T1Report:
    sup_t: float
    sup_t_adjoint: float
    witness_t: BallQuery | None
    witness_t_adjoint: BallQuery | None
    n_balls: int
    skipped: int

    def to_json_dict(self) -> dict:
        return {
            "sup_T": self.sup_t,
            "sup_T_adjoint": self.sup_t_adjoint,
            "witness_T": self.witness_t,
            "witness_T_adjoint": self.witness_t_adjoint,
            "n_balls": self.n_balls,
            "skipped": self.skipped,
        }


def default_t1_balls(family: SquareFamily, seed: int = 0, max_balls: int = 32) -> list[BallQuery]:
    """Seeded (center, radius) sample built from family geometry only, so the
    same sample is reusable across quadrature refinements."""
    centers = family.centers()
    sides = family.sides()
    base = float(sides.min())
    corners = np.concatenate([centers - sides[:, None] / 2, centers + sides[:, None] / 2])
    diam = float(np.hypot(*(corners.max(axis=0) - corners.min(axis=0))))
    steps = max(int(math.ceil(math.log2(max(diam / base, 1.0)))), 0) + 2
    radii = base * 2.0 ** np.arange(steps)
    rng = np.random.default_rng(seed)
    balls = []
    for _ in range(max_balls):
        m = int(rng.integers(0, len(family)))
        r = float(radii[int(rng.integers(0, len(radii)))])
        balls.append(BallQuery(float(centers[m, 0]), float(centers[m, 1]), r))
    return balls


def t1_testing(
    cloud: QuadratureCloud,
    balls: list[BallQuery] | None = None,
    seed: int = 0,
    op: Operator | None = None,
) -> T1Report:
    """Testing-condition suprema ||T chi_B||^2 / mu(B) over the ball sample,
    for the modified operator and its adjoint-kernel partner on the cloud's
    family, applied by ``op`` (default: the cloud's dense ``Operator``).

    Balls with zero discrete mass are skipped and counted.  The indicators
    of the other balls go through each apply as the columns of one field.
    """
    if balls is None:
        balls = default_t1_balls(cloud.family, seed=seed)
    if op is None:
        op = Operator(cloud, "dense")
    tested = [(ball, mass) for ball in balls if (mass := ball_mass(cloud, ball)) != 0.0]
    cx, cy, r = np.array([(ball.cx, ball.cy, ball.radius) for ball, _ in tested]).reshape(-1, 3).T
    chi = ((cloud.xy[:, :1] - cx) ** 2 + (cloud.xy[:, 1:] - cy) ** 2 <= r**2).astype(np.complex128)

    def norms2(images):
        return [field_norm(cloud, Field(images[:, col], "mu")) ** 2 for col in range(len(tested))]

    t_norms2 = norms2(op.apply("modified", Field(chi, "mu")).values)
    a_norms2 = norms2(op.apply("adjoint", Field(chi, "mu")).values)
    sup_t = sup_adj = 0.0
    wit_t = wit_adj = None
    for (ball, mass), t_n2, a_n2 in zip(tested, t_norms2, a_norms2):
        v_t = t_n2 / mass
        v_a = a_n2 / mass
        if v_t > sup_t:
            sup_t, wit_t = v_t, ball
        if v_a > sup_adj:
            sup_adj, wit_adj = v_a, ball
    return T1Report(sup_t, sup_adj, wit_t, wit_adj, len(balls), len(balls) - len(tested))

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
backends.  Every dense sum, ``apply_direct``'s, ``apply_direct_targets``'
and the dense backend's, runs through ``_cauchy_square_apply``.  Over all
targets it sweeps the upper strips of the kernel, which is bitwise
symmetric in every exclusion mode: ``_ROW_BLOCK`` rows each, against the
columns from the strip's first row on, so about 8 N (N + 64) bytes in all.
``apply_direct`` computes each strip on the fly into one reused 64 x N
buffer at any cloud size, and the dense backend reads the same strips from
its cache (above ``FAST_NODE_THRESHOLD`` nodes it recomputes them per
apply), with the same bits.  ``apply_direct_targets``, the one entry point
for a subset of targets, reads their full kernel rows in blocks of
``_ROW_BLOCK`` into one such buffer.  Norm estimates run power iteration
in the measure-weighted inner product, where the adjoint of a variant is
the same exclusion mode with the transposition flipped, taken between
complex conjugations.

``domination_constant`` is the one reading of c_dom, the largest
|T'f| / M f with its witness: ``verify.check_domination`` and the scaling
rows read it, and ``_maximal_many``'s ``ratio_of`` pruning takes its floor
from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from nhcz.fastsum import ExpansionParams, apply_fast, build_tree
from nhcz.geometry import SquareFamily
from nhcz.kernels import KernelSpec, kernel_block, source_charges, target_scale
from nhcz.measure import BallQuery, Field, QuadratureCloud, ball_mass, dyadic_radius_ladder
from nhcz.measure import _dyadic_radii, _square_ball_sums

# largest cloud whose dense kernel is cached, as upper strips of about
# 8 N (N + 64) bytes (33 MiB at 2,048 nodes); the checks' treecode switch
FAST_NODE_THRESHOLD = 2048
KAPPA = 3.0  # dilation of the maximal operator M_{mu,3}
EXACT_LIMIT = 4096  # largest cloud whose maximal function takes every node distance as a radius
# centres per ball-sum engine call of the maximal pass; bounds its
# (targets x radii x fields) arrays.  Read at call time, as are KAPPA,
# EXACT_LIMIT and _ROW_BLOCK.
_TARGET_BLOCK = 256
# kernel rows per upper strip and per block of a target-subset sum, so no
# dense sum holds more than one (_ROW_BLOCK, N) kernel block.  Each strip
# costs a few numpy calls per column: on a 2,048-node cloud a cached
# single-column apply took 2.0 ms with 64-row strips and 2.5 ms with 32 (one
# thread, 300 MiB L3), and a 64-row strip (2 MiB there) still stays in cache
# between its two products.
_ROW_BLOCK = 64
# fields per apply of ``Operator.images``; bounds every multi-field apply's
# transients at O(N * _COLUMN_BLOCK), however many fields there are
_COLUMN_BLOCK = 8


def field_norm(cloud: QuadratureCloud, f: Field) -> float:
    return math.sqrt(float(np.sum(cloud.mu_weight * np.abs(f.values) ** 2)))


def _cauchy_square_apply(cloud, charges, mode, targets=None, cache=None):
    """Sum of charges_q / (z_p - z_q)^2 over the pairs the mode keeps, for
    charges of shape (N,) or (N, k); the only place the package sums the
    dense kernel.

    Over all targets the sums run as one sweep of the kernel's upper strips
    (see ``_upper_strips``, which takes ``cache``), since the kernel of
    every exclusion mode is bitwise symmetric.  Strip s, rows [s, e) against
    columns [s, N), is read once per column for two zgemv products while it
    is in cache: its own rows' sums over the columns from s, and the
    transposed product its off-diagonal part adds to the rows from e on,
    whose own strips come later.  The strips are multiplied in strip order,
    and each column on its own, so a column's bits do not depend on the
    columns beside it.

    ``targets`` restricts the output to the given node indices.  Those sums
    run over blocks of ``_ROW_BLOCK`` full kernel rows written into one
    reused (``_ROW_BLOCK``, N) buffer, one product ``kernel @ col`` per
    block and column.
    """
    cols = np.ascontiguousarray(charges.reshape(len(charges), -1).T)
    if targets is not None:
        tgt, block = np.asarray(targets), _ROW_BLOCK
        out = np.empty((tgt.size, cols.shape[0]), dtype=np.complex128)
        buf = np.empty((min(block, tgt.size), len(cloud)), dtype=np.complex128)
        for b0 in range(0, tgt.size, block):
            rows = tgt[b0 : b0 + block, None]
            kernel = kernel_block(cloud, mode, rows, slice(None), buf[: rows.size])
            for j, col in enumerate(cols):
                out[b0 : b0 + rows.size, j] = kernel @ col
        return out.reshape((tgt.size,) + charges.shape[1:])
    sums = np.zeros_like(cols)
    for s, strip in _upper_strips(cloud, mode, cache):
        e = s + len(strip)
        for col, acc in zip(cols, sums):
            acc[s:e] += strip @ col[s:]
            acc[e:] += strip[:, e - s :].T @ col[s:e]
    return np.ascontiguousarray(sums.T).reshape(charges.shape)


def _upper_strips(cloud, mode, cache):
    """(s, strip) for the kernel's upper strips in row order: strip s holds
    rows [s, s + ``_ROW_BLOCK``) against columns [s, N), 16 * 64 * (N - s)
    bytes at most (2 MiB at 2,048 nodes).

    ``cache`` maps a strip's first row to the strip: a present strip is
    read, and a missing one is computed into a new array that enters the
    dict only when whole, so a filled cache holds 16 * sum of rows * (N - s)
    over the strips, about 8 N (N + 64) bytes.  Without ``cache`` every
    strip is written into one reused (``_ROW_BLOCK``, N) buffer.
    """
    n = len(cloud)
    buf = np.empty((min(_ROW_BLOCK, n), n), dtype=np.complex128) if cache is None else None
    for s in range(0, n, _ROW_BLOCK):
        rows, cols = np.arange(s, min(s + _ROW_BLOCK, n))[:, None], slice(s, None)
        if cache is None:
            strip = kernel_block(cloud, mode, rows, cols, buf[: rows.size, : n - s])
        elif (strip := cache.get(s)) is None:
            strip = cache[s] = kernel_block(cloud, mode, rows, cols)
        yield s, strip


def _apply_rule(spec, cloud, values, transposed, targets=None, cache=None):
    """Dense sums of the spec's exclusion mode read forward or transposed."""
    charges = source_charges(cloud, values, transposed)
    out = _cauchy_square_apply(cloud, charges, spec.rule[0], targets=targets, cache=cache)
    return target_scale(cloud, out, transposed, targets)


def apply_direct(spec: KernelSpec, cloud: QuadratureCloud, f: Field) -> Field:
    """Dense kernel application in a fixed order to a field of shape (N,) or
    (N, k); each kernel strip is computed once for all columns.

    This is the sweep of ``_cauchy_square_apply``: one reused
    (``_ROW_BLOCK``, N) complex buffer holds every strip, so the peak is
    16 * 64 * N bytes (2 MiB at 2,048 nodes) plus one strip's exclusion
    mask, the charges and the (N, k) sums.  The dense ``Operator`` runs the
    same sweep, with the same bits, with or without its cache.
    """
    return Field(_apply_rule(spec, cloud, f.values, spec.rule[1]), "mu")


def apply_direct_targets(spec: KernelSpec, cloud: QuadratureCloud, f: Field, targets) -> np.ndarray:
    """The dense sums of ``apply_direct`` at the given target nodes only, as
    an array of shape (len(targets),) or (len(targets), k); the one entry
    point for a subset of targets.  Their full kernel rows are read in
    blocks of ``_ROW_BLOCK`` into one reused (``_ROW_BLOCK``, N) buffer, so
    beyond the output the peak is that of ``apply_direct`` at any target
    count.  A block's bits are one product ``kernel @ col`` per column; a
    lone-row block takes numpy's one-row product.
    """
    return _apply_rule(spec, cloud, f.values, spec.rule[1], targets)


def adjoint_apply_direct(spec: KernelSpec, cloud: QuadratureCloud, f: Field) -> Field:
    """The measure-weighted adjoint of ``apply_direct`` for the same spec."""
    out = _apply_rule(spec, cloud, np.conj(f.values), not spec.rule[1])
    return Field(np.conj(out), "mu")


def maximal_function(cloud: QuadratureCloud, f: Field) -> Field:
    """Dilated maximal function M_{mu,3}: best ratio of the |f|-mass of
    B(x, R) to the measure of B(x, ``KAPPA`` R) over a finite set of
    candidate radii.

    The targets run in blocks through the ball-sum engine's dyadic radii
    between the finest node spacing and the diameter.  Above ``EXACT_LIMIT``
    nodes those are the candidates.  At or below it the candidates are every
    exact node distance, and the ladder sums only bound which distances need
    to be looked at (see ``_maximal_many``).
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

    At every cloud size the targets run in blocks of ``_TARGET_BLOCK``, and
    each block makes one call of the square-level ball-sum engine with the
    ladder radii l_i (base ``finest_spacing``) and kappa l_i (kappa =
    ``KAPPA``), for the |f|-masses N_f(l_i) and the measures D(kappa l_i).
    The best ladder ratio is a lower bound lb_f.  ``EXACT_LIMIT`` only turns
    refinement on: above that many nodes the result is lb_f, and the pass
    holds one block's sums at a time.

    At or below it the candidate radii are the node distances, and the
    ladder radii drop out of them: a radius R has the same |f|-mass as the
    largest node distance r <= R, while D(kappa r) <= D(kappa R), since
    float products, cumulative sums of nonnegative weights and IEEE division
    are monotone.  Bracket i = (l_{i-1}, l_i], with bracket 0 = [0, l_0],
    holds no ratio above N_f(l_i) / D(kappa l_{i-1}), or above N_f(l_0)
    over the target's own weight for bracket 0; a (target, field, bracket)
    is refined only when that bound exceeds lb_f (1 + ``_MARGIN``).  A
    refined target sorts its nodes within kappa times the outer edge of its
    last refined bracket (stably, so ties keep a full sort's order) and takes
    prefix sums of the weights and of the refined fields' |f|-masses, so each
    refined ratio is bit-identical to a full sort's.  A field's value is the
    larger of lb_f and its best ratio on its own refined brackets, so it does
    not depend on the other fields of the call.

    ``ratio_of`` (exact mode only; ignored above ``EXACT_LIMIT``) holds one
    nonnegative array per field over the targets, the values a caller
    will divide by M f and read with ``domination_constant``, as
    ``verify.check_domination`` reads |T'f|; the pruning assumes that
    reading.  The engine pass then also keeps ub_f = max(lb_f, bracket
    bounds) (1 + ``_MARGIN``), which bounds the exact value from above (see
    ``_MARGIN``), and takes the floor L, ``domination_constant``'s reading
    of ratio_of over ub_f, with ub_f taken as 0 where lb_f = 0 (the caller
    reads a zero M f there).  Only the (target, field) pairs without
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
    exact = n <= EXACT_LIMIT
    lb, ub = np.empty((len(fields), tgt.size)), np.empty((len(fields), tgt.size) if exact else 0)
    refine = np.empty((tgt.size, rungs, len(fields)) if exact else 0, dtype=bool)
    for b0 in range(0, tgt.size, block):
        rows_idx = tgt[b0 : b0 + block]
        sums = _square_ball_sums(cloud, r2, weights, xy[rows_idx])
        num, den = sums[:, :rungs, 1:], sums[:, rungs:, :1]
        lo = (num / den).max(axis=1)
        rows = slice(b0, b0 + rows_idx.size)
        lb[:, rows] = lo.T
        if exact:
            inner = np.concatenate([den_w[rows_idx, None, None], den[:, :-1]], axis=1)
            bound = num / inner  # (block, rung, field)
            ub[:, rows] = (np.maximum(lo, bound.max(axis=1)) * (1.0 + _MARGIN)).T
            refine[rows] = bound > lo[:, None, :] * (1.0 + _MARGIN)
    if not exact:
        return list(lb)
    outs = lb
    if ratio_of is not None:
        tf = np.stack(ratio_of)
        with np.errstate(divide="ignore", invalid="ignore"):
            floor = domination_constant(tf, np.where(lb > 0, ub, 0.0))[0]
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


def domination_constant(tfs, maximal):
    """The largest ratio tf / M f over fields and nodes, with its first
    occurrence in field order, then node order: (c_dom, field index, node),
    or (0.0, None, -1) when no ratio is positive.  A ratio is 0 where M f
    is 0, and a field holding a NaN ratio adds nothing.  ``tfs`` and
    ``maximal`` hold one array per field over the same nodes."""
    c_dom, field, node = 0.0, None, -1
    for fi, (tf, denom) in enumerate(zip(tfs, maximal, strict=True)):
        ratios = np.divide(tf, denom, out=np.zeros_like(tf), where=denom > 0)
        p = int(np.argmax(ratios))
        if ratios[p] > c_dom:
            c_dom, field, node = float(ratios[p]), fi, p
    return c_dom, field, node


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

    ``"dense"``: the sweep of ``apply_direct`` over the kernel's upper
    strips (see ``_upper_strips``).  Up to ``FAST_NODE_THRESHOLD`` nodes the
    strips of the exclusion mode in use are computed at the first apply and
    cached in a single slot, about 8 N (N + 64) bytes (another mode replaces
    it); above it they are recomputed per apply into one reused 64 x N
    buffer.  The bits are ``apply_direct``'s either way.  ``"tree"``:
    ``apply_fast`` at the default ``ExpansionParams`` on a tree built at the
    first apply; modified and adjoint only.

    ``images`` streams many fields through ``apply``, ``_COLUMN_BLOCK`` at
    a time; it is the one place that sets the width of a multi-field apply.
    """

    def __init__(self, cloud: QuadratureCloud, backend: str):
        if backend not in ("dense", "tree"):
            raise ValueError(f"unknown operator backend {backend!r}")
        self.cloud, self.backend = cloud, backend
        self._strips = (None, {})  # (exclusion mode, its cached kernel strips)
        self._tree = None

    def apply(self, variant: str, f: Field) -> Field:
        """The variant's operator on a field of shape (N,) or (N, k)."""
        return Field(self._sums(variant, f.values, flip=False), "mu")

    def adjoint(self, variant: str, f: Field) -> Field:
        """The measure-weighted adjoint: conj o (same exclusion mode,
        transposition flipped) o conj, as ``adjoint_apply_direct``."""
        return Field(np.conj(self._sums(variant, np.conj(f.values), flip=True)), "mu")

    def images(self, variant: str, fields):
        """Each field's image under ``apply(variant, .)``, in field order.
        The fields go through ``_COLUMN_BLOCK`` at a time as the columns of
        one field; each column's sums run in the same order whatever columns
        come with it."""
        for c0 in range(0, len(fields), _COLUMN_BLOCK):
            block = fields[c0 : c0 + _COLUMN_BLOCK]
            yield from self.apply(variant, Field(np.stack([f.values for f in block], axis=1), "mu")).values.T

    def norm(self, variant: str, tol=1e-6, max_iter=500, seed=0, rel_tol=0.0) -> NormEstimate:
        """Measure-weighted norm of the variant's operator by power iteration."""
        return power_iteration(
            lambda v: self.apply(variant, Field(v)).values,
            lambda v: self.adjoint(variant, Field(v)).values,
            self.cloud.mu_weight, len(self.cloud), tol, max_iter, seed, rel_tol,
        )

    def _sums(self, variant, values, flip):
        cloud = self.cloud
        spec = KernelSpec(variant, cloud.family)
        mode, transposed = spec.rule[0], spec.rule[1] != flip
        if self.backend == "tree":
            if mode != "cross_square":
                raise ValueError("the tree backend carries the modified/adjoint variants only")
            params = ExpansionParams()
            if self._tree is None:
                self._tree = build_tree(cloud, params.leaf_cap)
            spec = KernelSpec("adjoint" if transposed else "modified", cloud.family)
            return apply_fast(spec, self._tree, Field(values), params).values
        cache = None
        if len(cloud) <= FAST_NODE_THRESHOLD:
            if self._strips[0] != mode:
                self._strips = (mode, {})  # drops the old mode's strips before a new one is built
            cache = self._strips[1]
        return _apply_rule(spec, cloud, values, transposed, cache=cache)


def operator_norm(spec: KernelSpec, cloud: QuadratureCloud, tol: float = 1e-6, seed: int = 0) -> NormEstimate:
    """Measure-weighted operator norm of the chosen kernel's dense operator,
    at ``Operator.norm``'s iteration cap and without a relative stop."""
    return Operator(cloud, "dense").norm(spec.variant, tol, seed=seed)


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
    corners = np.concatenate([centers - sides[:, None] / 2, centers + sides[:, None] / 2])
    diam = float(np.hypot(*(corners.max(axis=0) - corners.min(axis=0))))
    radii = _dyadic_radii(float(sides.min()), diam)  # the squares' diameter, fixed across refinements
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
    of the other balls go through ``op.images`` as fields.
    """
    if balls is None:
        balls = default_t1_balls(cloud.family, seed=seed)
    if op is None:
        op = Operator(cloud, "dense")
    tested = [(ball, mass) for ball in balls if (mass := ball_mass(cloud, ball)) != 0.0]
    cx, cy, r = np.array([(ball.cx, ball.cy, ball.radius) for ball, _ in tested]).reshape(-1, 3).T
    chi = ((cloud.xy[:, :1] - cx) ** 2 + (cloud.xy[:, 1:] - cy) ** 2 <= r**2).astype(np.complex128)
    fields = [Field(c, "mu") for c in chi.T]

    def norms2(variant):
        return [field_norm(cloud, Field(image, "mu")) ** 2 for image in op.images(variant, fields)]

    t_norms2, a_norms2 = norms2("modified"), norms2("adjoint")
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

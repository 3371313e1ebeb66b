"""Kernel evaluation and empirical Calderon-Zygmund condition constants.

Four kernels act on the union of family squares, points read as complex
numbers.  The full kernel is ``1/(x-y)^2``; the modified kernel multiplies
it by ``side(Q)^d`` of the *source* square and vanishes on same-square
pairs; the adjoint kernel swaps the arguments; the local kernel keeps only
the same-square part.  The modified kernel satisfies size and smoothness
bounds with singularity ``s = 2 - d`` and exponent ``eps = min(1, tau*d)``;
this module measures the implied constants by scanning node pairs/triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from nhcz.geometry import SquareFamily
from nhcz.measure import QuadratureCloud

Variant = Literal["full", "modified", "adjoint", "local"]
VARIANTS = ("full", "modified", "adjoint", "local")

# variant -> (exclusion mode, transposed).  Every variant is the Cauchy-square
# kernel 1/(x-y)^2 restricted by its exclusion mode.  A forward variant
# charges sources with the area weight; a transposed one charges them with
# the measure weight and scales the output by the target's side^d.  On the
# cross-square mode that is the side^d factor of the modified (source side)
# and adjoint (target side) kernels.  The measure-weighted adjoint of any
# variant is conj o (same mode, transposition flipped) o conj.
VARIANT_RULES = {
    "full": ("off_diagonal", False),
    "local": ("same_square", False),
    "modified": ("cross_square", False),
    "adjoint": ("cross_square", True),
}


def exclusion_mask(mode: str, dz, sq_target, sq_source):
    """Pairs the mode drops: coincident nodes, plus cross-square pairs
    (same_square) or same-square pairs (cross_square)."""
    if mode == "off_diagonal":
        return dz == 0
    mask = sq_target == sq_source
    if mode == "same_square":
        mask = ~mask | (dz == 0)
    return mask


def _per_node(weights, values):
    """``weights`` shaped to scale the rows of ``values`` ((N,) or (N, k))."""
    return weights.reshape(weights.shape + (1,) * (np.ndim(values) - 1))


def source_charges(cloud: QuadratureCloud, values, transposed: bool):
    """Field values times the forward (area) or transposed (measure) weight."""
    return values * _per_node(cloud.mu_weight if transposed else cloud.area_weight, values)


def target_scale(cloud: QuadratureCloud, d: float, out, transposed: bool, targets=None):
    """Raw sums at the targets, times side^d when the rule is transposed."""
    if not transposed:
        return out
    side = cloud.node_side if targets is None else cloud.node_side[targets]
    return out * _per_node(side**d, out)


def _side_factor(spec, cloud, p, q):
    """side^d of the source node (forward) or the target node (transposed)
    of a cross-square variant; None for the unscaled modes."""
    mode, transposed = spec.rule
    if mode != "cross_square":
        return None
    return cloud.node_side[p if transposed else q] ** spec.d


@dataclass(frozen=True)
class KernelSpec:
    variant: Variant
    family: SquareFamily

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown kernel variant {self.variant!r}")

    @property
    def d(self) -> float:
        return self.family.d

    @property
    def rule(self) -> tuple[str, bool]:
        return VARIANT_RULES[self.variant]


def locate_square(family: SquareFamily, x: float, y: float) -> int | None:
    """Index of the half-open family square containing the point, else None."""
    for m, sq in enumerate(family.squares):
        side = sq.side
        x0, y0 = sq.i * side, sq.j * side
        if x0 <= x < x0 + side and y0 <= y < y0 + side:
            return m
    return None


def _as_complex(p) -> complex:
    if isinstance(p, complex):
        return p
    return complex(p[0], p[1])


def kernel_eval(spec: KernelSpec, x, y) -> complex:
    """Scalar kernel value at a pair of points of the family set.

    Points may be complex numbers or (x, y) tuples.  Coincident points on a
    singular variant raise; the structurally-zero cases return exactly 0.
    """
    zx, zy = _as_complex(x), _as_complex(y)
    mx = locate_square(spec.family, zx.real, zx.imag)
    my = locate_square(spec.family, zy.real, zy.imag)
    if mx is None or my is None:
        raise ValueError("kernel arguments must lie in the family set")
    same = mx == my
    if spec.variant == "modified":
        if same:
            return 0j
        return spec.family.squares[my].side ** spec.d / (zx - zy) ** 2
    if spec.variant == "adjoint":
        if same:
            return 0j
        return spec.family.squares[mx].side ** spec.d / (zx - zy) ** 2
    if spec.variant == "local" and not same:
        return 0j
    if zx == zy:
        raise ValueError(f"{spec.variant} kernel is singular at coincident points")
    return 1.0 / (zx - zy) ** 2


def kernel_rows(spec: KernelSpec, cloud: QuadratureCloud, rows: np.ndarray) -> np.ndarray:
    """Kernel values K(x_p, y_q) for targets p in ``rows`` against all nodes.

    Structurally-zero entries are exact zeros; the diagonal of the singular
    variants is zeroed (midpoint principal-value convention).
    """
    z, sq = cloud.z, cloud.square_index
    p = np.asarray(rows)[:, None]
    q = np.arange(len(cloud))[None, :]
    dz = z[p] - z[q]
    mask = exclusion_mask(spec.rule[0], dz, sq[p], sq[q])
    dz = np.where(mask, 1.0, dz)
    vals = 1.0 / (dz * dz)
    side = _side_factor(spec, cloud, p, q)
    if side is not None:
        vals = vals * side
    vals[mask] = 0.0
    return vals


@dataclass(frozen=True)
class CzReport:
    """Empirical condition constants for the modified kernel."""

    tau: float
    s: float
    epsilon: float
    a_i: float
    a_ii: float
    a_iii: float
    budget: int
    seed: int
    exhaustive: bool
    n_nodes: int
    iii2_counterexamples: int
    witness_i: tuple[int, int]
    witness_ii: tuple[int, int, int]
    witness_iii: tuple[int, int, int]

    def to_json_dict(self) -> dict:
        return {
            "tau": self.tau,
            "s": self.s,
            "epsilon": self.epsilon,
            "A_I": self.a_i,
            "A_II": self.a_ii,
            "A_III": self.a_iii,
            "budget": self.budget,
            "seed": self.seed,
            "exhaustive": self.exhaustive,
            "n_nodes": self.n_nodes,
            "iii2_counterexamples": self.iii2_counterexamples,
        }


def _best(values, current_best, current_wit, unravel):
    if values.size == 0:
        return current_best, current_wit
    top = int(np.argmax(values))
    if values[top] > current_best:
        return float(values[top]), tuple(int(v) for v in unravel(top))
    return current_best, current_wit


def cz_constants(
    spec: KernelSpec,
    cloud: QuadratureCloud,
    tau: float,
    budget: int = 200_000,
    seed: int = 0,
    exhaustive_limit: int = 200,
) -> CzReport:
    """Measure the size/smoothness constants of the modified kernel.

    Scans are exhaustive over all node pairs and triples when the cloud has
    at most ``exhaustive_limit`` nodes, else seeded uniform triples.  The
    third condition is read symmetrically: the increment in the second
    argument is divided by d(y, y')^eps under the constraint
    d(y, y') <= d(x, y) / 2.  The audit counts examined triples that put x
    with one of y, y' in a single square while the other sits elsewhere,
    which the disjointness condition makes impossible.
    """
    if spec.variant != "modified":
        raise ValueError("condition constants are defined for the modified kernel")
    if not (0.0 < tau < 1.0):
        raise ValueError(f"tau must lie in (0, 1), got {tau}")
    d = spec.d
    s = 2.0 - d
    eps = min(1.0, tau * d)
    n = len(cloud)
    z, sq = cloud.z, cloud.square_index
    exhaustive = n <= exhaustive_limit

    a_i, wit_i = 0.0, (0, 0)
    a_ii, wit_ii = 0.0, (0, 0, 0)
    a_iii, wit_iii = 0.0, (0, 0, 0)
    bad = 0

    if exhaustive:
        dz = z[:, None] - z[None, :]
        dist = np.abs(dz)
        km = kernel_rows(spec, cloud, np.arange(n))
        same = sq[:, None] == sq[None, :]

        off = dist > 0
        size_vals = np.where(off, np.abs(km) * dist**s, 0.0)
        a_i, wit_i = _best(
            size_vals.ravel(), a_i, wit_i, lambda t: np.unravel_index(t, size_vals.shape)
        )

        half = 0.5 * dist
        with np.errstate(divide="ignore", invalid="ignore"):
            for y in range(n):
                # condition on increments in the first argument
                dxy = dist[:, y]
                col = km[:, y]
                ok = (dist <= half[:, y][:, None]) & (dist > 0) & (dxy[:, None] > 0)
                vals = np.where(
                    ok, np.abs(col[:, None] - col[None, :]) * dxy[:, None] ** (s + eps) / dist**eps, 0.0
                )
                a_ii, wit_ii = _best(
                    vals.ravel(), a_ii, wit_ii,
                    lambda t, y=y, shape=vals.shape: (*np.unravel_index(t, shape), y),
                )
            for x in range(n):
                # condition on increments in the second argument
                dxy = dist[x, :]
                row = km[x, :]
                ok = (dist <= half[x, :][:, None]) & (dist > 0) & (dxy[:, None] > 0)
                vals = np.where(
                    ok, np.abs(row[:, None] - row[None, :]) * dxy[:, None] ** (s + eps) / dist**eps, 0.0
                )
                a_iii, wit_iii = _best(
                    vals.ravel(), a_iii, wit_iii,
                    lambda t, x=x, shape=vals.shape: (x, *np.unravel_index(t, shape)),
                )
        bad = _iii2_audit_exhaustive(dist, same)
    else:
        rng = np.random.default_rng(seed)
        # pairs for the size condition: exhaustive in blocks when affordable
        if n * n <= 8_000_000:
            pair_rows = np.arange(n)
        else:
            pair_rows = np.sort(rng.choice(n, size=min(n, 2048), replace=False))
        for b0 in range(0, pair_rows.size, 256):
            rows = pair_rows[b0 : b0 + 256]
            km = kernel_rows(spec, cloud, rows)
            dist = np.abs(z[rows][:, None] - z[None, :])
            off = dist > 0
            vals = np.where(off, np.abs(km) * dist**s, 0.0)
            a_i, wit_i = _best(
                vals.ravel(), a_i, wit_i,
                lambda t, rows=rows, shape=vals.shape: (
                    rows[np.unravel_index(t, shape)[0]],
                    np.unravel_index(t, shape)[1],
                ),
            )
        for chunk in _triple_chunks(rng, n, budget):
            xi, ai, yi = chunk
            dxy = np.abs(z[xi] - z[yi])
            dxa = np.abs(z[xi] - z[ai])
            ok = (dxa <= 0.5 * dxy) & (dxa > 0) & (dxy > 0)
            if np.any(ok):
                kxy = _kernel_pairs(spec, cloud, xi[ok], yi[ok])
                kay = _kernel_pairs(spec, cloud, ai[ok], yi[ok])
                vals = np.abs(kxy - kay) * dxy[ok] ** (s + eps) / dxa[ok] ** eps
                a_ii, wit_ii = _best(
                    vals, a_ii, wit_ii,
                    lambda t, xs=xi[ok], as_=ai[ok], ys=yi[ok]: (xs[t], as_[t], ys[t]),
                )
        for chunk in _triple_chunks(rng, n, budget):
            xi, yi, bi = chunk
            dxy = np.abs(z[xi] - z[yi])
            dyb = np.abs(z[yi] - z[bi])
            ok = (dyb <= 0.5 * dxy) & (dyb > 0) & (dxy > 0)
            bad += int(
                np.count_nonzero(ok & ((sq[xi] == sq[yi]) ^ (sq[xi] == sq[bi])) & (sq[yi] != sq[bi]))
            )
            if np.any(ok):
                kxy = _kernel_pairs(spec, cloud, xi[ok], yi[ok])
                kxb = _kernel_pairs(spec, cloud, xi[ok], bi[ok])
                vals = np.abs(kxy - kxb) * dxy[ok] ** (s + eps) / dyb[ok] ** eps
                a_iii, wit_iii = _best(
                    vals, a_iii, wit_iii,
                    lambda t, xs=xi[ok], ys=yi[ok], bs=bi[ok]: (xs[t], ys[t], bs[t]),
                )

    return CzReport(
        tau=float(tau),
        s=float(s),
        epsilon=float(eps),
        a_i=a_i,
        a_ii=a_ii,
        a_iii=a_iii,
        budget=int(budget),
        seed=int(seed),
        exhaustive=exhaustive,
        n_nodes=n,
        iii2_counterexamples=int(bad),
        witness_i=wit_i,
        witness_ii=wit_ii,
        witness_iii=wit_iii,
    )


def _iii2_audit_exhaustive(dist, same) -> int:
    """Count triples (x, y, y') with d(y,y') <= d(x,y)/2 where x shares a
    square with exactly one of y, y'."""
    n = dist.shape[0]
    bad = 0
    for x in range(n):
        ok = (dist <= 0.5 * dist[x, :][:, None]) & (dist > 0) & (dist[x, :][:, None] > 0)
        mixed = same[x, :][:, None] ^ same[x, :][None, :]
        bad += int(np.count_nonzero(ok & mixed & ~same))
    return bad


def _kernel_pairs(spec, cloud, p_idx, q_idx):
    sq = cloud.square_index
    dz = cloud.z[p_idx] - cloud.z[q_idx]
    mask = exclusion_mask(spec.rule[0], dz, sq[p_idx], sq[q_idx])
    dz = np.where(mask, 1.0, dz)
    side = _side_factor(spec, cloud, p_idx, q_idx)
    vals = (1.0 if side is None else side) / (dz * dz)
    vals[mask] = 0.0
    return vals


def _triple_chunks(rng, n, budget, chunk=100_000):
    drawn = 0
    while drawn < budget:
        take = min(chunk, budget - drawn)
        drawn += take
        yield (
            rng.integers(0, n, size=take),
            rng.integers(0, n, size=take),
            rng.integers(0, n, size=take),
        )

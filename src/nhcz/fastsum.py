"""Treecode acceleration of the cross-square kernel application.

Sources in a far cell are compressed with the expansion
``1/(z-w)^2 = sum_k (k+1) (w-c)^k / (z-c)^(k+2)`` (valid for |w-c| < |z-c|)
truncated at ``order`` terms.  The opening test applies ``theta`` to the
cell *diameter*: a cell of point-radius r at distance D from the target is
expanded when ``2 r <= theta * D``, which caps the per-source convergence
ratio at ``theta / 2`` and keeps the truncation constant small enough that
the delivered error sits well under ``theta^order``.  A cell holding any
source from the target's own square is never expanded, so the same-square
zeroing of the modified/adjoint kernels stays exact; such cells recurse and
leaves are evaluated directly with same-square masking.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from nhcz.kernels import KernelSpec, source_charges, target_scale
from nhcz.measure import QuadratureCloud, build_measure, build_quadrature
from nhcz.geometry import generate_family, suggest_generation_range
from nhcz.operators import Field, apply_direct, apply_direct_targets

_MAX_DEPTH = 48


@dataclass(frozen=True)
class ExpansionParams:
    order: int = 12
    theta: float = 0.5
    leaf_cap: int = 32

    def __post_init__(self):
        if self.order < 1:
            raise ValueError(f"expansion order must be >= 1, got {self.order}")
        if not (0.0 < self.theta < 1.0):
            raise ValueError(f"opening parameter must lie in (0, 1), got {self.theta}")
        if self.leaf_cap < 1:
            raise ValueError(f"leaf capacity must be >= 1, got {self.leaf_cap}")


class QuadTree:
    """Quadtree over cloud nodes; nodes of a cell form a contiguous slice of
    the permutation ``perm``, children carry larger ids than their parent."""

    def __init__(self, cloud: QuadratureCloud, leaf_cap: int):
        if len(cloud) == 0:
            raise ValueError("cannot build a tree over an empty cloud")
        self.cloud = cloud
        self.leaf_cap = leaf_cap
        xy = cloud.xy
        lo = xy.min(axis=0)
        hi = xy.max(axis=0)
        cx, cy = (lo + hi) / 2.0
        half = float(max(hi[0] - lo[0], hi[1] - lo[1])) / 2.0
        if half == 0.0:
            half = 1.0

        centers: list[complex] = []
        radius: list[float] = []
        halves: list[float] = []
        start: list[int] = []
        end: list[int] = []
        depth: list[int] = []
        children: list[list[int]] = []
        square_ids: list[np.ndarray] = []
        perm: list[np.ndarray] = []
        z = cloud.z
        sq = cloud.square_index

        def rec(idx: np.ndarray, ccx: float, ccy: float, h: float, dep: int) -> int:
            cell = len(centers)
            c = complex(ccx, ccy)
            centers.append(c)
            radius.append(float(np.abs(z[idx] - c).max()))
            halves.append(h)
            depth.append(dep)
            square_ids.append(np.unique(sq[idx]))
            start.append(-1)
            end.append(-1)
            children.append([])
            if idx.size <= leaf_cap or dep >= _MAX_DEPTH:
                start[cell] = sum(p.size for p in perm)
                perm.append(idx)
                end[cell] = start[cell] + idx.size
                return cell
            qx = xy[idx, 0] >= ccx
            qy = xy[idx, 1] >= ccy
            quad = qx.astype(np.int8) + 2 * qy.astype(np.int8)
            kids = []
            for q in range(4):
                sub = idx[quad == q]
                if sub.size == 0:
                    continue
                nx = ccx + (h / 2.0 if q & 1 else -h / 2.0)
                ny = ccy + (h / 2.0 if q & 2 else -h / 2.0)
                kids.append(rec(sub, nx, ny, h / 2.0, dep + 1))
            children[cell] = kids
            start[cell] = start[kids[0]]
            end[cell] = end[kids[-1]]
            return cell

        import sys

        old_limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(old_limit, 10_000))
        try:
            rec(np.arange(len(cloud), dtype=np.int64), float(cx), float(cy), half, 0)
        finally:
            sys.setrecursionlimit(old_limit)

        self.centers = np.array(centers, dtype=np.complex128)
        self.radius = np.array(radius)
        self.halves = np.array(halves)
        self.start = np.array(start, dtype=np.int64)
        self.end = np.array(end, dtype=np.int64)
        self.depth = np.array(depth, dtype=np.int64)
        self.children = children
        self.square_ids = square_ids
        self.perm = np.concatenate(perm)
        self.is_leaf = np.array([not c for c in children])
        self.n_cells = len(centers)
        self._build_leaf_pads()

    def _build_leaf_pads(self):
        """Pad leaf node lists to a rectangle so moments and direct sums
        vectorize across all leaves at once."""
        leaf_ids = np.flatnonzero(self.is_leaf)
        cap = int((self.end[leaf_ids] - self.start[leaf_ids]).max())
        nodes = np.zeros((leaf_ids.size, cap), dtype=np.int64)
        mask = np.zeros((leaf_ids.size, cap), dtype=bool)
        for r, c in enumerate(leaf_ids):
            ids = self.perm[self.start[c] : self.end[c]]
            nodes[r, : ids.size] = ids
            mask[r, : ids.size] = True
        self.leaf_ids = leaf_ids
        self.leaf_row = {int(c): r for r, c in enumerate(leaf_ids)}
        self.leaf_pad_nodes = nodes
        self.leaf_pad_mask = mask
        self.leaf_pad_diff = np.where(mask, self.cloud.z[nodes] - self.centers[leaf_ids][:, None], 0.0)
        self.leaf_pad_sq = np.where(mask, self.cloud.square_index[nodes], -1)

    def moments(self, charges: np.ndarray, order: int) -> np.ndarray:
        """Per-cell moment sums sum_q c_q (w_q - center)^k, k < order."""
        mom = np.zeros((self.n_cells, order), dtype=np.complex128)
        ch = np.where(self.leaf_pad_mask, charges[self.leaf_pad_nodes], 0.0)
        pw = np.ones_like(ch)
        for k in range(order):
            mom[self.leaf_ids, k] = (ch * pw).sum(axis=1)
            if k + 1 < order:
                pw = pw * self.leaf_pad_diff
        binom = _binomial_table(order)
        ks = np.arange(order)
        for cell in range(self.n_cells - 1, -1, -1):
            for kid in self.children[cell]:
                t = self.centers[kid] - self.centers[cell]
                tp = t ** ks  # t^0 .. t^(order-1)
                shift = np.zeros((order, order), dtype=np.complex128)
                rows, cols = np.tril_indices(order)
                shift[rows, cols] = binom[rows, cols] * tp[rows - cols]
                mom[cell] += shift @ mom[kid]
        return mom


def _binomial_table(p: int) -> np.ndarray:
    b = np.zeros((p, p))
    b[:, 0] = 1.0
    for r in range(1, p):
        for c in range(1, r + 1):
            b[r, c] = b[r - 1, c - 1] + b[r - 1, c]
    return b


def build_tree(cloud: QuadratureCloud, leaf_cap: int = 32) -> QuadTree:
    return QuadTree(cloud, leaf_cap)


def apply_fast(spec: KernelSpec, tree: QuadTree, f: Field, params: ExpansionParams) -> Field:
    """Treecode application of the modified or adjoint kernel operator."""
    if spec.rule[0] != "cross_square":
        raise ValueError("fast summation supports the modified/adjoint variants; use apply_direct")
    cloud = tree.cloud
    if len(f.values) != len(cloud):
        raise ValueError("field length does not match the cloud")
    transposed = spec.rule[1]
    out = _downward(tree, source_charges(cloud, f.values, transposed), params)
    return Field(target_scale(cloud, spec.d, out, transposed), "mu")


def _downward(tree, charges, params):
    cloud = tree.cloud
    p = params.order
    theta = params.theta
    mom = tree.moments(charges, p)
    z = cloud.z
    t_sq = cloud.square_index
    out = np.zeros(len(cloud), dtype=np.complex128)
    coef = np.arange(1, p + 1)  # (k+1) factors
    stack = [(0, np.arange(len(cloud), dtype=np.int64))]
    while stack:
        cell, targets = stack.pop()
        dz = z[targets] - tree.centers[cell]
        dist = np.abs(dz)
        with np.errstate(divide="ignore", invalid="ignore"):
            adm = 2.0 * tree.radius[cell] <= theta * dist
        if tree.square_ids[cell].size:
            adm &= ~np.isin(t_sq[targets], tree.square_ids[cell])
        if np.any(adm):
            far = targets[adm]
            inv = 1.0 / dz[adm]
            acc = np.zeros(far.size, dtype=np.complex128)
            for k in range(p - 1, -1, -1):
                acc = acc * inv + coef[k] * mom[cell, k]
            out[far] += acc * inv * inv
        rest = targets[~adm]
        if rest.size == 0:
            continue
        if tree.is_leaf[cell]:
            row = tree.leaf_row[cell]
            src_sq = tree.leaf_pad_sq[row]
            src_nodes = tree.leaf_pad_nodes[row]
            dzm = z[rest][:, None] - z[src_nodes][None, :]
            mask = (t_sq[rest][:, None] == src_sq[None, :]) | ~tree.leaf_pad_mask[row][None, :]
            mask |= dzm == 0
            dzm = np.where(mask, 1.0, dzm)
            vals = 1.0 / (dzm * dzm)
            vals[mask] = 0.0
            out[rest] += vals @ charges[src_nodes]
        else:
            for kid in reversed(tree.children[cell]):
                stack.append((kid, rest))
    return out


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


def benchmark(
    sizes,
    params: ExpansionParams | None = None,
    seed: int = 0,
    d: float = 1.2,
    packing_target: float = 4.0,
    n_per_side: int = 16,
    oracle_targets: int = 512,
    direct_limit: int = 12_000,
) -> list[BenchRow]:
    """Direct-vs-fast timing and accuracy ladder on generated clouds.

    Above ``direct_limit`` nodes the direct pass runs on a seeded target
    subsample; its wall time is scaled up to full size and the row is marked
    as extrapolated.
    """
    if not sizes:
        raise ValueError("need at least one benchmark size")
    params = params or ExpansionParams()
    rows = []
    for si, size in enumerate(sizes):
        m_count = max(int(math.ceil(size / n_per_side**2)), 2)
        fam = generate_family(
            seed=1_000_003 * seed + si,
            count=m_count,
            d=d,
            packing_target=packing_target,
            k_range=suggest_generation_range(m_count, d, packing_target),
        )
        cloud = build_quadrature(build_measure(fam), n_per_side)
        n = len(cloud)
        rng = np.random.default_rng(seed + si)
        f = Field(rng.standard_normal(n) + 1j * rng.standard_normal(n), "mu")
        spec = KernelSpec("modified", fam)

        t0 = time.perf_counter()
        tree = build_tree(cloud, params.leaf_cap)
        fast = apply_fast(spec, tree, f, params)
        t_fast = (time.perf_counter() - t0) * 1e3

        if n <= direct_limit:
            t0 = time.perf_counter()
            direct = apply_direct(spec, cloud, f).values
            t_direct = (time.perf_counter() - t0) * 1e3
            err = _max_rel_err(fast.values, direct)
            exact = True
        else:
            targets = np.sort(rng.choice(n, size=min(oracle_targets, n), replace=False))
            t0 = time.perf_counter()
            direct_sub = apply_direct_targets(spec, cloud, f, targets)
            t_direct = (time.perf_counter() - t0) * 1e3 * (n / targets.size)
            err = _max_rel_err(fast.values[targets], direct_sub)
            exact = False
        rows.append(
            BenchRow(n, t_direct, t_fast, t_direct / t_fast, err, params.order, params.theta, seed, exact)
        )
    return rows


def _max_rel_err(approx, reference):
    scale = float(np.abs(reference).max())
    if scale == 0.0:
        return float(np.abs(approx).max())
    return float(np.abs(approx - reference).max() / scale)


def fit_cost_exponent(sizes, times_ms) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = np.log(np.asarray(sizes, dtype=float))
    ys = np.log(np.asarray(times_ms, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])

"""Independently coded brute-force oracles shared by the test modules.

Everything here recomputes operator results from the scalar kernel
definition and explicit loops, deliberately avoiding the library's
vectorized paths.
"""

from types import SimpleNamespace

import numpy as np

from nhcz.kernels import kernel_eval
from nhcz.measure import dyadic_radius_ladder


def apply_bruteforce(spec, cloud, f):
    """Double loop over the kernel definition with the variant's weights."""
    n = len(cloud)
    out = np.zeros(n, dtype=np.complex128)
    w = cloud.mu_weight if spec.variant in ("modified", "adjoint") else cloud.area_weight
    z = cloud.z
    for p in range(n):
        acc = np.complex128(0.0)
        for q in range(n):
            if p == q or (spec.variant in ("full", "local") and z[p] == z[q]):
                continue
            acc += kernel_eval(spec, z[p], z[q]) * f.values[q] * w[q]
        out[p] = acc
    return out


def packing_bruteforce(squares, d):
    """Scan every ancestor of every member, on Python ints, up to the finest
    generation whose ancestors are the four cells at the origin (no dyadic
    cell straddles an axis): coarser squares hold the same members over a
    larger side, so their ratios are smaller.  No weight bound or float
    cutoff is involved."""
    k_common = min(s.k for s in squares)
    while any({a.i, a.j} - {-1, 0} for a in (s.ancestor(k_common) for s in squares)):
        k_common -= 1
    cands = set(squares)
    for s in squares:
        for ka in range(k_common, s.k):
            cands.add(s.ancestor(ka))
    best, best_sq = -1.0, None
    for c in sorted(cands):
        tot = sum(s.side ** (2.0 - d) for s in squares if c.contains(s))
        ratio = tot / c.side ** (2.0 - d)
        if ratio > best:
            best, best_sq = ratio, c
    return best, best_sq


def ball_sums_bruteforce(cloud, centers, radii, weight_list):
    """Per-ball node masks, one centre and one radius at a time, with the
    implementation's inclusion test ``d^2 <= r^2``."""
    out = np.zeros((len(centers), len(radii), len(weight_list)))
    for c, (cx, cy) in enumerate(centers):
        d2 = (cloud.xy[:, 0] - cx) ** 2 + (cloud.xy[:, 1] - cy) ** 2
        for r, radius in enumerate(radii):
            mask = d2 <= float(radius) ** 2
            for k, w in enumerate(weight_list):
                out[c, r, k] = np.asarray(w)[mask].sum()
    return out


def maximal_bruteforce(cloud, f, kappa=3.0, exact_limit=4096):
    """Direct scan over the same candidate radius set, with the squared-
    distance comparison convention of the implementation."""
    n = len(cloud)
    num_w = np.abs(f.values) * cloud.mu_weight
    out = np.zeros(n)
    ladder2 = dyadic_radius_ladder(cloud, base=cloud.finest_spacing) ** 2
    for p in range(n):
        d2 = (cloud.xy[:, 0] - cloud.xy[p, 0]) ** 2 + (cloud.xy[:, 1] - cloud.xy[p, 1]) ** 2
        cands = np.concatenate([d2, ladder2]) if n <= exact_limit else ladder2
        best = 0.0
        for r2 in cands:
            num = num_w[d2 <= r2].sum()
            den = cloud.mu_weight[d2 <= kappa * kappa * r2].sum()
            best = max(best, num / den)
        out[p] = best
    return out


def weighted_sigma_max(spec, cloud):
    """Dense decomposition oracle for the measure-weighted operator norm."""
    n = len(cloud)
    w = cloud.mu_weight if spec.variant in ("modified", "adjoint") else cloud.area_weight
    a = np.zeros((n, n), dtype=np.complex128)
    for p in range(n):
        for q in range(n):
            if p == q or cloud.z[p] == cloud.z[q]:
                continue
            a[p, q] = kernel_eval(spec, cloud.z[p], cloud.z[q]) * w[q]
    mu = cloud.mu_weight
    b = np.diag(np.sqrt(mu)) @ a @ np.diag(1.0 / np.sqrt(mu))
    return float(np.linalg.svd(b, compute_uv=False)[0])


def beurling_dft_bruteforce(g):
    """O(n^4) discrete Fourier transform oracle for the spectral multiplier."""
    n = g.shape[0]
    freq = np.fft.fftfreq(n, d=1.0 / n)
    coef = np.zeros((n, n), dtype=np.complex128)
    for ky in range(n):
        for kx in range(n):
            for vy in range(n):
                for vx in range(n):
                    coef[ky, kx] += g[vy, vx] * np.exp(-2j * np.pi * (kx * vx + ky * vy) / n)
    ref = np.zeros((n, n), dtype=np.complex128)
    for vy in range(n):
        for vx in range(n):
            for ky in range(n):
                for kx in range(n):
                    xi = freq[kx] + 1j * freq[ky]
                    m = 0.0 if xi == 0 else np.conj(xi) / xi
                    ref[vy, vx] += coef[ky, kx] * m * np.exp(2j * np.pi * (kx * vx + ky * vy) / n)
    return ref / (n * n)


def cz_enumeration(spec, cloud, tau):
    """Exhaustive condition-constant enumeration, organized around a scalar
    kernel matrix rather than the library's per-row scans."""
    d = spec.d
    s = 2.0 - d
    eps = min(1.0, tau * d)
    n = len(cloud)
    z = cloud.z
    km = np.zeros((n, n), dtype=np.complex128)
    for p in range(n):
        for q in range(n):
            if cloud.square_index[p] != cloud.square_index[q]:
                km[p, q] = kernel_eval(spec, z[p], z[q])
    dist = np.abs(z[:, None] - z[None, :])
    off = dist > 0
    a1 = float(np.max(np.where(off, np.abs(km) * dist**s, 0.0)))
    a2 = 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        for x2 in range(n):  # organized around the perturbed first argument
            dxx = dist[:, x2]
            diff = np.abs(km - km[x2, :][None, :])  # |K(x,y) - K(x2,y)|
            ok = (dxx[:, None] <= 0.5 * dist) & (dxx[:, None] > 0) & (dist > 0)
            vals = np.where(ok, diff * dist ** (s + eps) / dxx[:, None] ** eps, 0.0)
            a2 = max(a2, float(vals.max()))
        a3 = 0.0
        for y2 in range(n):  # organized around the perturbed second argument
            dyy = dist[:, y2]
            diff = np.abs(km - km[:, y2][:, None])  # |K(x,y) - K(x,y2)|
            ok = (dyy[None, :] <= 0.5 * dist) & (dyy[None, :] > 0) & (dist > 0)
            vals = np.where(ok, diff * dist ** (s + eps) / dyy[None, :] ** eps, 0.0)
            a3 = max(a3, float(vals.max()))
    return a1, a2, a3


def quadtree_recursive(cloud, leaf_cap, max_depth):
    """Depth-first recursive quadtree build, one ``np.unique`` per cell.

    Returns a namespace with the arrays of ``fastsum.QuadTree``, each cell's
    children and square ids as per-cell lists, and leaf pads filled by a
    loop over the leaves.
    """
    xy, z, sq = cloud.xy, cloud.z, cloud.square_index
    lo = xy.min(axis=0)
    hi = xy.max(axis=0)
    cx, cy = (lo + hi) / 2.0
    half = float(max(hi[0] - lo[0], hi[1] - lo[1])) / 2.0
    if half == 0.0:
        half = 1.0
    centers, radius, start, end, depth, parent = [], [], [], [], [], []
    children, square_ids, perm = [], [], []

    def rec(idx, ccx, ccy, h, dep, up):
        cell = len(centers)
        c = complex(ccx, ccy)
        centers.append(c)
        radius.append(float(np.abs(z[idx] - c).max()))
        depth.append(dep)
        parent.append(up)
        square_ids.append(np.unique(sq[idx]))
        children.append([])
        if idx.size <= leaf_cap or dep >= max_depth:
            start.append(len(perm))
            perm.extend(idx.tolist())
            end.append(len(perm))
            return cell
        start.append(-1)
        end.append(-1)
        quad = (xy[idx, 0] >= ccx).astype(np.int8) + 2 * (xy[idx, 1] >= ccy).astype(np.int8)
        for q in range(4):
            sub = idx[quad == q]
            if sub.size:
                nx = ccx + (h / 2.0 if q & 1 else -h / 2.0)
                ny = ccy + (h / 2.0 if q & 2 else -h / 2.0)
                children[cell].append(rec(sub, nx, ny, h / 2.0, dep + 1, cell))
        start[cell] = start[children[cell][0]]
        end[cell] = end[children[cell][-1]]
        return cell

    rec(np.arange(len(cloud), dtype=np.int64), float(cx), float(cy), half, 0, -1)
    t = SimpleNamespace(
        cloud=cloud,
        n_cells=len(centers),
        centers=np.array(centers, dtype=np.complex128),
        radius=np.array(radius),
        start=np.array(start, dtype=np.int64),
        end=np.array(end, dtype=np.int64),
        depth=np.array(depth, dtype=np.int64),
        parent=np.array(parent, dtype=np.int64),
        perm=np.array(perm, dtype=np.int64),
        children=children,
        square_ids=square_ids,
        is_leaf=np.array([not c for c in children]),
    )
    t.rank = np.empty_like(t.perm)
    t.rank[t.perm] = np.arange(t.perm.size)
    t.leaf_ids = np.flatnonzero(t.is_leaf)
    width = int((t.end - t.start)[t.leaf_ids].max())
    t.leaf_pad_nodes = np.zeros((t.leaf_ids.size, width), dtype=np.int64)
    t.leaf_pad_mask = np.zeros((t.leaf_ids.size, width), dtype=bool)
    for r, c in enumerate(t.leaf_ids):
        ids = t.perm[t.start[c] : t.end[c]]
        t.leaf_pad_nodes[r, : ids.size] = ids
        t.leaf_pad_mask[r, : ids.size] = True
    return t


def plan_walk(tree, theta):
    """Stack walk of a ``quadtree_recursive`` tree that records the
    ``fastsum.InteractionPlan`` fields, counting each leaf visit's target
    leaves with ``np.unique``."""
    z, sq = tree.cloud.z, tree.cloud.square_index
    n_leaves, width = tree.leaf_pad_nodes.shape
    leaf_start = tree.start[tree.leaf_ids]
    leaf_of = np.repeat(np.arange(n_leaves), tree.end[tree.leaf_ids] - leaf_start)
    leaf_row = np.full(tree.n_cells, -1, dtype=np.int64)
    leaf_row[tree.leaf_ids] = np.arange(n_leaves)

    def by_leaf(nodes):
        pos = tree.rank[nodes]
        lf = leaf_of[pos]
        leaves = np.unique(lf)
        mask = np.zeros((leaves.size, width), dtype=bool)
        mask[np.searchsorted(leaves, lf), pos - leaf_start[lf]] = True
        return leaves.astype(np.int32), np.packbits(mask, axis=1)

    far_cells, far_leaf, far_bits = [], [], []
    near_target, near_source, near_bits = [], [], []
    skipped = 0
    stack = [(0, tree.perm)]
    while stack:
        cell, targets = stack.pop()
        adm = 2.0 * tree.radius[cell] <= theta * np.abs(z[targets] - tree.centers[cell])
        adm &= ~np.isin(sq[targets], tree.square_ids[cell])
        if adm.any():
            leaves, bits = by_leaf(targets[adm])
            far_cells.append(cell)
            far_leaf.append(leaves)
            far_bits.append(bits)
        rest = targets[~adm]
        if rest.size == 0:
            continue
        if tree.is_leaf[cell]:
            src = tree.perm[tree.start[cell] : tree.end[cell]]
            live = (sq[rest][:, None] != sq[src][None, :]).any(axis=1)
            leaves, bits = by_leaf(rest[live])
            near_target.append(leaves)
            near_source.append(np.full(leaves.size, leaf_row[cell], dtype=np.int32))
            near_bits.append(bits)
            skipped += np.unique(leaf_of[tree.rank[rest]]).size - leaves.size
        else:
            for kid in reversed(tree.children[cell]):
                stack.append((kid, rest))

    packed = (width + 7) // 8

    def cat(parts, dtype, shape=(0,)):
        return np.concatenate(parts) if parts else np.zeros(shape, dtype=dtype)

    return {
        "far_cells": np.array(far_cells, dtype=np.int32),
        "far_ptr": np.concatenate([[0], np.cumsum([a.size for a in far_leaf])]).astype(np.int64),
        "far_leaf": cat(far_leaf, np.int32),
        "far_bits": cat(far_bits, np.uint8, (0, packed)),
        "near_target": cat(near_target, np.int32),
        "near_source": cat(near_source, np.int32),
        "near_bits": cat(near_bits, np.uint8, (0, packed)),
        "near_blocks_skipped": int(skipped),
    }

"""Independently coded brute-force oracles shared by the test modules.

Everything here recomputes operator results from the scalar kernel
definition and explicit loops, deliberately avoiding the library's
vectorized paths.  The scalar kernel is ``kernel_eval``, which finds each
point's square with ``locate_square``.  ``a2_ratio`` is the a2 ratio of one
ball over all nodes, ``min_pair_distances`` the float sup-norm gaps between
family squares, and ``fit_cost_exponent`` the log-log cost slope that
criterion 9 bounds.  The exceptions are the allocating kernel-block
formula, kept as the bit-for-bit reference of the in-place one;
``assert_same_bits``; ``annulus_index``, one pair's annulus read from the
integer geometry of ``verify``'s audits, which a float test checks; and
``domination_reference``, which reads the exact maximal function at every
node as the bit-for-bit reference of the pruned one; and ``size_scan_rows``,
the size condition's full row scan, the bit-for-bit reference of the
square-pair scan; ``moments_per_column`` and ``far_sums_per_cell``, the
treecode's moment build and far pass one column and one cell at a time,
the bit-for-bit references of the batched ones; ``disjointness_loop``,
the all-pairs dilate test, the reference of the sweep;
``square_ball_sums_by_nonzero``, the ball-sum engine with its whole squares
gathered by ``np.nonzero``, the reference of the one-pass binning; and
``maximal_ladder_one_call``, the maximal function's ladder mode as one
engine call over every target, the reference of the blocked pass.
"""

import math
from types import SimpleNamespace

import numpy as np

from nhcz.fastsum import _ENTRY_BLOCK, _binomial_table, _run_positions
from nhcz.geometry import DisjointnessVerdict, DyadicSquare, _dilates_meet, _scaled_centers_halves, _scaled_dilate
from nhcz.kernels import _best, exclusion_mask, kernel_values
from nhcz.measure import _PAIR_BLOCK, _add_to_bins, _square_ball_sums, dyadic_radius_ladder
from nhcz.operators import KAPPA, Operator, _maximal_many
from nhcz.verify import _annulus_of


def locate_square(family, x, y):
    """Index of the half-open family square containing the point, else None."""
    for m, sq in enumerate(family.squares):
        side = sq.side
        x0, y0 = sq.i * side, sq.j * side
        if x0 <= x < x0 + side and y0 <= y < y0 + side:
            return m
    return None


def _as_complex(p):
    if isinstance(p, complex):
        return p
    return complex(p[0], p[1])


def kernel_eval(spec, x, y):
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


def a2_ratio(cloud, ball):
    """Product of the disc-normalized averages of the density and its inverse.

    Both integrals run over the ball's intersection with the family set but
    are normalized by the full disc area; an empty intersection gives 0.
    """
    d2 = (cloud.xy[:, 0] - ball.cx) ** 2 + (cloud.xy[:, 1] - ball.cy) ** 2
    inside = d2 <= ball.radius**2
    disc = math.pi * ball.radius**2
    fwd = float(cloud.mu_weight[inside].sum())  # integral of w over B cap X
    ell_d = cloud.square_sides[cloud.square_index] ** cloud.d
    inv = float((cloud.area_weight[inside] * ell_d[inside]).sum())  # integral of 1/w
    return (fwd / disc) * (inv / disc)


def min_pair_distances(squares):
    """Sup-norm distances dist_inf(Q_a, Q_b) for all pairs a < b (floats)."""
    out = []
    for a in range(len(squares)):
        for b in range(a + 1, len(squares)):
            sa, sb = squares[a], squares[b]
            (ax, ay), la = sa.center, sa.side
            (bx, by), lb = sb.center, sb.side
            dx = max(abs(ax - bx) - (la + lb) / 2.0, 0.0)
            dy = max(abs(ay - by) - (la + lb) / 2.0, 0.0)
            out.append(max(dx, dy))
    return np.asarray(out)


def annulus_index(family, j, i):
    """Exact dilate-annulus index of square i around square j: the unique
    a with center_i inside the closed 2^(a+1)-dilate of Q_j but outside the
    closed 2^a-dilate."""
    if i == j:
        raise ValueError("annulus index needs two distinct squares")
    return _annulus_of(_scaled_centers_halves(family.squares), j, i)


def fit_cost_exponent(sizes, times_ms):
    """Least-squares slope of log(time) against log(size)."""
    xs = np.log(np.asarray(sizes, dtype=float))
    ys = np.log(np.asarray(times_ms, dtype=float))
    return float(np.polyfit(xs, ys, 1)[0])


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


def assert_same_bits(a, b):
    """Same dtype, shape and raw bytes.  Unlike ``np.array_equal`` this
    tells -0.0 from 0.0 and NaN payloads apart."""
    a, b = np.asarray(a), np.asarray(b)
    assert (a.dtype, a.shape) == (b.dtype, b.shape)
    assert a.tobytes() == b.tobytes()


def inverse_square_reference(dz, drop):
    """``1 / dz^2`` with exact zeros on ``drop``, each step into a fresh
    array: the formula ``kernels.kernel_block`` runs in place."""
    dz = np.where(drop, 1.0, dz)
    vals = 1.0 / (dz * dz)
    vals[drop] = 0.0
    return vals


def kernel_block_reference(cloud, mode, p, q, out=None):
    """``kernels.kernel_block`` allocated anew at every step; ``out`` is
    ignored, so the reference can stand in for the in-place routine."""
    z, sq = cloud.z, cloud.square_index
    dz = z[p] - z[q]
    return inverse_square_reference(dz, exclusion_mask(mode, dz, sq[p], sq[q]))


def cauchy_square_block_reference(cloud, rows, mode):
    """The raw kernel block of ``rows`` against all nodes, allocated anew."""
    return kernel_block_reference(cloud, mode, np.asarray(rows)[:, None], slice(None))


def summation_gap_bound(kernel, charges):
    """Largest gap two summation orders of ``kernel @ charges`` can show,
    entry by entry, for complex charges of shape (N,) or (N, k).

    Each order sums the same N products K_pq c_q.  A complex inner product
    of length N computed in any order lies within gamma_{N+2} sum_q
    |K_pq| |c_q| of the exact one (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sec. 3.6), where gamma_n = n u / (1 - n u)
    and u = 2^-53, so two orders differ by at most twice that.  The bound is
    itself computed in floating point: a sum of N + 2 rounded nonnegative
    terms, which one more factor 1 + gamma_{N+2} covers."""
    u = 2.0**-53
    nu = (kernel.shape[1] + 2) * u
    gamma = nu / (1.0 - nu)
    return 2.0 * gamma * (1.0 + gamma) * (np.abs(kernel) @ np.abs(charges))


def packing_bruteforce(squares, d):
    """Scan every ancestor of every member, on Python ints, up to the finest
    generation whose ancestors are the four cells at the origin (no dyadic
    cell straddles an axis): coarser squares hold the same members over a
    larger side, so their ratios are smaller.  No weight bound or float
    cutoff is involved."""

    def ancestor(s, k):  # the generation-k square holding s, as (k, i, j)
        return (k, s.i >> (s.k - k), s.j >> (s.k - k))

    k_common = min(s.k for s in squares)
    while any({i, j} - {-1, 0} for _, i, j in (ancestor(s, k_common) for s in squares)):
        k_common -= 1
    cands = {ancestor(s, ka) for s in squares for ka in range(k_common, s.k + 1)}
    best, best_sq = -1.0, None
    for k, i, j in sorted(cands):
        tot = sum(s.side ** (2.0 - d) for s in squares if s.k >= k and ancestor(s, k) == (k, i, j))
        ratio = tot / DyadicSquare(k, i, j).side ** (2.0 - d)
        if ratio > best:
            best, best_sq = ratio, DyadicSquare(k, i, j)
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


def square_ball_sums_by_nonzero(cloud, r2, weights, centers):
    """``measure._square_ball_sums`` as it gathered the whole squares with
    ``np.nonzero`` and took every straddling node's ``d^2`` from its own
    coordinates: the bit-for-bit reference of the one-pass binning.

    Sums of each weight row over the nodes with ``d^2 <= r2``.

    ``r2`` holds squared radii in any order and ``weights`` has shape
    (n_weights, N).  Returns (n_centers, r2.size, n_weights).  Each node
    falls in the bin of the smallest radius whose ball holds it, and a
    cumulative sum over the bins gives every radius at once.  A square whose
    nearest and farthest grid nodes share a bin adds its totals to that bin.
    """
    pts = np.asarray(centers, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    order = np.argsort(r2, kind="stable")
    r2s = r2[order]
    n_bins = r2s.size + 1  # the last bin lies outside every ball
    w = np.asarray(weights, dtype=float)
    nn = cloud.n_per_side**2
    m_count = len(cloud.family)
    xy = cloud.xy
    grid = xy.reshape(m_count, nn, 2)
    lo, hi = grid[:, 0], grid[:, -1]  # lowest and highest node coordinates
    totals = w.reshape(w.shape[0], m_count, nn).sum(axis=2)
    local = np.arange(nn)
    out = np.empty((pts.shape[0], r2s.size, w.shape[0]))
    step = max(1, _PAIR_BLOCK // m_count)
    for b0 in range(0, pts.shape[0], step):
        c = pts[b0 : b0 + step]
        near2 = far2 = 0.0
        for a in (0, 1):
            ca = c[:, a : a + 1]
            d_lo = (ca - lo[None, :, a]) ** 2
            d_hi = (ca - hi[None, :, a]) ** 2
            inside = (lo[None, :, a] <= ca) & (ca <= hi[None, :, a])
            near2 = near2 + np.where(inside, 0.0, np.minimum(d_lo, d_hi))
            far2 = far2 + np.maximum(d_lo, d_hi)
        k_near = np.searchsorted(r2s, near2, side="left")
        k_far = np.searchsorted(r2s, far2, side="left")
        acc = np.zeros((w.shape[0], c.shape[0] * n_bins))
        bw, mw = np.nonzero(k_near == k_far)
        _add_to_bins(acc, bw * n_bins + k_near[bw, mw], totals[:, mw])
        bs, ms = np.nonzero(k_near != k_far)
        chunk = max(1, _PAIR_BLOCK // nn)
        for s0 in range(0, bs.size, chunk):
            b, nodes = bs[s0 : s0 + chunk], ms[s0 : s0 + chunk, None] * nn + local
            d2 = (c[b, 0:1] - xy[nodes, 0]) ** 2 + (c[b, 1:2] - xy[nodes, 1]) ** 2
            keys = b[:, None] * n_bins + np.searchsorted(r2s, d2, side="left")
            _add_to_bins(acc, keys.ravel(), w[:, nodes].reshape(w.shape[0], -1))
        cums = np.cumsum(acc.reshape(w.shape[0], c.shape[0], n_bins)[:, :, :-1], axis=2)
        out[b0 : b0 + step][:, order, :] = cums.transpose(1, 2, 0)
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


def maximal_ladder_one_call(cloud, fields, targets=None):
    """The best ladder ratio N_f(l_i) / D(kappa l_i) of each field at each
    target, from one ball-sum engine call that holds every target's sums at
    once; ``_maximal_many`` gives the same bits above ``EXACT_LIMIT`` when
    the engine's own centre blocks divide ``_TARGET_BLOCK``."""
    n = len(cloud)
    tgt = np.arange(n, dtype=np.int64) if targets is None else np.asarray(targets)
    kappa2 = KAPPA * KAPPA
    num_w = np.stack([np.abs(f.values) * cloud.mu_weight for f in fields])
    den_w = cloud.mu_weight
    ladder2 = dyadic_radius_ladder(cloud, base=cloud.finest_spacing) ** 2
    r2 = np.concatenate([ladder2, kappa2 * ladder2])
    weights = np.concatenate([den_w[None], num_w])
    xy = cloud.xy
    rungs = ladder2.size
    sums = _square_ball_sums(cloud, r2, weights, xy[tgt])
    ratios = sums[:, :rungs, 1:] / sums[:, rungs:, :1]
    return [ratios[:, :, fi].max(axis=1) for fi in range(len(fields))]


def witness_loop(tfs, maximal):
    """The largest ratio tf / M f over fields and nodes (0 where M f is 0)
    and its first occurrence, field order then node order, as
    (c_dom, field index or None, node or -1).  A field with a NaN ratio
    contributes nothing, as in ``verify.check_domination``'s loop."""
    c_dom, field, node = 0.0, None, -1
    for fi, (tf, denom) in enumerate(zip(tfs, maximal)):
        ratios = np.divide(tf, denom, out=np.zeros_like(tf), where=denom > 0)
        p = int(np.argmax(ratios))
        if ratios[p] > c_dom:
            c_dom, field, node = float(ratios[p]), fi, p
    return c_dom, field, node


def domination_reference(cloud, fields):
    """c_dom and its witness as ``witness_loop`` reads them from the images
    |T'f| of the dense adjoint-kernel operator, one field at a time, and one
    ``_maximal_many`` call that is exact at every node."""
    op = Operator(cloud, "dense")
    tfs = [np.abs(op.apply("adjoint", f).values) for f in fields]
    return witness_loop(tfs, _maximal_many(cloud, fields))


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


def size_scan_rows(spec, cloud, pair_rows, s):
    """The size scan as a full row scan: |K| d^s over every target row in
    ``pair_rows`` against all nodes, 256 rows at a time, zero where d <= 0;
    the bit-for-bit reference of ``kernels._size_scan``."""
    n, z = len(cloud), cloud.z
    a_i, wit_i = 0.0, (0, 0)
    # one (rows, N) complex and two real buffers, reused by every block; the
    # kernel rows themselves are allocated per block
    block = min(256, pair_rows.size)
    kern_buf, vals_buf, dist_buf = np.empty((block, n), np.complex128), np.empty((block, n)), np.empty((block, n))
    for b0 in range(0, pair_rows.size, block):
        rows = pair_rows[b0 : b0 + block]
        vals = np.abs(kernel_values(spec, cloud, rows[:, None], slice(None)), out=vals_buf[: rows.size])
        pair_dist = np.abs(np.subtract(z[rows][:, None], z, out=kern_buf[: rows.size]), out=dist_buf[: rows.size])
        vals *= pair_dist**s
        np.copyto(vals, 0.0, where=~(pair_dist > 0))
        a_i, wit_i = _best(vals.ravel(), a_i, wit_i, lambda t, rows=rows: (rows[t // n], t % n))
    return a_i, wit_i


def moments_per_column(tree, charges, order):
    """``QuadTree.moments`` one charge column at a time: the bit-for-bit
    reference of the all-columns build."""
    cols = charges.reshape(len(charges), -1).T
    mom = np.zeros((cols.shape[0], tree.n_cells, order), dtype=np.complex128)
    leaf_start = tree.start[tree.leaf_ids]
    for m, col in zip(mom, cols):
        ch = col[tree.perm]
        for k in range(order):
            m[tree.leaf_ids, k] = np.add.reduceat(ch, leaf_start)
            if k + 1 < order:
                ch = ch * tree.leaf_diff
    binom = _binomial_table(order)
    tri_r, tri_c = np.tril_indices(order)
    ks = np.arange(order)
    for dep in range(int(tree.depth.max()), 0, -1):
        kids = np.flatnonzero(tree.depth == dep)
        ups = tree.parent[kids]
        offsets, group = np.unique(tree.centers[kids] - tree.centers[ups], return_inverse=True)
        by_group = np.argsort(group, kind="stable")
        bounds = np.searchsorted(group[by_group], np.arange(offsets.size + 1))
        for g, t in enumerate(offsets):
            sel = by_group[bounds[g] : bounds[g + 1]]
            shift = np.zeros((order, order), dtype=np.complex128)
            shift[tri_r, tri_c] = binom[tri_r, tri_c] * (t**ks)[tri_r - tri_c]
            for m in mom:
                # siblings have distinct offsets, so ups[sel] holds no repeats
                m[ups[sel]] += m[kids[sel]] @ shift.T
    mom = np.moveaxis(mom, 0, -1)
    return mom if charges.ndim > 1 else mom[:, :, 0]


def far_sums_per_cell(tree, plan, mom, out):
    """``fastsum._far_sums`` one far cell at a time, in blocks of
    ``_ENTRY_BLOCK`` runs: the bit-for-bit reference of the chunked
    pass."""
    z = tree.cloud.z[tree.perm]
    for cell, e0, e1 in zip(plan.far_cells, plan.far_ptr[:-1], plan.far_ptr[1:]):
        # sources that all sit at the center have only a zeroth moment
        order = mom.shape[1] if tree.radius[cell] > 0 else 1
        ks = np.arange(order)
        e = math.frexp(tree.radius[cell])[1]
        m = mom[cell, :order].T * (ks + 1)  # one row per charge column
        m = np.ldexp(m.real, -e * ks) + 1j * np.ldexp(m.imag, -e * ks)
        for b0 in range(e0, e1, _ENTRY_BLOCK):
            b1 = min(b0 + _ENTRY_BLOCK, e1)
            pos, _ = _run_positions(plan.far_start[b0:b1], plan.far_len[b0:b1])
            inv = 1.0 / (z[pos] - tree.centers[cell])
            u = inv * 2.0**e
            pw = np.empty((order, pos.size), dtype=np.complex128)  # rows inv^2 u^k
            pw[0] = inv * inv
            for k in range(1, order):
                pw[k] = pw[k - 1] * u
            # one product per column keeps each column's sums independent of
            # k; a cell expands each target once, so ``pos`` has no repeats
            sums = np.empty((len(m), pos.size), dtype=np.complex128)
            for mj, sj in zip(m, sums):
                np.matmul(mj, pw, out=sj)
            out[pos] += sums.T


def disjointness_loop(squares):
    """``geometry.check_disjointness`` as the O(M^2) loop over index pairs
    in order: the reference of the sweep's verdict and first witness."""
    if not squares:
        raise ValueError("empty square list")
    kmax = max(s.k for s in squares)
    dil = [_scaled_dilate(s, kmax) for s in squares]
    for a in range(len(dil)):
        for b in range(a + 1, len(dil)):
            if _dilates_meet(dil[a], dil[b]):
                return DisjointnessVerdict(False, (a, b))
    return DisjointnessVerdict(True, None)

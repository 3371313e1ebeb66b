"""Treecode acceleration of the cross-square kernel application.

Sources in a far cell are compressed with the expansion
``1/(z-w)^2 = sum_k (k+1) (w-c)^k / (z-c)^(k+2)`` (valid for |w-c| < |z-c|)
truncated at ``order`` terms.  The opening test applies ``theta`` to the
cell *diameter*: a cell of point-radius r at distance D from the target is
expanded when ``2 r <= theta * D``, which caps the per-source convergence
ratio at ``theta / 2`` and keeps the truncation constant small enough that
the delivered error sits well under ``theta^order``.  A cell holding any
source from the target's own square is never expanded, so the same-square
zeroing of the modified/adjoint kernels stays exact.

The adaptive tree is built one depth at a time, as in Carrier, Greengard &
Rokhlin (SIAM J. Sci. Stat. Comput. 9, 1988): the cells of a depth split
together with one stable sort of (cell, quadrant) keys, so each depth costs
time linear in the nodes it still splits.  Every cell lists the squares it
holds nodes of, for the same-square test above.

Which pairs are expanded and which are summed directly depends on the cloud
and ``theta`` alone, so each tree walks itself once per opening parameter
and caches the result as an ``InteractionPlan``:

- the far part is a list of (cell, target leaf, packed slot mask) entries;
  an apply evaluates each far cell as a (targets x order) power matrix
  times the cell's (order x k) moments;
- the near part keeps the (target leaf, source leaf) blocks the walk
  reaches, with the target slots that meet a source from another square.
  A block in which every pair shares a square holds only zeros of the
  cross-square kernel, so it is dropped when the plan is built; the kernel
  values of the live blocks are computed per apply.

Moments are built leaf by leaf and then shifted up one depth at a time,
with one shift matrix per distinct child offset; on dyadic clouds those
are the four quadrant offsets.  Charges of shape (N,) or (N, k) go through
the same plan, ``_COLUMN_BLOCK`` columns per pass, and each column's sums
run in the same order whatever columns come with it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from nhcz.kernels import KernelSpec, exclusion_mask, source_charges, target_scale
from nhcz.measure import QuadratureCloud, build_measure, build_quadrature
from nhcz.geometry import generate_family, suggest_generation_range
from nhcz.operators import Field, apply_direct, apply_direct_targets

_MAX_DEPTH = 48
_COLUMN_BLOCK = 8  # charge columns per pass; bounds the moment and output arrays
_ENTRY_BLOCK = 256  # far entries per power matrix (at most 256 x leaf size rows)
_NEAR_BLOCK = 64  # near leaf blocks per dense kernel evaluation


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


@dataclass(frozen=True)
class InteractionPlan:
    """The expanded and the directly summed pairs of one tree at one opening
    parameter.  Leaves are named by their row in the tree's leaf pads, and a
    slot mask packs one bit per pad slot (``np.packbits`` along rows)."""

    far_cells: np.ndarray  # cells that serve some target by expansion
    far_ptr: np.ndarray  # far_cells[i] owns entries far_ptr[i]:far_ptr[i + 1]
    far_leaf: np.ndarray  # target leaf of each entry
    far_bits: np.ndarray  # the entry's expanded target slots
    near_target: np.ndarray  # target leaf of each live near block
    near_source: np.ndarray  # source leaf of each live near block
    near_bits: np.ndarray  # the block's target slots with a live pair
    near_blocks_skipped: int  # near blocks whose pairs all share a square

    @property
    def far_entries(self) -> int:
        return int(self.far_leaf.size)

    @property
    def near_blocks(self) -> int:
        return int(self.near_target.size)

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in vars(self).values() if isinstance(a, np.ndarray))


class QuadTree:
    """Adaptive quadtree over cloud nodes, split one depth at a time.

    A cell is split into its non-empty quadrants while it holds more than
    ``leaf_cap`` nodes and lies above depth ``_MAX_DEPTH``.  The nodes of a
    cell form the contiguous slice ``perm[start:end]``, in cloud order within
    each leaf.  Cells are numbered in depth-first preorder with children in
    quadrant order (low x before high x, then low y before high y), so
    children carry larger ids than their parent.  The children of cell ``c``
    are ``child_ids[child_ptr[c]:child_ptr[c + 1]]`` and the squares with a
    node in it are ``square_ids[square_ptr[c]:square_ptr[c + 1]]``, ascending.
    """

    def __init__(self, cloud: QuadratureCloud, leaf_cap: int):
        if len(cloud) == 0:
            raise ValueError("cannot build a tree over an empty cloud")
        self.cloud = cloud
        self.leaf_cap = leaf_cap
        xy, z, sq = cloud.xy, cloud.z, cloud.square_index
        lo = xy.min(axis=0)
        hi = xy.max(axis=0)
        cx, cy = (lo + hi) / 2.0
        half = float(max(hi[0] - lo[0], hi[1] - lo[1])) / 2.0
        if half == 0.0:
            half = 1.0
        n_sq = int(sq.max()) + 1

        # The cells of one depth, in ``perm`` order, split together: one
        # stable sort of their (cell, quadrant) keys reorders their nodes in
        # ``perm`` and the runs of that key are the next depth's cells.
        # Cells are numbered in level order until the build ends.
        perm = np.arange(len(cloud), dtype=np.int64)
        x, y = np.array([cx]), np.array([cy])
        start, size = np.zeros(1, dtype=np.int64), np.array([len(cloud)], dtype=np.int64)
        up = np.full(1, -1, dtype=np.int64)
        h, dep, first = half, 0, 0
        levels = []
        while True:
            m = start.size
            cell = np.repeat(np.arange(m), size)
            pos = _ranges(start, size)
            nodes = perm[pos]
            c = np.empty(m, dtype=np.complex128)
            c.real, c.imag = x, y
            radius = np.maximum.reduceat(np.abs(z[nodes] - c[cell]), np.cumsum(size) - size)
            pairs = np.unique(cell * n_sq + sq[nodes])  # (cell, square) keys
            n_squares = np.bincount(pairs // n_sq, minlength=m)
            levels.append((c, np.full(m, h), start, size, np.full(m, dep), up, radius, n_squares, pairs % n_sq))
            if dep >= _MAX_DEPTH:
                break
            split = (size > leaf_cap)[cell]
            if not split.any():
                break
            cell, pos, nodes = cell[split], pos[split], nodes[split]
            key = 4 * cell + (xy[nodes, 0] >= x[cell]) + 2 * (xy[nodes, 1] >= y[cell])
            order = np.argsort(key, kind="stable")
            perm[pos] = nodes[order]
            key = key[order]
            runs = np.flatnonzero(np.concatenate([[True], key[1:] != key[:-1]]))
            kid_up, quad = key[runs] // 4, key[runs] % 4
            h = h / 2.0
            x = x[kid_up] + np.where(quad & 1, h, -h)
            y = y[kid_up] + np.where(quad & 2, h, -h)
            start, size = pos[runs], np.diff(np.append(runs, key.size))
            up = first + kid_up
            first += m
            dep += 1

        centers, halves, start, size, depth, up, radius, n_squares, square_ids = (
            np.concatenate(a) for a in zip(*levels)
        )
        # depth-first preorder: a cell comes after every cell that starts
        # earlier and after its ancestors, which share its start
        order = np.lexsort((depth, start))
        new_id = np.empty_like(order)
        new_id[order] = np.arange(order.size)
        self.n_cells = int(order.size)
        self.centers = centers[order]
        self.radius = radius[order]
        self.halves = halves[order]
        self.start = start[order]
        self.end = self.start + size[order]
        self.depth = depth[order]
        self.parent = np.where(up[order] >= 0, new_id[up[order]], -1)
        self.square_ptr = np.concatenate([[0], np.cumsum(n_squares[order])])
        self.square_ids = square_ids[_ranges((np.cumsum(n_squares) - n_squares)[order], n_squares[order])]
        # siblings carry ascending ids, so a stable sort by parent lists
        # each cell's children in quadrant order
        self.child_ids = np.argsort(self.parent[1:], kind="stable") + 1
        self.child_ptr = np.concatenate([[0], np.cumsum(np.bincount(self.parent[1:], minlength=self.n_cells))])
        self.is_leaf = self.child_ptr[1:] == self.child_ptr[:-1]
        self.perm = perm
        self.rank = np.empty_like(self.perm)  # node -> position in perm
        self.rank[self.perm] = np.arange(self.perm.size)
        self._build_leaf_pads()
        self._plans: dict[float, InteractionPlan] = {}

    def _build_leaf_pads(self):
        """Pad leaf node lists to a rectangle so the plan can name a target
        by (leaf, slot) and near blocks vectorize across leaves."""
        leaf_ids = np.flatnonzero(self.is_leaf)
        sizes = self.end[leaf_ids] - self.start[leaf_ids]
        # leaves in id order tile ``perm`` from left to right
        row = np.repeat(np.arange(leaf_ids.size), sizes)
        slot = np.arange(self.perm.size) - self.start[leaf_ids][row]
        nodes = np.zeros((leaf_ids.size, int(sizes.max())), dtype=np.int64)
        mask = np.zeros(nodes.shape, dtype=bool)
        nodes[row, slot] = self.perm
        mask[row, slot] = True
        self.leaf_ids = leaf_ids
        self.leaf_pad_nodes = nodes
        self.leaf_pad_mask = mask
        # offset of each node, in ``perm`` order, from its leaf's center
        self.leaf_diff = self.cloud.z[self.perm] - np.repeat(self.centers[leaf_ids], sizes)

    def moments(self, charges: np.ndarray, order: int) -> np.ndarray:
        """Per-cell moment sums sum_q c_q (w_q - center)^k, k < order.

        Charges of shape (N,) give (cells, order); (N, k) give
        (cells, order, k).  Leaves sum their nodes; each depth, deepest
        first, then adds its cells' moments to their parents, one shift
        matrix per distinct child-to-parent offset.  Every sum runs one
        column at a time, so a column's moments do not depend on how many
        columns come with it.
        """
        cols = charges.reshape(len(charges), -1).T
        mom = np.zeros((cols.shape[0], self.n_cells, order), dtype=np.complex128)
        leaf_start = self.start[self.leaf_ids]
        for m, col in zip(mom, cols):
            ch = col[self.perm]
            for k in range(order):
                m[self.leaf_ids, k] = np.add.reduceat(ch, leaf_start)
                if k + 1 < order:
                    ch = ch * self.leaf_diff
        binom = _binomial_table(order)
        tri_r, tri_c = np.tril_indices(order)
        ks = np.arange(order)
        for dep in range(int(self.depth.max()), 0, -1):
            kids = np.flatnonzero(self.depth == dep)
            ups = self.parent[kids]
            offsets, group = np.unique(self.centers[kids] - self.centers[ups], return_inverse=True)
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

    def plan(self, theta: float) -> InteractionPlan:
        """The interaction plan at opening parameter ``theta``, built on
        first use and cached on the tree."""
        if theta not in self._plans:
            self._plans[theta] = _build_plan(self, theta)
        return self._plans[theta]


def _binomial_table(p: int) -> np.ndarray:
    b = np.zeros((p, p))
    b[:, 0] = 1.0
    for r in range(1, p):
        for c in range(1, r + 1):
            b[r, c] = b[r - 1, c - 1] + b[r - 1, c]
    return b


def _ranges(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The concatenated ranges ``starts[i] : starts[i] + sizes[i]``."""
    return np.arange(int(sizes.sum())) + np.repeat(starts - (np.cumsum(sizes) - sizes), sizes)


def build_tree(cloud: QuadratureCloud, leaf_cap: int = 32) -> QuadTree:
    return QuadTree(cloud, leaf_cap)


def _build_plan(tree: QuadTree, theta: float) -> InteractionPlan:
    """One stack walk of the tree that records, instead of evaluating, the
    targets each cell expands and the targets each leaf sums directly.

    Targets travel in ``perm`` order, so the targets of one leaf are
    consecutive wherever they go.
    """
    z, sq = tree.cloud.z, tree.cloud.square_index
    n_leaves, width = tree.leaf_pad_nodes.shape
    leaf_start = tree.start[tree.leaf_ids]
    leaf_of = np.repeat(np.arange(n_leaves), tree.end[tree.leaf_ids] - leaf_start)  # perm slot -> leaf
    leaf_row = np.full(tree.n_cells, -1, dtype=np.int64)
    leaf_row[tree.leaf_ids] = np.arange(n_leaves)

    def by_leaf(nodes):
        """The leaves holding ``nodes`` and the packed slot masks of the nodes."""
        pos = tree.rank[nodes]
        lf = leaf_of[pos]
        new = np.ones(lf.size, dtype=bool)
        new[1:] = lf[1:] != lf[:-1]
        mask = np.zeros((int(new.sum()), width), dtype=bool)
        mask[np.cumsum(new) - 1, pos - leaf_start[lf]] = True
        return lf[new].astype(np.int32), np.packbits(mask, axis=1)

    far_cells, far_leaf, far_bits = [], [], []
    near_target, near_source, near_bits = [], [], []
    skipped = 0
    in_cell = np.zeros(len(tree.cloud.family), dtype=bool)  # squares of the current cell
    child_ptr, child_ids = tree.child_ptr.tolist(), tree.child_ids.tolist()
    stack = [(0, tree.perm)]
    while stack:
        cell, targets = stack.pop()
        adm = 2.0 * tree.radius[cell] <= theta * np.abs(z[targets] - tree.centers[cell])
        squares = tree.square_ids[tree.square_ptr[cell] : tree.square_ptr[cell + 1]]
        in_cell[squares] = True
        adm[adm] = ~in_cell[sq[targets[adm]]]
        in_cell[squares] = False
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
            dz = z[rest][:, None] - z[src][None, :]
            live = ~exclusion_mask("cross_square", dz, sq[rest][:, None], sq[src][None, :]).all(axis=1)
            leaves, bits = by_leaf(rest[live])
            near_target.append(leaves)
            near_source.append(np.full(leaves.size, leaf_row[cell], dtype=np.int32))
            near_bits.append(bits)
            # ``rest`` is in ``perm`` order, so each leaf's targets form one run
            lf = leaf_of[tree.rank[rest]]
            skipped += 1 + np.count_nonzero(lf[1:] != lf[:-1]) - leaves.size
        else:
            stack.extend((kid, rest) for kid in reversed(child_ids[child_ptr[cell] : child_ptr[cell + 1]]))

    packed = (width + 7) // 8

    def cat(parts, dtype, shape=(0,)):
        return np.concatenate(parts) if parts else np.zeros(shape, dtype=dtype)

    return InteractionPlan(
        far_cells=np.array(far_cells, dtype=np.int32),
        far_ptr=np.concatenate([[0], np.cumsum([a.size for a in far_leaf])]).astype(np.int64),
        far_leaf=cat(far_leaf, np.int32),
        far_bits=cat(far_bits, np.uint8, (0, packed)),
        near_target=cat(near_target, np.int32),
        near_source=cat(near_source, np.int32),
        near_bits=cat(near_bits, np.uint8, (0, packed)),
        near_blocks_skipped=int(skipped),
    )


def apply_fast(spec: KernelSpec, tree: QuadTree, f: Field, params: ExpansionParams) -> Field:
    """Treecode application of the modified or adjoint kernel operator to a
    field of shape (N,) or (N, k)."""
    if spec.rule[0] != "cross_square":
        raise ValueError("fast summation supports the modified/adjoint variants; use apply_direct")
    cloud = tree.cloud
    if len(f.values) != len(cloud):
        raise ValueError("field length does not match the cloud")
    transposed = spec.rule[1]
    plan = tree.plan(params.theta)
    cols = source_charges(cloud, f.values, transposed).reshape(len(cloud), -1)
    out = np.zeros(cols.shape, dtype=np.complex128)  # rows in ``perm`` order
    for c0 in range(0, cols.shape[1], _COLUMN_BLOCK):
        block = slice(c0, c0 + _COLUMN_BLOCK)
        _far_sums(tree, plan, tree.moments(cols[:, block], params.order), out[:, block])
        _near_sums(tree, plan, cols[:, block], out[:, block])
    del cols  # frees the charges before the output copies below
    out = out[tree.rank].reshape(f.values.shape)
    return Field(target_scale(cloud, spec.d, out, transposed), "mu")


def _far_sums(tree, plan, mom, out):
    """Adds every expanded interaction to ``out`` (N, k), whose rows are in
    ``perm`` order, one far cell at a time.  The power matrix runs in
    u = 2^e / (z - c) with 2^e >= the cell radius, so |u| stays below 1 and
    the moments are rescaled by exact powers of two; neither overflows at
    any order."""
    z = tree.cloud.z[tree.perm]
    leaf_start = tree.start[tree.leaf_ids]
    width = tree.leaf_pad_nodes.shape[1]
    for cell, e0, e1 in zip(plan.far_cells, plan.far_ptr[:-1], plan.far_ptr[1:]):
        # sources that all sit at the center have only a zeroth moment
        order = mom.shape[1] if tree.radius[cell] > 0 else 1
        ks = np.arange(order)
        e = math.frexp(tree.radius[cell])[1]
        m = mom[cell, :order].T * (ks + 1)  # one row per charge column
        m = np.ldexp(m.real, -e * ks) + 1j * np.ldexp(m.imag, -e * ks)
        for b0 in range(e0, e1, _ENTRY_BLOCK):
            b1 = min(b0 + _ENTRY_BLOCK, e1)
            entry, slot = np.nonzero(np.unpackbits(plan.far_bits[b0:b1], axis=1, count=width))
            pos = leaf_start[plan.far_leaf[b0:b1][entry]] + slot
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


def _near_sums(tree, plan, charges, out):
    """Adds the direct sums of the live near blocks to ``out`` (N, k),
    whose rows are in ``perm`` order."""
    z, sq = tree.cloud.z, tree.cloud.square_index
    pads, valid = tree.leaf_pad_nodes, tree.leaf_pad_mask
    width = pads.shape[1]
    for b0 in range(0, plan.near_blocks, _NEAR_BLOCK):
        tgt_leaf = plan.near_target[b0 : b0 + _NEAR_BLOCK]
        tgt = pads[tgt_leaf]
        src_leaf = plan.near_source[b0 : b0 + _NEAR_BLOCK]
        src = pads[src_leaf]
        keep = np.unpackbits(plan.near_bits[b0 : b0 + _NEAR_BLOCK], axis=1, count=width).astype(bool)
        dz = z[tgt][:, :, None] - z[src][:, None, :]
        drop = exclusion_mask("cross_square", dz, sq[tgt][:, :, None], sq[src][:, None, :])
        drop |= ~keep[:, :, None] | ~valid[src_leaf][:, None, :]
        dz = np.where(drop, 1.0, dz)
        vals = 1.0 / (dz * dz)
        vals[drop] = 0.0
        pos = tree.start[tree.leaf_ids[tgt_leaf]][:, None] + np.arange(width)
        np.add.at(out, pos[keep], np.einsum("bts,bsc->btc", vals, charges[src])[keep])


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

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
and ``theta`` alone, so each tree builds one ``InteractionPlan`` per opening
parameter and caches it.  The plan comes from a dual-tree walk (Dehnen,
J. Comput. Phys. 179, 2002) over (target cell, source cell) pairs, one level
at a time.  A pair whose targets all get the same answer, as a margin on the
target cell's disc and its square list prove, is expanded, passed to the
source's children or skipped as a whole; only the target leaves near the
opening boundary test their nodes one by one with the exact float test.
The plan is the one a per-target walk down the tree would record:

- the far part is a list of (cell, target leaf, packed slot mask) entries;
  an apply evaluates each far cell as a (targets x order) power matrix
  times the cell's (order x k) moments.  Far cells with few entries share
  evaluation chunks, so the numpy calls per apply follow the (cell, target)
  pairs rather than the number of far cells, while each cell's product
  and additions run as they would on their own.  A (cell, column) whose
  moments are all zero takes no product and no addition, and a chunk
  with no other pair is skipped, which leaves every output bit in place;
- the near part keeps the (target leaf, source leaf) blocks the walk
  reaches, with the target slots that meet a source from another square.
  A block in which every pair shares a square holds only zeros of the
  cross-square kernel, so it is dropped when the plan is built; the kernel
  values of the live blocks are computed per apply.

Moments are built leaf by leaf and then shifted up one depth at a time,
with one shift matrix per distinct child offset, applied to all columns in
one stacked product; on dyadic clouds those are the four quadrant offsets.
Charges of shape (N,) or (N, k) go through the same plan, ``_COLUMN_BLOCK``
columns per pass, and each column's sums run in the same order whatever
columns come with it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from nhcz.kernels import KernelSpec, cauchy_square_into, exclusion_mask, source_charges, target_scale
from nhcz.measure import QuadratureCloud, build_measure, build_quadrature
from nhcz.geometry import generate_family, suggest_generation_range
from nhcz.operators import Field, apply_direct, apply_direct_targets

_MAX_DEPTH = 48
_COLUMN_BLOCK = 8  # charge columns per pass; bounds the moment and output arrays
_ENTRY_BLOCK = 256  # far entries per power matrix (at most 256 x leaf size rows)
_NEAR_BLOCK = 64  # near leaf blocks per dense kernel evaluation
_GATHER_BLOCK = 1 << 16  # far entries per slot-mask gather when a plan is built
_MARGIN = 1e-12  # relative slack that keeps a whole-pair decision clear of rounding


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
    cell_pairs: int  # (target cell, source cell) pairs decided as a whole
    target_tests: int  # (target node, source cell) opening tests made one by one

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
            levels.append((c, start, size, np.full(m, dep), up, radius, n_squares, pairs % n_sq))
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

        centers, start, size, depth, up, radius, n_squares, square_ids = (
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
        (cells, order, k).  Leaves sum their nodes one column at a time,
        which keeps each column's powers in cache; each depth, deepest
        first, then adds its cells' moments to their parents, one shift
        matrix per distinct child-to-parent offset and one stacked product
        over all columns.  A stacked product is one product per column, so
        a column's moments do not depend on how many columns come with it.
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
                # siblings have distinct offsets, so ups[sel] holds no repeats
                mom[:, ups[sel]] += mom[:, kids[sel]] @ shift.T
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
    """Record, instead of evaluating, the targets each cell expands and the
    targets each leaf sums directly, by walking (target cell T, source cell
    S) pairs one level at a time from (root, root).

    Every node of T reaches S, and a pair is decided as a whole only when
    the opening test is settled for T's whole disc with ``_MARGIN`` to spare
    (or S has radius 0) and T's squares lie all outside or all inside S's:

    - all expanded: every leaf of T is a far entry of S with its full mask;
    - none expanded: the pair moves on to S's children, or, at a source
      leaf, becomes near blocks;
    - all dead: T and S hold the same single square, so every block between
      their leaves is skipped.

    Any other pair splits T.  The nodes of a target leaf that cannot be
    decided as a whole walk S's subtree one by one under the exact opening
    and square tests.  Entries are sorted by (source cell, target leaf),
    the order of a depth-first walk that carries each node down the tree.
    """
    z, sq = tree.cloud.z, tree.cloud.square_index
    n_leaves, width = tree.leaf_pad_nodes.shape
    leaf_start = tree.start[tree.leaf_ids]
    # a cell's leaves are the leaf rows first_leaf : first_leaf + n_leaf
    first_leaf = np.searchsorted(leaf_start, tree.start)
    n_leaf = np.searchsorted(leaf_start, tree.end) - first_leaf
    full_bits = np.packbits(tree.leaf_pad_mask, axis=1)
    n_kids = np.diff(tree.child_ptr)
    n_sq = np.diff(tree.square_ptr)
    one_sq = np.where(n_sq == 1, tree.square_ids[tree.square_ptr[:-1]], -1)  # a cell's only square
    # ascending (cell, square) keys; a square-in-cell test is one binary search
    sq_key = np.repeat(np.arange(tree.n_cells), n_sq) * len(tree.cloud.family) + tree.square_ids

    def holds(cells, squares):
        key = cells * len(tree.cloud.family) + squares
        return sq_key[np.minimum(np.searchsorted(sq_key, key), sq_key.size - 1)] == key

    def kids(cells):
        """Each cell's children, with the index of their parent in ``cells``."""
        up = np.repeat(np.arange(cells.size), n_kids[cells])
        return tree.child_ids[_ranges(tree.child_ptr[cells], n_kids[cells])], up

    far = []  # (source cell, first target leaf, target leaves) with full masks
    far_pts = []  # (source cell, perm slot) of each node expanded one by one
    near_pts = []  # (source leaf row, perm slot, live) of each node summed directly
    fallback = []  # (target leaf, source cell) pairs left to per-target tests
    skipped = cell_pairs = target_tests = 0
    tc, sc = np.zeros(1, dtype=np.int64), np.zeros(1, dtype=np.int64)
    while tc.size:
        d = np.abs(tree.centers[tc] - tree.centers[sc])
        rt, rs = tree.radius[tc], tree.radius[sc]
        # a node of T lies within rt of T's centre, so its distance to S's
        # centre lies in [d - rt, d + rt] up to a few roundings of d + rt
        slack = _MARGIN * (d + rt)
        dead = (one_sq[tc] >= 0) & (one_sq[tc] == one_sq[sc])
        geo_none = 2.0 * rs > theta * (d + rt + slack)
        is_open = ~(dead | geo_none)
        pair = np.repeat(np.flatnonzero(is_open), n_sq[tc[is_open]])
        found = holds(sc[pair], tree.square_ids[_ranges(tree.square_ptr[tc[is_open]], n_sq[tc[is_open]])])
        shared = np.bincount(pair[found], minlength=tc.size)  # squares of T that S holds
        geo_all = (rs == 0) | (2.0 * rs <= theta * (d - rt - slack))
        expand = is_open & geo_all & (shared == 0)
        descend = (geo_none & ~dead) | (is_open & (shared == n_sq[tc]))
        split = ~(dead | expand | descend)
        cell_pairs += int(np.count_nonzero(dead | expand | descend))
        skipped += int((n_leaf[tc[dead]] * n_leaf[sc[dead]]).sum())
        if expand.any():
            far.append((sc[expand], first_leaf[tc[expand]], n_leaf[tc[expand]]))

        t_near, s_near = tc[descend], sc[descend]
        at_leaf = tree.is_leaf[s_near]
        size = tree.end[t_near[at_leaf]] - tree.start[t_near[at_leaf]]
        pos = _ranges(tree.start[t_near[at_leaf]], size)
        src = np.repeat(s_near[at_leaf], size)
        near_pts.append((first_leaf[src], pos, one_sq[src] != sq[tree.perm[pos]]))

        to_leaf = split & tree.is_leaf[tc]
        fallback.append((tc[to_leaf], sc[to_leaf]))
        s_kids, up = kids(s_near[~at_leaf])
        t_kids, t_up = kids(tc[split & ~to_leaf])
        tc = np.concatenate([t_near[~at_leaf][up], t_kids])
        sc = np.concatenate([s_kids, sc[split & ~to_leaf][t_up]])

    # the undecided target leaves: one (perm slot, source cell) pair per node
    tl, sc = (np.concatenate(a) for a in zip(*fallback))
    pos = _ranges(tree.start[tl], tree.end[tl] - tree.start[tl])
    sc = np.repeat(sc, tree.end[tl] - tree.start[tl])
    while True:
        target_tests += pos.size
        node = tree.perm[pos]
        adm = 2.0 * tree.radius[sc] <= theta * np.abs(z[node] - tree.centers[sc])
        adm[adm] = ~holds(sc[adm], sq[node[adm]])
        far_pts.append((sc[adm], pos[adm]))
        at_leaf = ~adm & tree.is_leaf[sc]
        near_pts.append((first_leaf[sc[at_leaf]], pos[at_leaf], one_sq[sc[at_leaf]] != sq[node[at_leaf]]))
        go = ~adm & ~at_leaf
        sc, up = kids(sc[go])
        pos = pos[go][up]
        if not pos.size:
            break

    def by_block(keys, pos, bit):
        """Distinct (key, target leaf) blocks of the nodes at perm slots
        ``pos`` and each block's mask of the slots whose ``bit`` is set."""
        lf = np.searchsorted(leaf_start, pos, side="right") - 1
        block, inv = np.unique(keys * n_leaves + lf, return_inverse=True)
        mask = np.zeros((block.size, width), dtype=bool)
        mask[inv[bit], (pos - leaf_start[lf])[bit]] = True
        return block // n_leaves, block % n_leaves, mask

    cells, pos = (np.concatenate(a) for a in zip(*far_pts))
    cells, lf, mask = by_block(cells, pos, np.ones(pos.size, dtype=bool))
    # near blocks come out sorted by (source leaf, target leaf)
    near_src, near_lf, near_mask = by_block(*(np.concatenate(a) for a in zip(*near_pts)))
    hit = near_mask.any(axis=1)
    skipped += int(hit.size - np.count_nonzero(hit))

    # far records: whole target cells with full masks, then single tested leaves
    far.append((cells, lf, np.ones_like(lf)))
    rec_cell, rec_leaf, rec_n = (np.concatenate(a) for a in zip(*far))
    del far, far_pts, near_pts  # the plan's arrays are built below
    order = np.lexsort((rec_leaf, rec_cell))
    rec_cell, rec_leaf, rec_n = rec_cell[order], rec_leaf[order], rec_n[order]
    rec_end = np.cumsum(rec_n)
    # a record's leaves count up from its first; a running sum of steps
    # writes them without an index array per entry
    step = rec_leaf.copy()
    step[1:] -= rec_leaf[:-1] + rec_n[:-1] - 1
    far_leaf = np.ones(int(rec_n.sum()), dtype=np.int32)
    far_leaf[rec_end - rec_n] = step
    np.cumsum(far_leaf, dtype=np.int32, out=far_leaf)
    far_bits = np.empty((far_leaf.size, full_bits.shape[1]), dtype=np.uint8)
    for b0 in range(0, far_leaf.size, _GATHER_BLOCK):  # keeps the int64 index copy small
        np.take(full_bits, far_leaf[b0 : b0 + _GATHER_BLOCK], axis=0, out=far_bits[b0 : b0 + _GATHER_BLOCK])
    tested = order >= rec_cell.size - cells.size  # the single-leaf records, in sorted order
    far_bits[(rec_end - rec_n)[tested]] = np.packbits(mask, axis=1)[order[tested] - (rec_cell.size - cells.size)]
    last = np.flatnonzero(np.diff(rec_cell, append=-1))  # each far cell's last record

    return InteractionPlan(
        far_cells=rec_cell[last].astype(np.int32),
        far_ptr=np.append(0, rec_end[last]).astype(np.int64),
        far_leaf=far_leaf,
        far_bits=far_bits,
        near_target=near_lf[hit].astype(np.int32),
        near_source=near_src[hit].astype(np.int32),
        near_bits=np.packbits(near_mask[hit], axis=1),
        near_blocks_skipped=skipped,
        cell_pairs=cell_pairs,
        target_tests=target_tests,
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


def _far_chunks(ptr):
    """(first cell, first entry, end entry, cut) of each far evaluation
    chunk, for far cells owning entries ``ptr[i]:ptr[i + 1]``; ``cut``
    holds the chunk's cell boundaries as entry offsets from its first
    entry.  A cell with at least ``_ENTRY_BLOCK`` entries gets chunks of
    that many entries of its own; a run of smaller consecutive cells
    shares chunks of at most ``_ENTRY_BLOCK`` entries, each holding whole
    cells.

    The segments fix the output bits: a cell's product runs on its own
    slice of the power matrix, and a zgemv over a column slice ``x @
    A[:, a:b]`` need not round as the slice of the whole ``(x @ A)[a:b]``
    does, so moving a segment boundary moves bits."""
    ptr = ptr.tolist()
    c, n = 0, len(ptr) - 1
    while c < n:
        if ptr[c + 1] - ptr[c] >= _ENTRY_BLOCK:
            for b0 in range(ptr[c], ptr[c + 1], _ENTRY_BLOCK):
                b1 = min(b0 + _ENTRY_BLOCK, ptr[c + 1])
                yield c, b0, b1, [0, b1 - b0]
            c += 1
            continue
        c1 = c + 1
        while c1 < n and ptr[c1 + 1] - ptr[c] <= _ENTRY_BLOCK:
            c1 += 1
        yield c, ptr[c], ptr[c1], [q - ptr[c] for q in ptr[c : c1 + 1]]
        c = c1


def _far_sums(tree, plan, mom, out):
    """Adds every expanded interaction to ``out`` (N, k), whose rows are in
    ``perm`` order.  The power matrix runs in u = 2^e / (z - c) with 2^e >=
    the cell radius, so |u| stays below 1 and the moments are rescaled by
    exact powers of two, all far cells' in one pass; neither overflows at
    any order.

    The entries are evaluated in ``_far_chunks``: each chunk makes one slot
    unpacking, one 1/(z - c) with each pair's own centre and 2^e, and one
    power matrix in a buffer all chunks reuse, so the number of numpy calls
    follows the entries rather than the far cells.  Each cell's segment of
    the chunk then takes one product per column and adds to ``out`` on its
    own, so every target's sum is added in cell order and each column's
    sums do not depend on the chunk or on the other columns.

    Only live (cell, column) pairs, whose rescaled moments are not all
    zero, take a product and an addition; a cell with every column live
    adds whole rows, any other adds its live columns one by one, and a
    chunk without a live pair is skipped before its unpacking.  A dead
    pair's product with the finite powers is +-0.  ``out`` starts at +0 and
    a sum that starts at +0 never reaches -0 under round-to-nearest, so
    adding +-0 would change no bit and the skip is exact.  Liveness is read
    on the rescaled moments, the ones multiplied; a radius-0 cell's higher
    moments, which it does not multiply, are exact zeros."""
    z = tree.cloud.z[tree.perm]
    leaf_start = tree.start[tree.leaf_ids]
    width = tree.leaf_pad_nodes.shape[1]
    order = mom.shape[1]
    ks = np.arange(order)
    cells = plan.far_cells
    centers, radius = tree.centers[cells], tree.radius[cells]
    e = np.frexp(radius)[1]
    scale = np.ldexp(1.0, e)
    m = mom[cells].transpose(0, 2, 1) * (ks + 1)  # (cell, column, power)
    m = np.ldexp(m.real, -e[:, None, None] * ks) + 1j * np.ldexp(m.imag, -e[:, None, None] * ks)
    # sources that all sit at the center have only a zeroth moment
    powers = np.where(radius > 0, order, 1).tolist()
    live = (m != 0).any(axis=2)  # (cell, column) pairs whose product can be nonzero
    n_live = live.sum(axis=1).tolist()
    n_cols = m.shape[1]
    pw_buf = np.empty(order * _ENTRY_BLOCK * width, dtype=np.complex128)
    sums_buf = np.empty(n_cols * _ENTRY_BLOCK * width, dtype=np.complex128)
    for c0, b0, b1, cut in _far_chunks(plan.far_ptr):
        c1 = c0 + len(cut) - 1
        if not any(n_live[c0:c1]):
            continue
        entry, slot = np.nonzero(np.unpackbits(plan.far_bits[b0:b1], axis=1, count=width))
        pos = leaf_start[plan.far_leaf[b0:b1][entry]] + slot
        # each cell's pairs are a run of ``entry``, in cell order
        seg = np.searchsorted(entry, cut)
        runs = np.diff(seg)
        inv = 1.0 / (z[pos] - np.repeat(centers[c0:c1], runs))
        u = inv * np.repeat(scale[c0:c1], runs)
        pw = pw_buf[: order * pos.size].reshape(order, pos.size)  # rows inv^2 u^k
        np.multiply(inv, inv, out=pw[0])
        for k in range(1, order):
            np.multiply(pw[k - 1], u, out=pw[k])
        seg = seg.tolist()
        for c, s0, s1 in zip(range(c0, c1), seg, seg[1:]):
            p, k = powers[c], n_live[c]
            if not k:
                continue
            cols = range(n_cols) if k == n_cols else np.flatnonzero(live[c]).tolist()
            sums = sums_buf[: k * (s1 - s0)].reshape(k, s1 - s0)
            for j, sj in zip(cols, sums):
                np.matmul(m[c, j, :p], pw[:p, s0:s1], out=sj)
            # a cell expands each target once, so ``pos`` has no repeats
            if k == n_cols:
                out[pos[s0:s1]] += sums.T
            else:  # one scatter per live column beats a 2-D gather
                for j, sj in zip(cols, sums):
                    out[pos[s0:s1], j] += sj


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
        vals = cauchy_square_into(
            np.empty((len(tgt), width, width), dtype=np.complex128),
            z[tgt][:, :, None],
            z[src][:, None, :],
            lambda dz: exclusion_mask("cross_square", dz, sq[tgt][:, :, None], sq[src][:, None, :])
            | ~keep[:, :, None]
            | ~valid[src_leaf][:, None, :],
        )
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
        cloud = build_quadrature(build_measure(fam), BENCH_N_PER_SIDE)
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


def _max_rel_err(approx, reference):
    scale = float(np.abs(reference).max())
    if scale == 0.0:
        return float(np.abs(approx).max())
    return float(np.abs(approx - reference).max() / scale)

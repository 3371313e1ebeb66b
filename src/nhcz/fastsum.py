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

- the far part lists, per far cell, runs of consecutive ``perm``
  positions that the cell expands, each within one target leaf; an apply
  evaluates each far cell as a (targets x order) power matrix times the
  cell's (order x k) moments.  Far cells with few runs share evaluation
  chunks, so the numpy calls per apply follow the (cell, target) pairs
  rather than the number of far cells, while each cell's product and
  additions run as they would on their own.  A (cell, column) whose
  moments are all zero takes no product and no addition, and a chunk
  with no other pair is skipped, which leaves every output bit in place;
- the near part lists, per source leaf, runs of consecutive ``perm``
  positions that the leaf serves directly, in the same layout.  A target
  whose every pair with the leaf shares a square meets only zeros of the
  cross-square kernel, so it is left out when the plan is built; the
  kernel values of the runs are computed per apply.

Moments are built leaf by leaf and then shifted up one depth at a time,
with one shift matrix per distinct child offset, applied to all columns in
one stacked product; on dyadic clouds those are the four quadrant offsets.
Charges of shape (N,) or (N, k) go through the same plan in one pass:
the moments are built once, and one far pass and one near pass cover every
column of the call.  Each column's sums run in the same order whatever
columns come with it, so the width is the caller's to choose; the checks
send at most ``operators._COLUMN_BLOCK`` through ``Operator.images``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from nhcz.kernels import KernelSpec, kernel_block, source_charges, target_scale
from nhcz.measure import QuadratureCloud, build_measure, build_quadrature
from nhcz.geometry import generate_family, suggest_generation_range
from nhcz.operators import Field, apply_direct, apply_direct_targets

_MAX_DEPTH = 48
_ENTRY_BLOCK = 256  # far runs per power matrix (at most 256 x leaf width rows)
_NEAR_BLOCK = 64  # near runs per dense kernel evaluation
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
    parameter.  Each half lists, per cell, runs: a run is a maximal stretch
    of ``perm`` positions within one target leaf that the cell serves, so it
    is at most the tree's ``leaf_width`` long; ``_run_positions`` decodes
    runs.  Far cells expand their runs; near cells are source leaves whose
    nodes are summed directly against theirs."""

    far_cells: np.ndarray  # cells that serve some target by expansion
    far_ptr: np.ndarray  # far_cells[i] owns runs far_ptr[i]:far_ptr[i + 1]
    far_start: np.ndarray  # first perm position of each run
    far_len: np.ndarray  # number of positions in each run
    near_cells: np.ndarray  # source leaves that serve some target directly
    near_ptr: np.ndarray  # near_cells[i] owns runs near_ptr[i]:near_ptr[i + 1]
    near_start: np.ndarray  # first perm position of each run
    near_len: np.ndarray  # number of positions in each run
    near_blocks_skipped: int  # (source leaf, target leaf) blocks whose pairs all share a square
    cell_pairs: int  # (target cell, source cell) pairs decided as a whole
    target_tests: int  # (target node, source cell) opening tests made one by one

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
        self.leaf_ids = np.flatnonzero(self.is_leaf)
        sizes = self.end[self.leaf_ids] - self.start[self.leaf_ids]
        self.leaf_width = int(sizes.max())  # the most nodes a leaf holds
        # offset of each node, in ``perm`` order, from its leaf's center;
        # leaves in id order tile ``perm`` from left to right
        self.leaf_diff = self.cloud.z[self.perm] - np.repeat(self.centers[self.leaf_ids], sizes)
        self._plans: dict[float, InteractionPlan] = {}

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
    """The concatenated ranges ``starts[i] : starts[i] + sizes[i]``, in the
    dtype of ``starts - sizes``; ``sizes``' dtype must hold its running sum."""
    out = np.repeat(starts - (np.cumsum(sizes, dtype=sizes.dtype) - sizes), sizes)
    return np.add(out, np.arange(out.size, dtype=out.dtype), out=out)  # one temporary, not two


def build_tree(cloud: QuadratureCloud, leaf_cap: int = 32) -> QuadTree:
    return QuadTree(cloud, leaf_cap)


def _build_plan(tree: QuadTree, theta: float) -> InteractionPlan:
    """Record, instead of evaluating, the targets each cell expands and the
    targets each leaf sums directly, by walking (target cell T, source cell
    S) pairs one level at a time from (root, root).

    Every node of T reaches S, and a pair is decided as a whole only when
    the opening test is settled for T's whole disc with ``_MARGIN`` to spare
    (or S has radius 0) and T's squares lie all outside or all inside S's:

    - all expanded: T's range of ``perm`` is expanded by S;
    - none expanded: the pair moves on to S's children, or, at a source
      leaf, S sums T's nodes directly;
    - all dead: T and S hold the same single square, so every block between
      their leaves is skipped.

    Any other pair splits T.  The nodes of a target leaf that cannot be
    decided as a whole walk S's subtree one by one under the exact opening
    and square tests.  Both halves of the plan then come from ``runs``:
    expanded ranges and nodes, and the directly summed nodes that meet a
    source from another square, are sorted by (source cell, position), the
    order of a depth-first walk that carries each node down the tree,
    broken where positions skip and split at leaf boundaries.
    """
    z, sq = tree.cloud.z, tree.cloud.square_index
    leaf_start, leaf_end = tree.start[tree.leaf_ids], tree.end[tree.leaf_ids]
    n_leaves = leaf_start.size
    leaf_of = np.repeat(np.arange(n_leaves, dtype=np.int32), leaf_end - leaf_start)  # leaf row of each slot
    n_leaf = np.searchsorted(leaf_start, tree.end) - np.searchsorted(leaf_start, tree.start)  # leaves per cell
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

    def runs(ranges, points):
        """(cells, ptr, start, len) of the runs that cover the (cell, first
        position, length) ``ranges`` and the (cell, position) ``points``."""
        cells, pos = (np.concatenate(a) for a in zip(*points))
        order = np.lexsort((pos, cells))
        cells, pos = cells[order], pos[order]
        first = np.flatnonzero((np.diff(cells, prepend=-1) != 0) | (np.diff(pos, prepend=-1) != 1))
        ranges.append((cells[first], pos[first], np.diff(first, append=pos.size)))
        rec_cell, rec_start, rec_len = (np.concatenate(a) for a in zip(*ranges))
        del points[:], ranges[:]  # free the pieces before the split
        order = np.lexsort((rec_start, rec_cell))
        rec_cell, rec_start, rec_end = rec_cell[order], rec_start[order], (rec_start + rec_len)[order]
        # one run per leaf that a range meets: the leaf's own slots, except
        # that the first run starts with the range and the last one ends with it
        lf_first, lf_last = leaf_of[rec_start], leaf_of[rec_end - 1]
        n_runs = lf_last + 1 - lf_first
        run_end = np.cumsum(n_runs)
        lf = _ranges(lf_first, n_runs)
        run_start = leaf_start.astype(np.int32)[lf]
        run_len = (leaf_end - leaf_start).astype(np.min_scalar_type(tree.leaf_width))[lf]
        run_start[run_end - n_runs] = rec_start
        run_len[run_end - n_runs] = leaf_end[lf_first] - rec_start
        run_len[run_end - 1] = rec_end - run_start[run_end - 1]
        last = np.flatnonzero(np.diff(rec_cell, append=-1))  # each cell's last range
        return rec_cell[last].astype(np.int32), np.append(0, run_end[last]).astype(np.int64), run_start, run_len

    far = []  # (source cell, first perm position, length) of expanded ranges
    far_pts = []  # (source cell, perm slot) of each node expanded one by one
    near_pts = []  # (source leaf, perm slot, live) of each node summed directly
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
            far.append((sc[expand], tree.start[tc[expand]], tree.end[tc[expand]] - tree.start[tc[expand]]))

        t_near, s_near = tc[descend], sc[descend]
        at_leaf = tree.is_leaf[s_near]
        size = tree.end[t_near[at_leaf]] - tree.start[t_near[at_leaf]]
        pos = _ranges(tree.start[t_near[at_leaf]], size)
        src = np.repeat(s_near[at_leaf], size)
        near_pts.append((src, pos, one_sq[src] != sq[tree.perm[pos]]))

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
        near_pts.append((sc[at_leaf], pos[at_leaf], one_sq[sc[at_leaf]] != sq[node[at_leaf]]))
        go = ~adm & ~at_leaf
        sc, up = kids(sc[go])
        pos = pos[go][up]
        if not pos.size:
            break

    # a (source leaf, target leaf) block with no live pair is skipped
    src, pos, live = (np.concatenate(a) for a in zip(*near_pts))
    block = src * n_leaves + leaf_of[pos]
    skipped += int(np.unique(block).size - np.unique(block[live]).size)
    near = runs([], [(src[live], pos[live])])
    del near_pts, src, pos, live, block  # free the points before the far runs
    return InteractionPlan(
        *runs(far, far_pts),  # far_cells, far_ptr, far_start, far_len
        *near,  # the near fields, in the same order
        near_blocks_skipped=skipped,
        cell_pairs=cell_pairs,
        target_tests=target_tests,
    )


def apply_fast(spec: KernelSpec, tree: QuadTree, f: Field, params: ExpansionParams) -> Field:
    """Treecode application of the modified or adjoint kernel operator to a
    field of shape (N,) or (N, k): one moment build, one far pass and one
    near pass over all k columns, whose transients grow with k."""
    if spec.rule[0] != "cross_square":
        raise ValueError("fast summation supports the modified/adjoint variants; use apply_direct")
    cloud = tree.cloud
    if len(f.values) != len(cloud):
        raise ValueError("field length does not match the cloud")
    transposed = spec.rule[1]
    plan = tree.plan(params.theta)
    cols = source_charges(cloud, f.values, transposed).reshape(len(cloud), -1)
    out = np.zeros(cols.shape, dtype=np.complex128)  # rows in ``perm`` order
    _far_sums(tree, plan, tree.moments(cols, params.order), out)
    _near_sums(tree, plan, cols, out)
    del cols  # frees the charges before the output copies below
    out = out[tree.rank].reshape(f.values.shape)
    return Field(target_scale(cloud, spec.d, out, transposed), "mu")


def _run_positions(start, length):
    """The perm positions of the runs with first positions ``start`` and
    lengths ``length``, in run order, and the offset into them at which
    each run ends."""
    # a uint8 length's running sum would wrap, and int32 minus an unsigned sum is float64
    lens = length.astype(np.int64)
    return _ranges(start.astype(np.int64), lens), np.cumsum(lens)


def _far_chunks(ptr):
    """(first cell, first entry, end entry, cut) of each far evaluation
    chunk, for far cells owning entries ``ptr[i]:ptr[i + 1]``; ``cut``
    holds the chunk's cell boundaries as entry offsets from its first
    entry.  A cell with at least ``_ENTRY_BLOCK`` entries gets chunks of
    that many entries of its own; a stretch of smaller consecutive cells
    shares chunks of at most ``_ENTRY_BLOCK`` entries, each holding whole
    cells.  The plan's entries are its far runs.

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
    ``perm`` order, for all k columns of ``mom`` in one pass.  The power
    matrix runs in u = 2^e / (z - c) with 2^e >= the cell radius, so |u|
    stays below 1 and the moments are rescaled by exact powers of two, all
    far cells' at once; neither overflows at any order.

    The runs are evaluated in ``_far_chunks``: each chunk makes one run
    decode, one 1/(z - c) with each pair's own centre and 2^e, and one
    power matrix in a buffer all chunks reuse, so the number of numpy calls
    follows the runs rather than the far cells.  Each cell's segment of
    the chunk then takes one product per column and adds to ``out`` on its
    own, so every target's sum is added in cell order and each column's
    sums do not depend on the chunk or on the other columns.

    Only live (cell, column) pairs, whose rescaled moments are not all
    zero, take a product and an addition; a cell with every column live
    adds whole rows, any other adds its live columns one by one, and a
    chunk without a live pair is skipped before its decode.  A dead
    pair's product with the finite powers is +-0.  ``out`` starts at +0 and
    a sum that starts at +0 never reaches -0 under round-to-nearest, so
    adding +-0 would change no bit and the skip is exact.  Liveness is read
    on the rescaled moments, the ones multiplied; a radius-0 cell's higher
    moments, which it does not multiply, are exact zeros."""
    z = tree.cloud.z[tree.perm]
    width = tree.leaf_width
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
        pos, ends = _run_positions(plan.far_start[b0:b1], plan.far_len[b0:b1])
        # each cell's targets are a stretch of ``pos``, in cell order
        seg = np.append(0, ends)[cut]
        counts = np.diff(seg)
        inv = 1.0 / (z[pos] - np.repeat(centers[c0:c1], counts))
        u = inv * np.repeat(scale[c0:c1], counts)
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
    """Adds the direct sums of the near runs to ``out`` (N, k), whose rows
    are in ``perm`` order.  The runs are decoded by ``_run_positions``, as
    the far runs are, and each target adds one kernel row against its source
    leaf's nodes, read as ``leaf_width`` slots from the leaf's first perm
    position with the slots past the leaf's size masked out; so every target
    adds one row of its own per source leaf, in ascending source leaf order."""
    slot = np.arange(tree.leaf_width)
    cells = np.repeat(plan.near_cells, np.diff(plan.near_ptr))  # each run's source leaf
    for b0 in range(0, cells.size, _NEAR_BLOCK):
        lens = plan.near_len[b0 : b0 + _NEAR_BLOCK]
        pos, _ = _run_positions(plan.near_start[b0 : b0 + _NEAR_BLOCK], lens)
        src_leaf = np.repeat(cells[b0 : b0 + _NEAR_BLOCK], lens)  # each target's source leaf
        valid = slot < (tree.end[src_leaf] - tree.start[src_leaf])[:, None]
        # a masked slot may lie past the last position
        src = tree.perm.take(tree.start[src_leaf][:, None] + slot, mode="clip")
        vals = kernel_block(tree.cloud, "cross_square", tree.perm[pos][:, None], src)
        np.copyto(vals, 0.0, where=~valid)
        np.add.at(out, pos, np.einsum("ts,tsc->tc", vals, charges[src]))


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

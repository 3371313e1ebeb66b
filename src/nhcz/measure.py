"""The non-doubling measure, its quadrature clouds, and measure-level checks.

Each family square carries the density ``side^-d`` against planar area, so
its total mass is ``side^(2-d)``; the family is the measure, and
``build_quadrature`` takes it directly.  Clouds discretize both the area
measure and the weighted measure with composite midpoint nodes, and hold
the per-square data every module reads: each square's side, side^d and node
box, computed once.  A ``Field`` holds values on a cloud's nodes, whose
inner product the cloud's measure weights define.  Discrete balls are
node-inclusion balls, and their accuracy contract is refinement
convergence rather than exact disc geometry.

Growth, a2 and the ladder maximal function share one ball-sum engine
(``_square_ball_sums``); its ladder sums also bound which node distances
the exact maximal function has to sort.  It uses the fact that a square's nodes form a
uniform grid: for each (centre, square) pair it compares the squared
distance of the grid's farthest node, and of its nearest node (taken as 0
when the centre lies inside the grid's box), with the squared radii.
A square wholly inside a ball adds its precomputed weight totals, a square
wholly outside adds nothing, and only a square that straddles a radius has
its nodes tested one by one.  The whole squares of a block of centres are
binned in one bincount per weight row, with the straddling pairs sent to
the bin outside every ball, which is never read, so the pass gathers
nothing for the (mostly whole) pairs and adds them in the order of binning
the whole pairs alone.  A node is in a ball iff ``d^2 <= r^2`` in float
arithmetic.  Float subtraction, squaring and addition are monotone, so the
bounds from the extreme nodes agree with that per-node test node for node,
and a node that lies exactly on a circle stays inside.  ``ball_mass`` sums
a single ball over all N nodes, outside the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from nhcz.geometry import SquareFamily


def build_measure(family: SquareFamily) -> SquareFamily:
    """The family's measure, which the family itself carries (density
    side^-d on each member square): the family, unchanged."""
    return family


@dataclass
class QuadratureCloud:
    """Midpoint nodes of a uniform n x n subgrid of every family square,
    with each square's data computed once at build time: its side, its
    side^d (the modified kernel's factor) and its node box.

    Node order is family order, row-major within each square, so nodes of
    square m occupy the contiguous slice [m*n^2, (m+1)*n^2), and its first
    and last nodes hold the box's lowest and highest coordinates.
    """

    family: SquareFamily
    n_per_side: int
    xy: np.ndarray  # (N, 2)
    z: np.ndarray  # (N,) complex view of the positions
    square_index: np.ndarray  # (N,) int
    area_weight: np.ndarray  # (N,)
    mu_weight: np.ndarray  # (N,)
    square_sides: np.ndarray  # (M,)
    side_d: np.ndarray  # (M,) side^d, from one np.power over the sides
    square_lo: np.ndarray  # (M, 2) lowest node coordinates of each square
    square_hi: np.ndarray  # (M, 2) highest node coordinates of each square

    @property
    def d(self) -> float:
        return self.family.d

    def __len__(self) -> int:
        return self.xy.shape[0]

    @property
    def finest_spacing(self) -> float:
        return float(self.square_sides.min()) / self.n_per_side

    @property
    def finest_side(self) -> float:
        return float(self.square_sides.min())

    @property
    def diameter(self) -> float:
        lo = self.square_lo.min(axis=0)
        hi = self.square_hi.max(axis=0)
        return float(np.hypot(*(hi - lo)))


def build_quadrature(family: SquareFamily, n_per_side: int) -> QuadratureCloud:
    """Composite midpoint discretization with per-square mass kept exact;
    the one place that computes the cloud's per-square data."""
    if n_per_side < 1:
        raise ValueError(f"n_per_side must be >= 1, got {n_per_side}")
    n = n_per_side
    m_count = len(family)
    nodes = np.empty((m_count * n * n, 2))
    sq_idx = np.repeat(np.arange(m_count, dtype=np.int64), n * n)
    offs = (np.arange(n) + 0.5) / n
    ux, uy = np.meshgrid(offs, offs)  # row-major: y varies along axis 0
    unit = np.column_stack([ux.ravel(), uy.ravel()])
    for m, sq in enumerate(family.squares):
        side = sq.side
        origin = np.array([sq.i * side, sq.j * side])
        nodes[m * n * n : (m + 1) * n * n] = origin + unit * side
    sides = family.sides()
    per_node = sides[sq_idx]
    area_w = (per_node / n) ** 2
    mu_w = area_w * per_node ** (-family.d)
    z = nodes[:, 0] + 1j * nodes[:, 1]
    grid = nodes.reshape(m_count, n * n, 2)
    lo, hi = grid[:, 0].copy(), grid[:, -1].copy()
    return QuadratureCloud(family, n, nodes, z, sq_idx, area_w, mu_w, sides, np.power(sides, family.d), lo, hi)


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


@dataclass(frozen=True)
class BallQuery:
    cx: float
    cy: float
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError(f"ball radius must be positive, got {self.radius}")


def ball_mass(cloud: QuadratureCloud, ball: BallQuery) -> float:
    """Measure of the discrete ball: mu-weights of nodes within the radius."""
    d2 = (cloud.xy[:, 0] - ball.cx) ** 2 + (cloud.xy[:, 1] - ball.cy) ** 2
    return float(cloud.mu_weight[d2 <= ball.radius**2].sum())


def dyadic_radius_ladder(cloud: QuadratureCloud, base: float | None = None) -> np.ndarray:
    """Radii base, 2*base, ... up to (just past) the cloud diameter.

    The base defaults to the finest square side, which keeps the ladder
    stable under quadrature refinement.
    """
    if base is None:
        base = cloud.finest_side
    diam = max(cloud.diameter, base)
    steps = max(int(math.ceil(math.log2(diam / base))), 0) + 1
    return base * 2.0 ** np.arange(steps + 1)


# (centre, square) pairs classified per block of centres, and straddling
# nodes binned per chunk; both bound the engine's scratch arrays
_PAIR_BLOCK = 1 << 16


def _add_to_bins(acc, keys, values):
    for row, v in zip(acc, values):
        row += np.bincount(keys, v, minlength=row.size)


def _square_ball_sums(cloud, r2, weights, centers):
    """Sums of each weight row over the nodes with ``d^2 <= r2``.

    ``r2`` holds squared radii in any order and ``weights`` has shape
    (n_weights, N).  Returns (n_centers, r2.size, n_weights).  Each node
    falls in the bin of the smallest radius whose ball holds it, and a
    cumulative sum over the bins gives every radius at once.  A square whose
    nearest and farthest grid nodes share a bin adds its totals to that bin;
    it straddles a radius when its nearest node's ``d^2`` is at or below the
    lower edge of its farthest node's bin.

    Per block of centres, every (centre, square) pair gets one key: its bin
    when the square lies in one bin, else the centre's last bin, which lies
    outside every ball and is never read, so it discards the pair.  One
    bincount per weight row then adds every pair's totals; a bincount adds
    each bin's inputs in input order, so each kept bin sums its squares in
    square order, as binning the kept pairs alone would.  The straddling
    squares then add their nodes one by one; a grid column's nodes share
    their x and a grid row's their y, so a node's ``d^2`` is the sum of its
    column's and its row's squared offsets.

    The straddling pairs are binned in chunks of ``_PAIR_BLOCK // n^2``
    pairs that cut across the centres of a block, and each chunk's bincount
    is added to the bins on its own.  So a centre's sums can depend, in the
    last bits, on which other centres share its block of
    ``_PAIR_BLOCK // squares`` centres: on a 96-square, 6,144-node family
    with 104 weight rows, one call on 1,024 centres and four calls on 256
    of them differ in 7 of 3,194,880 sums, by at most 4.3e-16 relative.
    Callers that pass the same blocks of centres get the same bits.
    """
    pts = np.asarray(centers, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    order = np.argsort(r2, kind="stable")
    r2s = r2[order]
    n_bins = r2s.size + 1  # the last bin lies outside every ball
    w = np.asarray(weights, dtype=float)
    n = cloud.n_per_side
    nn = n * n
    m_count = len(cloud.family)
    grid = cloud.xy.reshape(m_count, nn, 2)
    lo, hi = cloud.square_lo, cloud.square_hi
    col_x, row_y = grid[:, :n, 0], grid[:, ::n, 1]  # row-major grids: y varies by row
    w_sq = w.reshape(w.shape[0], m_count, nn)
    totals = w_sq.sum(axis=2)
    out = np.empty((pts.shape[0], r2s.size, w.shape[0]))
    step = max(1, _PAIR_BLOCK // m_count)
    lower = np.concatenate([[-np.inf], r2s])  # bin k holds the d^2 in (lower[k], r2s[k]]
    for b0 in range(0, pts.shape[0], step):
        c = pts[b0 : b0 + step]
        near2 = far2 = 0.0
        for a in (0, 1):
            # signed gaps below and above the grid's box; float subtraction
            # is monotone and sign-symmetric, so max(gap, 0)^2 and min^2 are
            # the nearest and farthest grid nodes' squared offsets
            below = lo[None, :, a] - c[:, a : a + 1]
            above = c[:, a : a + 1] - hi[None, :, a]
            near = np.maximum(below, above)
            near2 = near2 + np.square(np.maximum(near, 0.0, out=near), out=near)
            far2 = far2 + np.square(np.minimum(below, above, out=below), out=below)
        k_far = np.searchsorted(r2s, far2, side="left")
        straddle = lower[k_far] >= near2  # the nearest node lies in a lower bin
        keys = np.where(straddle, n_bins - 1, k_far)
        keys += np.arange(0, c.shape[0] * n_bins, n_bins)[:, None]
        acc = np.zeros((w.shape[0], c.shape[0] * n_bins))
        _add_to_bins(acc, keys.ravel(), (np.broadcast_to(t, k_far.shape).ravel() for t in totals))
        bs, ms = np.nonzero(straddle)
        chunk = max(1, _PAIR_BLOCK // nn)
        for s0 in range(0, bs.size, chunk):
            b, sq = bs[s0 : s0 + chunk], ms[s0 : s0 + chunk]
            dx2 = (c[b, 0:1] - col_x[sq]) ** 2
            dy2 = (c[b, 1:2] - row_y[sq]) ** 2
            d2 = dx2[:, None, :] + dy2[:, :, None]  # (pair, row, column)
            keys = b[:, None] * n_bins + np.searchsorted(r2s, d2.reshape(b.size, nn), side="left")
            # one weight row's nodes at a time keeps the gather at one chunk's size
            _add_to_bins(acc, keys.ravel(), (row.take(sq, axis=0).ravel() for row in w_sq))
        cums = np.cumsum(acc.reshape(w.shape[0], c.shape[0], n_bins)[:, :, :-1], axis=2)
        out[b0 : b0 + step][:, order, :] = cums.transpose(1, 2, 0)
    return out


def _ladder_ball_sums(cloud, radii, weight_list, centers=None):
    """Ball sums for every center x radius x weight vector.

    Centers default to all node positions.  Returns (n_centers, n_radii,
    n_weights).
    """
    pts = cloud.xy if centers is None else centers
    return _square_ball_sums(cloud, np.asarray(radii, dtype=float) ** 2, np.stack(weight_list), pts)


TIE_RTOL = 1e-12


def _witness_index(ratios: np.ndarray) -> tuple[int, int]:
    """(centre, radius) index of the witness ball: the lowest index whose
    ratio is within ``TIE_RTOL`` of the largest.  Balls that tie up to
    rounding then give the same witness whatever order the sums ran in."""
    flat = ratios.ravel()
    first = int(np.flatnonzero(flat >= flat.max() * (1.0 - TIE_RTOL))[0])
    return divmod(first, ratios.shape[1])


def _largest_ratio(cloud, ratios, centers, radii) -> tuple[float, BallQuery]:
    """The witness ball and its own ratio, which is within ``TIE_RTOL`` of
    the largest, so the constant always belongs to the reported ball."""
    ci, ri = _witness_index(ratios)
    pts = cloud.xy if centers is None else np.asarray(centers, dtype=float)
    return float(ratios[ci, ri]), BallQuery(float(pts[ci, 0]), float(pts[ci, 1]), float(radii[ri]))


def growth_constant(cloud: QuadratureCloud, centers: np.ndarray | None = None) -> tuple[float, BallQuery]:
    """Largest ratio mu(B(x, r)) / r^(2-d) over the sample, as the ratio of
    the first ball that reaches it up to ``TIE_RTOL``, with that ball.

    The sample crosses the centers (default: every node position) with the
    dyadic radius ladder between the finest square side and the diameter.
    """
    radii = dyadic_radius_ladder(cloud)
    masses = _ladder_ball_sums(cloud, radii, [cloud.mu_weight], centers=centers)[:, :, 0]
    ratios = masses / radii[None, :] ** (2.0 - cloud.d)
    return _largest_ratio(cloud, ratios, centers, radii)


def a2_constant(cloud: QuadratureCloud) -> tuple[float, BallQuery]:
    """Largest a2 ratio over every node position crossed with the dyadic
    radius ladder (growth's default sample), as ``growth_constant`` reports
    its ratio and ball."""
    radii = dyadic_radius_ladder(cloud)
    inv_density_w = cloud.area_weight * cloud.side_d[cloud.square_index]
    sums = _ladder_ball_sums(cloud, radii, [cloud.mu_weight, inv_density_w])
    disc = math.pi * radii**2
    ratios = (sums[:, :, 0] / disc[None, :]) * (sums[:, :, 1] / disc[None, :])
    return _largest_ratio(cloud, ratios, None, radii)


def borderline_exponent(t: float, k_qc: float) -> float:
    """Distortion exponent t' with 1/t' - 1/2 = (1/K) (1/t - 1/2)."""
    if not (0.0 < t < 2.0):
        raise ValueError(f"t must lie in (0, 2), got {t}")
    if not (1.0 <= k_qc < math.inf):
        raise ValueError(f"distortion K must be finite and >= 1, got {k_qc}")
    return 1.0 / (0.5 + (1.0 / t - 0.5) / k_qc)

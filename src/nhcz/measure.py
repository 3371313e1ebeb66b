"""The non-doubling measure, its quadrature clouds, and measure-level checks.

Each family square carries the density ``side^-d`` against planar area, so
its total mass is ``side^(2-d)``.  Clouds discretize both the area measure
and the weighted measure with composite midpoint nodes; discrete balls are
node-inclusion balls, and their accuracy contract is refinement convergence
rather than exact disc geometry.

Growth, a2 and the ladder maximal function share one ball-sum engine
(``_square_ball_sums``); its ladder sums also bound which node distances
the exact maximal function has to sort.  It uses the fact that a square's nodes form a
uniform grid: for each (centre, square) pair it compares the squared
distance of the grid's farthest node, and of its nearest node (taken as 0
when the centre lies inside the grid's box), with the squared radii.
A square wholly inside a ball adds its precomputed weight totals, a square
wholly outside adds nothing, and only a square that straddles a radius has
its nodes tested one by one.  A node is in a ball iff ``d^2 <= r^2`` in
float arithmetic.  Float subtraction, squaring and addition are monotone,
so the bounds from the extreme nodes agree with that per-node test node for
node, and a node that lies exactly on a circle stays inside.  ``ball_mass``
and ``a2_ratio`` stay the O(N) single-ball references.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from nhcz.geometry import SquareFamily
from nhcz.reports import write_csv_atomic


@dataclass(frozen=True)
class NonHomogeneousMeasure:
    """Family measure: density side^-d on each member square."""

    family: SquareFamily
    densities: np.ndarray  # per-square density against area
    masses: np.ndarray  # per-square total mass side^(2-d)

    @property
    def d(self) -> float:
        return self.family.d

    @property
    def total_mass(self) -> float:
        return float(self.masses.sum())


def build_measure(family: SquareFamily) -> NonHomogeneousMeasure:
    sides = family.sides()
    d = family.d
    return NonHomogeneousMeasure(family, sides ** (-d), sides ** (2.0 - d))


@dataclass
class QuadratureCloud:
    """Midpoint nodes of a uniform n x n subgrid of every family square.

    Node order is family order, row-major within each square, so nodes of
    square m occupy the contiguous slice [m*n^2, (m+1)*n^2).
    """

    measure: NonHomogeneousMeasure
    n_per_side: int
    xy: np.ndarray  # (N, 2)
    z: np.ndarray  # (N,) complex view of the positions
    square_index: np.ndarray  # (N,) int
    area_weight: np.ndarray  # (N,)
    mu_weight: np.ndarray  # (N,)

    @property
    def family(self) -> SquareFamily:
        return self.measure.family

    @property
    def d(self) -> float:
        return self.measure.d

    def __len__(self) -> int:
        return self.xy.shape[0]

    @property
    def square_sides(self) -> np.ndarray:
        return self.family.sides()

    @property
    def node_side(self) -> np.ndarray:
        """Side of the square owning each node."""
        return self.square_sides[self.square_index]

    @property
    def finest_spacing(self) -> float:
        return float(self.square_sides.min()) / self.n_per_side

    @property
    def finest_side(self) -> float:
        return float(self.square_sides.min())

    @property
    def diameter(self) -> float:
        lo = self.xy.min(axis=0)
        hi = self.xy.max(axis=0)
        return float(np.hypot(*(hi - lo)))


def build_quadrature(measure: NonHomogeneousMeasure, n_per_side: int) -> QuadratureCloud:
    """Composite midpoint discretization with per-square mass kept exact."""
    if n_per_side < 1:
        raise ValueError(f"n_per_side must be >= 1, got {n_per_side}")
    n = n_per_side
    fam = measure.family
    m_count = len(fam)
    nodes = np.empty((m_count * n * n, 2))
    sq_idx = np.repeat(np.arange(m_count, dtype=np.int64), n * n)
    offs = (np.arange(n) + 0.5) / n
    ux, uy = np.meshgrid(offs, offs)  # row-major: y varies along axis 0
    unit = np.column_stack([ux.ravel(), uy.ravel()])
    for m, sq in enumerate(fam.squares):
        side = sq.side
        origin = np.array([sq.i * side, sq.j * side])
        nodes[m * n * n : (m + 1) * n * n] = origin + unit * side
    sides = fam.sides()[sq_idx]
    area_w = (sides / n) ** 2
    mu_w = area_w * sides ** (-measure.d)
    z = nodes[:, 0] + 1j * nodes[:, 1]
    return QuadratureCloud(measure, n, nodes, z, sq_idx, area_w, mu_w)


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


def a2_ratio(cloud: QuadratureCloud, ball: BallQuery) -> float:
    """Product of the disc-normalized averages of the density and its inverse.

    Both integrals run over the ball's intersection with the family set but
    are normalized by the full disc area; an empty intersection gives 0.
    """
    d2 = (cloud.xy[:, 0] - ball.cx) ** 2 + (cloud.xy[:, 1] - ball.cy) ** 2
    inside = d2 <= ball.radius**2
    disc = math.pi * ball.radius**2
    fwd = float(cloud.mu_weight[inside].sum())  # integral of w over B cap X
    ell_d = cloud.node_side ** cloud.d
    inv = float((cloud.area_weight[inside] * ell_d[inside]).sum())  # integral of 1/w
    return (fwd / disc) * (inv / disc)


def a2_constant(cloud: QuadratureCloud, centers: np.ndarray | None = None) -> tuple[float, BallQuery]:
    """Largest a2 ratio over the sample (the same sample as growth)."""
    radii = dyadic_radius_ladder(cloud)
    inv_density_w = cloud.area_weight * cloud.node_side**cloud.d
    sums = _ladder_ball_sums(cloud, radii, [cloud.mu_weight, inv_density_w], centers=centers)
    disc = math.pi * radii**2
    ratios = (sums[:, :, 0] / disc[None, :]) * (sums[:, :, 1] / disc[None, :])
    return _largest_ratio(cloud, ratios, centers, radii)


def borderline_exponent(t: float, k_qc: float) -> float:
    """Distortion exponent t' with 1/t' - 1/2 = (1/K) (1/t - 1/2)."""
    if not (0.0 < t < 2.0):
        raise ValueError(f"t must lie in (0, 2), got {t}")
    if not (1.0 <= k_qc < math.inf):
        raise ValueError(f"distortion K must be finite and >= 1, got {k_qc}")
    return 1.0 / (0.5 + (1.0 / t - 0.5) / k_qc)


def export_cloud_csv(cloud: QuadratureCloud, path) -> None:
    """Node table: x, y, square_index, area_weight, mu_weight."""
    rows = (
        [
            repr(float(cloud.xy[p, 0])),
            repr(float(cloud.xy[p, 1])),
            int(cloud.square_index[p]),
            repr(float(cloud.area_weight[p])),
            repr(float(cloud.mu_weight[p])),
        ]
        for p in range(len(cloud))
    )
    write_csv_atomic(path, ["x", "y", "square_index", "area_weight", "mu_weight"], rows)

"""Kernel evaluation and empirical Calderon-Zygmund condition constants.

Four kernels act on the union of family squares, points read as complex
numbers.  The full kernel is ``1/(x-y)^2``; the modified kernel multiplies
it by ``side(Q)^d`` of the *source* square and vanishes on same-square
pairs; the adjoint kernel swaps the arguments; the local kernel keeps only
the same-square part.  Every kernel value comes from ``kernel_block`` (the
raw kernel) or ``kernel_values`` (times the cloud's ``side_d``).  The modified kernel
satisfies size and smoothness bounds with singularity ``s = 2 - d`` and
exponent ``eps = min(1, tau*d)``; this module measures the implied
constants by scanning node pairs/triples.
The size scan bounds each pair of squares by side^d dmin^(-d) times
1 + ``_SIZE_MARGIN``, a rounding margin derived beside it, and evaluates
the node blocks of square pairs in bound order only until no bound can
reach the best value; it returns the full pair scan's bits.  One increment
scan serves both smoothness conditions: the first-argument condition is the
second-argument one of the transposed kernel.  Small clouds list every
triple that can pass; larger ones draw seeded triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from nhcz.geometry import SquareFamily
from nhcz.measure import _PAIR_BLOCK, QuadratureCloud

Variant = Literal["full", "modified", "adjoint", "local"]

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
    """Field values times the forward (area) or transposed (measure) weight;
    every apply starts here, so this is where a field of the wrong length
    is refused."""
    if len(values) != len(cloud):
        raise ValueError("field length does not match the cloud")
    return values * _per_node(cloud.mu_weight if transposed else cloud.area_weight, values)


def target_scale(cloud: QuadratureCloud, out, transposed: bool, targets=None):
    """Raw sums at the targets, times the cloud's side^d of each target's
    square when the rule is transposed."""
    if not transposed:
        return out
    squares = cloud.square_index if targets is None else cloud.square_index[targets]
    return out * _per_node(cloud.side_d[squares], out)


@dataclass(frozen=True)
class KernelSpec:
    variant: Variant
    family: SquareFamily

    def __post_init__(self):
        if self.variant not in VARIANT_RULES:
            raise ValueError(f"unknown kernel variant {self.variant!r}")

    @property
    def d(self) -> float:
        return self.family.d

    @property
    def rule(self) -> tuple[str, bool]:
        return VARIANT_RULES[self.variant]


def kernel_block(cloud: QuadratureCloud, mode: str, p, q, out=None) -> np.ndarray:
    """The raw Cauchy-square kernel 1/(z_p - z_q)^2 on the broadcast shape
    of the node indices (or slices) ``p`` and ``q``, with exact zeros on the
    pairs the exclusion mode drops; the one evaluation of the kernel.

    The difference, the mask-to-1, the square, the division and the
    mask-to-0 each run in place on ``out``, a complex128 array of that shape
    the caller owns and may reuse, or a new array when ``out`` is None.  So
    beyond ``out`` the only scratch is the boolean exclusion mask and its
    comparisons, a few bytes per entry against sixteen: about 0.5 MiB for a
    64-row strip of a 2,048-node cloud, against the strip's 2 MiB.  An entry
    has the same bits at any shape, and the kernel of every mode is bitwise
    symmetric: z_q - z_p is the exact negative of z_p - z_q, and the mask
    compares the same pair either way.
    """
    zp, zq, sq = cloud.z[p], cloud.z[q], cloud.square_index
    if out is None:
        out = np.empty(np.broadcast_shapes(np.shape(zp), np.shape(zq)), dtype=np.complex128)
    np.subtract(zp, zq, out=out)
    mask = exclusion_mask(mode, out, sq[p], sq[q])
    np.copyto(out, 1.0, where=mask)
    np.multiply(out, out, out=out)
    np.divide(1.0, out, out=out)
    np.copyto(out, 0.0, where=mask)
    return out


def kernel_values(spec: KernelSpec, cloud: QuadratureCloud, p, q) -> np.ndarray:
    """Kernel values K(x_p, y_q) on the broadcast shape of ``p`` and ``q``:
    ``kernel_block`` times, on the cross-square mode, side^d of the source
    node (forward) or the target node (transposed).

    Structurally-zero entries are exact zeros; the diagonal of the singular
    variants is zeroed (midpoint principal-value convention).  side^d is the
    cloud's ``side_d`` of the node's square, so a scalar index gets the bits
    of an array one.
    """
    mode, transposed = spec.rule
    vals = kernel_block(cloud, mode, p, q)
    if mode == "cross_square":
        vals *= cloud.side_d[cloud.square_index[p if transposed else q]]
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


EXHAUSTIVE_LIMIT = 200  # clouds up to this many nodes are scanned over every triple


def cz_constants(
    spec: KernelSpec,
    cloud: QuadratureCloud,
    tau: float,
    budget: int = 200_000,
    seed: int = 0,
) -> CzReport:
    """Measure the size/smoothness constants of the modified kernel.

    The size constant is the largest |K(x, y)| d(x, y)^s over every pair
    of nodes.  ``_size_scan`` takes it over square pairs: each pair's bound
    side_Q^d dmin(P, Q)^(-d) carries the rounding margin ``_SIZE_MARGIN``,
    and only the pairs whose bound reaches the best value are evaluated, so
    the value and its witness are the full row scan's bit for bit.
    Smoothness scans cover every triple that can pass when the cloud has
    at most ``EXHAUSTIVE_LIMIT`` nodes, else ``budget`` seeded uniform
    triples per condition.  The third condition is read symmetrically: the
    increment in the second argument is divided by d(y, y')^eps under the
    constraint d(y, y') <= d(x, y) / 2; the second is the third of K(q, p),
    pivot y.  The audit counts examined third-condition triples that put x with one
    of y, y' in a single square while the other sits elsewhere, which the
    disjointness condition makes impossible.
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
    exhaustive = n <= EXHAUSTIVE_LIMIT
    rng = np.random.default_rng(seed)
    a_i, wit_i = _size_scan(spec, cloud, s)

    if exhaustive:
        dm = np.abs(z[:, None] - z[None, :])
        km = kernel_values(spec, cloud, np.arange(n)[:, None], slice(None))
        # read by flat index: numpy gathers one index array faster than two
        dist = lambda p, q: dm.ravel()[p * n + q]
        kern = lambda p, q: km.ravel()[p * n + q]
        ii_triples, iii_triples = _passing_triples(dm), _passing_triples(dm)
    else:
        dist = lambda p, q: np.abs(z[p] - z[q])
        kern = lambda p, q: kernel_values(spec, cloud, p, q)
        # each draw is (x, x', y), visited pivot first
        ii_triples = ((y, x, x2) for x, x2, y in _triple_chunks(rng, n, budget))
        iii_triples = _triple_chunks(rng, n, budget)
    a_ii, (y, x, x2), _ = _increment_scan(lambda p, q: kern(q, p), dist, sq, ii_triples, s, eps)
    a_iii, wit_iii, bad = _increment_scan(kern, dist, sq, iii_triples, s, eps)

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
        iii2_counterexamples=bad,
        witness_i=wit_i,
        witness_ii=(x, x2, y),
        witness_iii=wit_iii,
    )


# Relative excess of a square pair's size bound over the exact
# side_Q^d dmin^(-d), u = 2^-53.  A pair (p, q) of squares P != Q has
# D = fl(z_p - z_q), whose components are no smaller than the float gaps
# g_x, g_y between the squares' extreme node coordinates (rounding is
# monotone), so |D|^2 >= g_x^2 + g_y^2 = dmin^2.  With c the side^d factor
# the scan multiplies by, its value fl(|K| * fl(|D|)^s) is within these
# factors of the exact c |D|^-d: the complex square (sqrt(2) gamma_2 < 3u),
# Smith's quotient (6u), the real scaling (u), the two hypots (2u each, the
# second raised to s < 2), pow (4 ulps) and the product (u): at most 24u;
# and |D|^(s + d - 2) <= 1 + 42u, since s = fl(2 - d) is off by at most u
# and |ln |D|| <= 42 on node distances in [2^-60, 2].  The bound
# fl(c fl(fl(g_x^2 + g_y^2)^(-d/2)) (1 + _SIZE_MARGIN)) loses at most 10u
# (the sum of squares raised to -d/2 > -1, pow and the two products).  So
# every scanned value is at most the bound once _SIZE_MARGIN >= 77u, 8.6e-15;
# the margin takes more than ten times that, so the ulp claims of the pow
# and hypot in use need not be tight.  It costs nothing: a pair is refined
# only when its bound is within the margin of the best value or above it.
_SIZE_MARGIN = 1e-13


def _size_bounds(cloud, factor, d):
    """Bounds of the size scan's values on every square pair: row P, column
    Q holds factor_Q dmin(P, Q)^(-d) (1 + ``_SIZE_MARGIN``), dmin from the
    gaps between the squares' node boxes, and -inf where P = Q.  ``factor``
    is the kernel's side^d per square.  The pairs run in blocks of rows, as
    the ball-sum engine's (centre, square) pairs do."""
    m, lo, hi = len(cloud.family), cloud.square_lo, cloud.square_hi
    bound = np.empty((m, m))
    step = max(1, _PAIR_BLOCK // m)
    with np.errstate(divide="ignore"):
        for b0 in range(0, m, step):
            ps = np.arange(b0, min(b0 + step, m))[:, None]
            gap2 = 0.0
            for a in (0, 1):
                gap = np.maximum(np.maximum(lo[:, a] - hi[ps, a], lo[ps, a] - hi[:, a]), 0.0)
                gap2 = gap2 + gap * gap
            block = factor * gap2 ** (-0.5 * d) * (1.0 + _SIZE_MARGIN)
            block[ps == np.arange(m)] = -np.inf
            bound[b0 : b0 + step] = block
    return bound


def _size_scan(spec, cloud, s):
    """The largest |K(p, q)| d(p, q)^s over all node pairs, zero where
    d(p, q) <= 0, and the first (p, q) in row-major order that attains it
    exactly; (0.0, (0, 0)) when no value is positive.

    Every ordered pair of squares P != Q gets the bound of
    ``_size_bounds``.  The pairs' node blocks are then evaluated in
    decreasing bound order with the steps of a full row scan (kernel,
    side^d, |.|, times d^s, zero where d <= 0), until the next bound is below
    the best value found: no value of a skipped pair can reach it, so the
    value and the witness are those of the full scan, bit for bit.
    Same-square pairs hold only zeros and are never evaluated.
    """
    z, m, nn = cloud.z, len(cloud.family), cloud.n_per_side**2
    flat = _size_bounds(cloud, cloud.side_d, spec.d).ravel()
    best, wit = 0.0, (0, 0)
    for t in np.argsort(-flat, kind="stable"):
        if flat[t] < best:
            break
        i, q = divmod(int(t), m)
        p = np.arange(i * nn, (i + 1) * nn)[:, None]  # square i's nodes
        cols = slice(q * nn, (q + 1) * nn)
        kern = kernel_values(spec, cloud, p, cols)
        vals = np.abs(kern)
        dist = np.abs(np.subtract(z[p], z[cols], out=kern))
        vals *= dist**s
        np.copyto(vals, 0.0, where=~(dist > 0))
        top = int(np.argmax(vals))
        value, at = float(vals.flat[top]), (int(p[top // nn, 0]), q * nn + top % nn)
        if value > best or (value == best and at < wit):
            best, wit = value, at
    return best, wit


def _increment_scan(kern, dist, sq, triples, s, eps):
    """The largest |K(p,a) - K(p,b)| d(p,a)^(s+eps) / d(a,b)^eps over the
    chunks of (p, a, b) index triples with 0 < d(a,b) <= d(p,a)/2, the first
    triple that attains it, and how many of those triples put p in a square
    with exactly one of a, b.  ``kern`` and ``dist`` map index arrays to
    values."""
    best, wit, mixed = 0.0, (0, 0, 0), 0
    for p, a, b in triples:
        dpa, dab = dist(p, a), dist(a, b)
        ok = (dab <= 0.5 * dpa) & (dab > 0)
        p, a, b, dpa, dab = p[ok], a[ok], b[ok], dpa[ok], dab[ok]
        sp = sq[p]
        mixed += int(np.count_nonzero((sp == sq[a]) ^ (sp == sq[b])))
        vals = np.abs(kern(p, a) - kern(p, b)) * dpa ** (s + eps) / dab**eps
        best, wit = _best(vals, best, wit, lambda t: (p[t], a[t], b[t]))
    return best, wit, mixed


def _passing_triples(dm):
    """Per pivot p, in lexicographic order, every (p, a, b) with
    d(a, b) <= d(p, a) / 2 on the distance matrix ``dm``."""
    for p in range(len(dm)):
        a, b = np.nonzero(dm <= 0.5 * dm[p][:, None])
        yield np.full(a.size, p), a, b


def _triple_chunks(rng, n, budget):
    drawn = 0
    while drawn < budget:
        take = min(100_000, budget - drawn)  # triples per draw; bounds the scan's arrays
        drawn += take
        yield tuple(rng.integers(0, n, size=take) for _ in range(3))

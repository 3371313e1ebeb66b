"""Exact dyadic-square geometry.

Squares live on the standard dyadic lattice: generation ``k`` holds the
half-open cells ``[i*2^-k, (i+1)*2^-k) x [j*2^-k, (j+1)*2^-k)``.  Admissible
families must keep the 4-fold concentric dilates of their members pairwise
disjoint and obey a packing bound: for every dyadic square Q, the sum of
``side^(2-d)`` over members contained in Q may not exceed a constant times
``side(Q)^(2-d)``.  Both checks are decided here.  Dilate disjointness is
decided in exact integer arithmetic.  The packing constant comes from one
engine, ``PackingState``: a dict from integer ancestor (k, i, j) to the
weights of the members inside it, with one correctly rounded ``math.fsum``
per ancestor.  ``packing_constant`` inserts a whole list into it, and
``generate_family`` inserts each accepted draw, so the generator's
decisions and the stored ``c_pack`` round alike.
"""

from __future__ import annotations

import bisect
import json
import math
import random
from dataclasses import dataclass

import numpy as np

from nhcz.reports import write_json_atomic

# A family file's generations are capped so every side 2^-k, and each power
# of it that the measure and the kernels take, lies far inside float64's
# range.  Its lattice indices must lie below 2^53 in absolute value, so that
# a square's corner i * side, an integer times a power of two, is an exact
# float64.
MAX_ABS_GENERATION = 40


@dataclass(frozen=True, order=True)
class DyadicSquare:
    """Lattice cell of generation ``k`` at integer position ``(i, j)``."""

    k: int
    i: int
    j: int

    @property
    def side(self) -> float:
        return 2.0 ** (-self.k)

    @property
    def center(self) -> tuple[float, float]:
        s = 2.0 ** (-self.k)
        return ((self.i + 0.5) * s, (self.j + 0.5) * s)


@dataclass(frozen=True)
class DisjointnessVerdict:
    ok: bool
    witness: tuple[int, int] | None = None


def _scaled_dilate(sq: DyadicSquare, k_unit: int, lam_num: int = 4) -> tuple[int, int, int]:
    """Center and half-side of ``lam_num * sq`` as integers in units of
    2^-(k_unit+1), for ``sq.k <= k_unit``: centers become odd multiples of
    ``2^(k_unit - sq.k)`` and, ``lam_num`` being a positive integer, the
    half-side stays integral, so closed-dilate overlap tests are exact."""
    sc = 1 << (k_unit - sq.k)
    return (2 * sq.i + 1) * sc, (2 * sq.j + 1) * sc, lam_num * sc


def _dilates_meet(a: tuple[int, int, int], b: tuple[int, int, int]) -> bool:
    """Closed-square overlap of two ``_scaled_dilate`` triples of one unit;
    touching counts as meeting."""
    reach = a[2] + b[2]
    return abs(a[0] - b[0]) <= reach and abs(a[1] - b[1]) <= reach


def _scaled_centers_halves(squares):
    """Integer center/half-side lists of the squares themselves in units of
    2^-(kmax+1) (``_scaled_dilate`` with ``lam_num`` 1)."""
    kmax = max(s.k for s in squares)
    cx, cy, h = zip(*(_scaled_dilate(s, kmax, 1) for s in squares))
    return list(cx), list(cy), list(h)


def check_disjointness(squares: list[DyadicSquare]) -> DisjointnessVerdict:
    """Exact verdict on pairwise disjointness of the closed 4-dilates.

    Returns the first offending index pair (a, b), a < b, in row-major
    order as witness; touching dilates count as intersecting.  A sweep over
    the dilates sorted by left edge tests only the pairs whose closed
    x-intervals overlap; every meeting pair is collected, so the smallest
    is the pair an all-pairs loop would meet first.
    """
    if not squares:
        raise ValueError("empty square list")
    kmax = max(s.k for s in squares)
    dil = [_scaled_dilate(s, kmax) for s in squares]
    by_left = sorted(range(len(dil)), key=lambda a: dil[a][0] - dil[a][2])
    lefts = [dil[a][0] - dil[a][2] for a in by_left]
    meets = []
    for i, a in enumerate(by_left):
        xa, ya, ha = dil[a]
        # the dilates after ``a`` up to ``end`` start within its x-interval
        end = bisect.bisect_right(lefts, xa + ha, i + 1)
        for b in by_left[i + 1 : end]:
            if abs(ya - dil[b][1]) <= ha + dil[b][2]:
                meets.append((min(a, b), max(a, b)))
    if meets:
        return DisjointnessVerdict(False, min(meets))
    return DisjointnessVerdict(True, None)


def overlapping_pair(squares: list[DyadicSquare]) -> tuple[int, int] | None:
    """The first pair (a, b), a < b, in row-major order, of squares whose
    interiors meet, or None.  Two dyadic squares overlap exactly when one
    is the other or one of its ancestors, so each square looks up itself
    and its ancestors at the list's generations among the earlier squares,
    and itself among the earlier squares' ancestors.  Each square's first
    hit is its smallest a, so the smallest pair over the squares is the
    row-major first."""
    gens = sorted({sq.k for sq in squares})
    first, under, pairs = {}, {}, []  # key -> first square with that key / at or below it
    for b, sq in enumerate(squares):
        keys = [(g, sq.i >> (sq.k - g), sq.j >> (sq.k - g)) for g in gens if g <= sq.k]
        near = [a for a in (*map(first.get, keys[:-1]), under.get(keys[-1])) if a is not None]
        if near:
            pairs.append((min(near), b))
        first.setdefault(keys[-1], b)
        for key in keys:
            under.setdefault(key, b)
    return min(pairs, default=None)


class PackingState:
    """Packing sums of a growing square list, keyed by integer ancestor (k, i, j).

    Every tracked ancestor keeps the weights ``side^(2-d)`` of the members
    inside it; its ratio is one ``math.fsum`` of those weights over its own
    weight, so the value does not depend on insertion order.  Generations
    are tracked from ``k_floor = floor(-log2(W)/(2-d)) - 1``, where W is an
    upper bound on the total weight ever inserted: coarser squares have
    ratio below 1, and every member attains ratio 1.0 itself, so the floor
    loses nothing.  A square changes only the sums of its own ancestors,
    so the constant after an insertion is the larger of the old constant
    and those ancestors' new ratios.  The witness is the lowest (k, i, j)
    key among tied maxima.
    """

    def __init__(self, d: float, weight_bound: float):
        self.exponent = 2.0 - d
        self.k_floor = math.floor(-math.log2(weight_bound) / self.exponent) - 1
        self.members: dict[tuple[int, int, int], list[float]] = {}
        self.constant = 0.0
        self.witness: tuple[int, int, int] | None = None

    def weight(self, k: int) -> float:
        return (2.0 ** -k) ** self.exponent

    def ancestors(self, sq: DyadicSquare) -> list[tuple[int, int, int]]:
        """Keys of the tracked squares containing ``sq``, ``sq`` itself last."""
        if sq.k <= self.k_floor:
            raise ValueError(f"generation {sq.k} is not finer than the floor {self.k_floor}: weight bound too small")
        return [(ka, sq.i >> (sq.k - ka), sq.j >> (sq.k - ka)) for ka in range(self.k_floor, sq.k + 1)]

    def _lead(self, sums) -> tuple[float, tuple[int, int, int] | None]:
        """Constant and witness once each (key, weights) pair of ``sums``
        holds; ratios only rise, so untouched ancestors keep their standing."""
        best, wit = self.constant, self.witness
        for key, weights in sums:
            ratio = math.fsum(weights) / self.weight(key[0])
            if ratio > best or (ratio == best and key < wit):
                best, wit = ratio, key
        return best, wit

    def insert(self, sq: DyadicSquare, limit: float = math.inf) -> bool:
        """Add ``sq`` unless the constant would exceed ``limit``; True iff added."""
        w = self.weight(sq.k)
        keys = self.ancestors(sq)
        best, wit = self._lead((key, [*self.members.get(key, ()), w]) for key in keys)
        if best > limit:
            return False
        for key in keys:
            self.members.setdefault(key, []).append(w)
        self.constant, self.witness = best, wit
        return True

    def extend(self, squares) -> None:
        """Add every square, computing each touched ancestor's ratio once."""
        touched = set()
        for sq in squares:
            w = self.weight(sq.k)
            for key in self.ancestors(sq):
                self.members.setdefault(key, []).append(w)
                touched.add(key)
        self.constant, self.witness = self._lead((key, self.members[key]) for key in touched)


def packing_constant(squares: list[DyadicSquare], d: float) -> tuple[float, DyadicSquare]:
    """Supremum over dyadic squares Q of sum(side^(2-d) of members in Q) / side(Q)^(2-d).

    Returns the constant and the lowest (k, i, j) square attaining it.
    Works for arbitrary square lists (admissible or not): every square is
    inserted into one ``PackingState`` bounded by the total weight.
    """
    if not squares:
        raise ValueError("empty square list")
    if not (0.0 < d < 2.0):
        raise ValueError(f"exponent d must lie in (0, 2), got {d}")
    state = PackingState(d, math.fsum((2.0 ** -s.k) ** (2.0 - d) for s in squares))
    state.extend(squares)
    return state.constant, DyadicSquare(*state.witness)


def _check_d_and_target(d, packing_target):
    """Rejects an exponent outside (0, 2) and a packing target that is not a
    finite number >= 1 (NaN and infinity included)."""
    if not (0.0 < d < 2.0):
        raise ValueError(f"exponent d must lie in (0, 2), got {d}")
    if not (1.0 <= packing_target < math.inf):
        raise ValueError(f"packing target must be finite and >= 1, got {packing_target}")


@dataclass
class SquareFamily:
    """A square list together with its exponent and packing data.

    ``complete`` is False when a generator run stopped at its attempt budget
    before reaching the requested member count.
    """

    squares: list[DyadicSquare]
    d: float
    packing_target: float
    c_pack: float
    c_pack_witness: DyadicSquare
    complete: bool = True

    @classmethod
    def build(cls, squares, d, packing_target, complete=True) -> "SquareFamily":
        if not squares:
            raise ValueError("a family needs at least one square")
        _check_d_and_target(d, packing_target)
        c, wit = packing_constant(squares, d)
        return cls(list(squares), float(d), float(packing_target), c, wit, complete)

    def __len__(self) -> int:
        return len(self.squares)

    def sides(self) -> np.ndarray:
        return np.array([s.side for s in self.squares])

    def centers(self) -> np.ndarray:
        return np.array([s.center for s in self.squares])

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "packing_target": self.packing_target,
            "squares": [{"k": s.k, "i": s.i, "j": s.j} for s in self.squares],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "SquareFamily":
        """The family of a parsed JSON file; malformed content raises ValueError."""
        if not isinstance(obj, dict) or not isinstance(obj.get("squares"), list):
            raise ValueError("a family file is an object with a list of squares")
        squares = [DyadicSquare(*(_lattice_int(s, key) for key in "kij")) for s in obj["squares"]]
        if any(abs(sq.k) > MAX_ABS_GENERATION for sq in squares):
            raise ValueError(f"|generation| must be <= {MAX_ABS_GENERATION}")
        if any(max(abs(sq.i), abs(sq.j)) >= 2**53 for sq in squares):
            raise ValueError("|i| and |j| must be below 2^53")
        if (pair := overlapping_pair(squares)) is not None:
            a, b = pair
            raise ValueError(f"squares {a} and {b} overlap ({squares[a]}, {squares[b]}): none may repeat or nest")
        d, target = obj["d"], obj["packing_target"]
        if not all(type(v) in (int, float) and abs(v) <= 1e300 for v in (d, target)):
            raise ValueError(f"d and packing_target must be finite numbers, got {d!r} and {target!r}")
        return cls.build(squares, float(d), float(target))

    def save(self, path) -> None:
        write_json_atomic(path, self.to_json_dict())

    @classmethod
    def load(cls, path) -> "SquareFamily":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def _lattice_int(square: dict, key: str) -> int:
    """One lattice coordinate of a JSON square; integral floats pass, other
    values (fractions, strings, booleans) and non-object squares are rejected."""
    if not isinstance(square, dict):
        raise ValueError(f"a square must be an object with k, i and j, got {square!r}")
    value = square[key]
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"square {key} must be an integer, got {square[key]!r}")
    return value


def suggest_generation_range(count: int, d: float, packing_target: float = 4.0) -> tuple[int, int]:
    """Generation window in which a count-member draw has room to succeed.

    Fine enough that the total packing weight stays around half the target
    and that 4-dilates of the finest squares have spare room in a unit box.
    """
    k_pack = math.log2(max(2.0 * count / packing_target, 1.0)) / (2.0 - d)
    k_geom = 0.5 * math.log2(count) + 3.0
    k0 = max(2, math.ceil(max(k_pack, k_geom)))
    return (k0, k0 + 2)


def generate_cascade_family(seed: int, count: int, d: float, packing_target: float) -> SquareFamily:
    """Seeded hierarchical family with scale-invariant local geometry.

    A 4-ary cascade: each cluster cell spawns children in its four corner
    subcells, contracting by 2^-s per level with s = max(3, ceil(2/(2-d))).
    The contraction keeps sibling 4-dilates disjoint and the per-level
    packing ratio at most 1, so the packing constant stays near 1 for every
    size.  Because each level repeats the same local configuration, operator
    constants measured on cascades of different sizes are comparable, which
    uniform rejection sampling cannot offer (its density, and with it the
    operator scale, degenerates as the count grows).  The cascade starts
    from the unit square; surplus bottom cells beyond ``count`` are dropped
    at random.  That drop is the only use of ``seed``, so a power-of-4
    ``count`` (4, 16, 64, 256, ...) gives the same family for every seed.
    """
    _check_d_and_target(d, packing_target)
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = random.Random(seed)
    levels = math.ceil(math.log(count, 4)) if count > 1 else 0
    # contraction depends on d alone so cascades of different sizes repeat the
    # same local geometry; per-level packing factor 4 * 2^(-spread (2-d)) <= 1,
    # and spread >= 3 keeps sibling 4-dilates apart
    spread = max(3, math.ceil(2.0 / (2.0 - d)))
    if spread * levels > MAX_ABS_GENERATION:
        raise ValueError(f"cascade depth for count={count}, d={d} exceeds the generation cap")
    cells = [DyadicSquare(0, 0, 0)]
    for _ in range(levels):
        corner = (1 << spread) - 1
        nxt = []
        for c in cells:
            base_i, base_j = c.i << spread, c.j << spread
            for a, b in ((0, 0), (corner, 0), (0, corner), (corner, corner)):
                nxt.append(DyadicSquare(c.k + spread, base_i + a, base_j + b))
        cells = nxt
    if len(cells) > count:
        keep = sorted(rng.sample(range(len(cells)), count))
        cells = [cells[t] for t in keep]
    fam = SquareFamily.build(cells, d, packing_target)
    verdict = check_disjointness(cells)
    if not verdict.ok or fam.c_pack > packing_target:
        raise RuntimeError("cascade construction produced an inadmissible family")
    return fam


_ATTEMPTS_PER_SQUARE, _MIN_ATTEMPTS = 400, 4000  # generate_family's attempt budget; read at call time


def generate_family(
    seed: int,
    count: int,
    d: float,
    packing_target: float,
    k_range: tuple[int, int] = (2, 6),
    box: tuple[float, float, float, float] = (0.0, 0.0, 1.0, 1.0),
) -> SquareFamily:
    """Rejection-sample an admissible family, deterministically from ``seed``.

    Candidates are drawn uniformly over (generation, cell-in-box); a draw is
    kept iff its 4-dilate stays disjoint from all kept dilates (exact check)
    and the packing constant after insertion stays within the target (one
    ``PackingState`` for the whole run).  The run stops after
    ``_ATTEMPTS_PER_SQUARE`` draws per requested square, and no fewer than
    ``_MIN_ATTEMPTS``.
    """
    _check_d_and_target(d, packing_target)
    if count < 1:
        raise ValueError("count must be >= 1")
    k_min, k_max = k_range
    if k_min > k_max:
        raise ValueError(f"bad generation range {k_range}")
    if max(abs(k_min), abs(k_max)) > MAX_ABS_GENERATION:
        raise ValueError(f"|generation| must be <= {MAX_ABS_GENERATION}")
    x0, y0, x1, y1 = box
    if not (x0 < x1 and y0 < y1):
        raise ValueError(f"bad bounding box {box}")
    # cell indices are the box bounds times 2^k, which must stay finite
    if not all(math.isfinite(v * 2.0**k) for v in box for k in (k_min, k_max)):
        raise ValueError(f"bounding box {box} is not finite at generations {k_range}")
    max_attempts = max(_ATTEMPTS_PER_SQUARE * count, _MIN_ATTEMPTS)

    rng = random.Random(seed)
    accepted: list[DyadicSquare] = []
    # exact dilate data of the accepted squares, in the fixed unit 2^-(k_max+1)
    dilates: list[tuple[int, int, int]] = []
    state = PackingState(d, count * (2.0 ** -k_min) ** (2.0 - d))
    attempts = 0
    while len(accepted) < count and attempts < max_attempts:
        attempts += 1
        k = rng.randint(k_min, k_max)
        scale = 2.0 ** k
        ilo, ihi = math.ceil(x0 * scale), math.floor(x1 * scale) - 1
        jlo, jhi = math.ceil(y0 * scale), math.floor(y1 * scale) - 1
        if ilo > ihi or jlo > jhi:
            continue
        cand = DyadicSquare(k, rng.randint(ilo, ihi), rng.randint(jlo, jhi))
        dil = _scaled_dilate(cand, k_max)
        if any(_dilates_meet(dil, other) for other in dilates):
            continue
        if not state.insert(cand, packing_target):
            continue
        accepted.append(cand)
        dilates.append(dil)
    complete = len(accepted) == count
    if not accepted:
        raise ValueError("generator accepted no squares within the attempt budget")
    return SquareFamily.build(accepted, d, packing_target, complete=complete)

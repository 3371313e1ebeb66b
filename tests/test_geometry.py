import hashlib
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import nhcz.geometry
from nhcz.geometry import (
    MAX_ABS_GENERATION,
    DyadicSquare,
    PackingState,
    SquareFamily,
    _dilates_meet,
    _scaled_dilate,
    check_disjointness,
    generate_cascade_family,
    generate_family,
    overlapping_pair,
    packing_constant,
    suggest_generation_range,
)
from nhcz.cli import main
from nhcz.reports import canonical_json
from oracles import disjointness_loop, min_pair_distances, packing_bruteforce


def test_disjointness_far_pair_ok():
    v = check_disjointness([DyadicSquare(0, 0, 0), DyadicSquare(0, 8, 0)])
    assert v.ok and v.witness is None


def test_disjointness_close_pair_witnessed():
    v = check_disjointness([DyadicSquare(0, 0, 0), DyadicSquare(0, 3, 0)])
    assert not v.ok
    assert v.witness == (0, 1)


def test_disjointness_single_square_ok():
    assert check_disjointness([DyadicSquare(3, 5, 1)]).ok


def test_disjointness_touching_dilates_count_as_intersecting():
    # dilate half-sides 2 each, center gap exactly 4: closed regions touch
    v = check_disjointness([DyadicSquare(0, 0, 0), DyadicSquare(0, 4, 0)])
    assert not v.ok


def test_disjointness_duplicate_squares_caught():
    v = check_disjointness([DyadicSquare(1, 2, 2), DyadicSquare(1, 2, 2)])
    assert not v.ok


def test_disjointness_mixed_generations():
    # side-1 square at origin vs side-1/2 square far away
    assert check_disjointness([DyadicSquare(0, 0, 0), DyadicSquare(1, 20, 0)]).ok
    assert not check_disjointness([DyadicSquare(0, 0, 0), DyadicSquare(1, 5, 0)]).ok


def test_packing_constant_single_square():
    for d in (0.3, 1.0, 1.7):
        c, wit = packing_constant([DyadicSquare(2, 3, 1)], d)
        assert c == 1.0
        assert wit == DyadicSquare(2, 3, 1)


def test_packing_constant_two_children_d1():
    squares = [DyadicSquare(1, 0, 0), DyadicSquare(1, 1, 0)]
    c, _ = packing_constant(squares, 1.0)
    assert c == pytest.approx(1.0, abs=0.0)


def test_packing_constant_two_children_d15():
    squares = [DyadicSquare(1, 0, 0), DyadicSquare(1, 1, 0)]
    c, wit = packing_constant(squares, 1.5)
    assert c == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert wit == DyadicSquare(0, 0, 0)


def test_packing_constant_rejects_bad_exponent():
    with pytest.raises(ValueError):
        packing_constant([DyadicSquare(0, 0, 0)], 0.0)
    with pytest.raises(ValueError):
        packing_constant([DyadicSquare(0, 0, 0)], 2.0)


@pytest.mark.parametrize("seed", range(6))
def test_packing_constant_matches_bruteforce(seed):
    rng = random.Random(seed)
    d = rng.choice([0.5, 1.0, 1.3, 1.8])
    squares = []
    for _ in range(rng.randint(2, 10)):
        k = rng.randint(0, 5)
        squares.append(DyadicSquare(k, rng.randint(0, 2**k + 3), rng.randint(0, 2**k + 3)))
    c, _ = packing_constant(squares, d)
    c_ref, _ = packing_bruteforce(squares, d)
    assert c == pytest.approx(c_ref, rel=1e-12)


def test_packing_constant_translation_invariant():
    squares = [DyadicSquare(2, 1, 2), DyadicSquare(3, 14, 3), DyadicSquare(2, 9, 9)]
    d = 1.2
    c0, _ = packing_constant(squares, d)
    k_coarse = min(s.k for s in squares)
    # translate by one coarsest-generation lattice step in x and y
    moved = [
        DyadicSquare(s.k, s.i + (1 << (s.k - k_coarse)), s.j + (1 << (s.k - k_coarse)))
        for s in squares
    ]
    c1, _ = packing_constant(moved, d)
    assert c1 == pytest.approx(c0, rel=1e-12)


def test_packing_constant_rescaling_invariant():
    squares = [DyadicSquare(2, 1, 2), DyadicSquare(3, 14, 3), DyadicSquare(4, 37, 21)]
    d = 0.7
    c0, _ = packing_constant(squares, d)
    halved = [DyadicSquare(s.k + 1, 2 * s.i, 2 * s.j) for s in squares]
    c1, _ = packing_constant(halved, d)
    assert c1 == pytest.approx(c0, rel=1e-12)


@st.composite
def square_lists(draw, k_lo=-MAX_ABS_GENERATION, k_hi=MAX_ABS_GENERATION, reach=2**12, size=8):
    """Square lists with negative generations and indices; a square is either
    drawn afresh or placed next to (or inside, or around) an earlier one, so
    nested squares, duplicates and tied ratios come up."""
    squares = []
    for _ in range(draw(st.integers(1, size))):
        if squares and draw(st.booleans()):
            base = draw(st.sampled_from(squares))
            k = draw(st.integers(max(k_lo, base.k - 2), min(k_hi, base.k + 2)))
            shift = k - base.k
            i0 = base.i << shift if shift >= 0 else base.i >> -shift
            j0 = base.j << shift if shift >= 0 else base.j >> -shift
            squares.append(DyadicSquare(k, i0 + draw(st.integers(-8, 8)), j0 + draw(st.integers(-8, 8))))
        else:
            k = draw(st.integers(k_lo, k_hi))
            squares.append(DyadicSquare(k, draw(st.integers(-reach, reach)), draw(st.integers(-reach, reach))))
    return squares


@given(square_lists(), st.sampled_from([0.02, 0.3, 1.0, 1.7, 1.98]))
def test_packing_state_matches_packing_constant_after_every_insertion(squares, d):
    # the generator's bound: member count times the coarsest member's weight
    state = PackingState(d, len(squares) * (2.0 ** -min(s.k for s in squares)) ** (2.0 - d))
    for t, sq in enumerate(squares, start=1):
        assert state.insert(sq)
        c, wit = packing_constant(squares[:t], d)
        assert state.constant == c and DyadicSquare(*state.witness) == wit
        # one correctly rounded sum per ancestor: the order of the list is moot
        assert packing_constant(squares[:t][::-1], d) == (c, wit)
        c_ref, _ = packing_bruteforce(squares[:t], d)
        assert c == pytest.approx(c_ref, rel=1e-12)


def test_packing_state_insert_respects_the_limit():
    state = PackingState(1.5, 2 * 0.5 ** 0.5)
    assert state.insert(DyadicSquare(1, 0, 0), limit=1.2)
    # the sibling lifts the parent's ratio to sqrt(2): refused, nothing stored
    assert not state.insert(DyadicSquare(1, 1, 0), limit=1.2)
    assert (state.constant, state.witness) == (1.0, (1, 0, 0))
    assert state.insert(DyadicSquare(1, 1, 0), limit=1.5)
    assert state.constant == pytest.approx(math.sqrt(2.0), rel=1e-14) and state.witness == (0, 0, 0)


def test_packing_witness_is_the_lowest_tied_square(tmp_path, capsys):
    # 16 members of generation 6 spaced five cells apart fill Q = (2, 0, 0)
    # exactly: Q and every member have ratio 1.0 at d = 1, Q has the lowest key
    squares = [DyadicSquare(6, 5 * a, 5 * b) for a in range(4) for b in range(4)]
    fam = SquareFamily.build(squares, 1.0, 4.0)
    assert check_disjointness(squares).ok
    assert fam.c_pack == 1.0 and fam.c_pack_witness == DyadicSquare(2, 0, 0)
    # without Q's fill the tie is among the members alone: the lowest wins
    fam = SquareFamily.build(squares[::-1][:5], 1.0, 4.0)
    assert fam.c_pack == 1.0 and fam.c_pack_witness == min(squares[::-1][:5])
    path = tmp_path / "tied.json"
    SquareFamily.build(squares[::-1], 1.0, 4.0).save(path)
    assert main(["validate", "--family", str(path), "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "validate.json").read_text())
    assert report["witnesses"]["packing_witness"] == {"k": 2, "i": 0, "j": 0}


def test_generate_family_computes_the_packing_constant_once(monkeypatch):
    calls = []

    def counting(squares, d):
        calls.append(len(squares))
        return packing_constant(squares, d)

    monkeypatch.setattr(nhcz.geometry, "packing_constant", counting)
    fam = generate_family(seed=7, count=32, d=1.2, packing_target=4.0, k_range=(2, 6))
    assert calls == [32] and len(fam) == 32


def _float_dilates_meet(a, b):
    """Float overlap of the closed 4-dilates, whose half-sides are 2 * side."""
    (ax, ay), (bx, by) = a.center, b.center
    reach = 2.0 * a.side + 2.0 * b.side
    return abs(ax - bx) <= reach and abs(ay - by) <= reach


# flush dilates need one generation (centres of generations k < k' differ by
# an odd multiple of 2^-(k'+1), the reach is an even one): edge, corner, apart
@example([DyadicSquare(3, 0, 0), DyadicSquare(3, 4, 1)])
@example([DyadicSquare(3, 0, 0), DyadicSquare(3, -4, -4)])
@example([DyadicSquare(3, 0, 0), DyadicSquare(3, 5, 0), DyadicSquare(4, 3, 9)])
@given(square_lists(k_lo=-6, k_hi=12, reach=2**8, size=10))
def test_check_disjointness_matches_float_bruteforce(squares):
    # generations -6..12 and indices below 2^9 keep every dyadic coordinate,
    # difference and half-side sum exact in a float
    pairs = [
        (a, b)
        for a in range(len(squares))
        for b in range(a + 1, len(squares))
        if _float_dilates_meet(squares[a], squares[b])
    ]
    verdict = check_disjointness(squares)
    assert verdict.ok == (not pairs)
    assert verdict.witness == (pairs[0] if pairs else None)


# two meeting pairs, (1, 2) first in left-edge order and (0, 3) first in
# row-major order
@example([DyadicSquare(3, 9, 0), DyadicSquare(3, 0, 0), DyadicSquare(3, 1, 2), DyadicSquare(3, 8, 1)])
@example([DyadicSquare(3, 4, 1), DyadicSquare(3, 0, 0)])  # flush x-edges meet
@given(square_lists(size=16))
def test_disjointness_sweep_matches_the_pair_loop(squares):
    assert check_disjointness(squares) == disjointness_loop(squares)


def test_disjointness_sweep_matches_the_pair_loop_on_cascades():
    for count in (16, 40, 256):
        squares = generate_cascade_family(seed=3, count=count, d=1.2, packing_target=4.0).squares
        assert check_disjointness(squares) == disjointness_loop(squares)
        moved = squares + [DyadicSquare(s.k, s.i + 1, s.j) for s in squares[::7]]
        assert check_disjointness(moved) == disjointness_loop(moved)
        assert not disjointness_loop(moved).ok


def _interiors_meet(a, b):
    """Open-square overlap, in integer units of the finer generation."""
    k = max(a.k, b.k)
    (ax, ay, asz), (bx, by, bsz) = ((s.i << (k - s.k), s.j << (k - s.k), 1 << (k - s.k)) for s in (a, b))
    return max(ax, bx) < min(ax + asz, bx + bsz) and max(ay, by) < min(ay + asz, by + bsz)


@given(square_lists(k_lo=-2, k_hi=4, reach=8, size=10))
@example([DyadicSquare(3, 1, 1), DyadicSquare(3, 1, 1)])
@example([DyadicSquare(3, 0, 0), DyadicSquare(2, 0, 0), DyadicSquare(3, 5, 5), DyadicSquare(-1, -1, -1)])
def test_overlapping_pair_matches_the_interior_pair_loop(squares):
    pairs = [(a, b) for b in range(len(squares)) for a in range(b) if _interiors_meet(squares[a], squares[b])]
    assert overlapping_pair(squares) == min(pairs, default=None)


@pytest.mark.parametrize(
    "squares, pair",
    [([(3, 1, 1), (3, 1, 1)], (0, 1)), ([(2, 0, 0), (3, 0, 0)], (0, 1)), ([(3, 4, 4), (3, 1, 1), (1, 0, 0)], (1, 2))],
)
def test_family_file_with_overlapping_squares_is_refused(squares, pair):
    obj = {"d": 1.2, "packing_target": 4.0, "squares": [dict(zip("kij", sq)) for sq in squares]}
    with pytest.raises(ValueError, match=f"squares {pair[0]} and {pair[1]} overlap"):
        SquareFamily.from_json_dict(obj)
    SquareFamily.build([DyadicSquare(*sq) for sq in squares], 1.2, 4.0)  # the constructor stays permissive


@given(square_lists(k_lo=-6, k_hi=12, reach=2**8, size=10), st.integers(0, 3))
def test_generator_fixed_unit_test_matches_check_disjointness(squares, extra):
    # keep a pairwise disjoint prefix, as the generator does, then test the rest
    accepted = []
    for cand in squares:
        k_unit = max(s.k for s in squares) + extra  # the generator's k_range[1]
        meets = any(_dilates_meet(_scaled_dilate(cand, k_unit), _scaled_dilate(a, k_unit)) for a in accepted)
        if accepted:
            assert meets == (not check_disjointness(accepted + [cand]).ok)
        if not meets:
            accepted.append(cand)


def test_generate_single_square_family():
    fam = generate_family(seed=1, count=1, d=1.0, packing_target=2.0)
    assert len(fam) == 1
    assert fam.complete
    assert fam.c_pack == 1.0
    assert check_disjointness(fam.squares).ok


def test_generate_family_validates_by_exact_checkers():
    fam = generate_family(seed=7, count=32, d=1.2, packing_target=4.0, k_range=(2, 6))
    assert fam.complete and len(fam) == 32
    assert check_disjointness(fam.squares).ok
    c, _ = packing_constant(fam.squares, fam.d)
    assert c == fam.c_pack
    assert c <= 4.0


def test_generate_family_deterministic():
    a = generate_family(seed=42, count=12, d=0.9, packing_target=4.0, k_range=(2, 5))
    b = generate_family(seed=42, count=12, d=0.9, packing_target=4.0, k_range=(2, 5))
    assert a.squares == b.squares
    assert a.c_pack == b.c_pack


def test_generate_family_partial_flag_on_tight_budget(monkeypatch):
    # a budget of 300 attempts for 500 squares
    monkeypatch.setattr(nhcz.geometry, "_ATTEMPTS_PER_SQUARE", 0)
    monkeypatch.setattr(nhcz.geometry, "_MIN_ATTEMPTS", 300)
    fam = generate_family(seed=3, count=500, d=1.0, packing_target=4.0, k_range=(2, 3))
    assert not fam.complete
    assert len(fam) < 500
    assert check_disjointness(fam.squares).ok


def test_admissible_pair_distance_bound():
    fam = generate_family(seed=11, count=24, d=1.4, packing_target=4.0, k_range=(3, 6))
    sides = fam.sides()
    idx = 0
    dists = min_pair_distances(fam.squares)
    for a in range(len(fam)):
        for b in range(a + 1, len(fam)):
            assert dists[idx] >= 1.5 * (sides[a] + sides[b])
            idx += 1


def test_family_json_roundtrip(tmp_path):
    fam = generate_family(seed=5, count=9, d=1.1, packing_target=3.0, k_range=(2, 5))
    path = tmp_path / "family.json"
    fam.save(path)
    loaded = SquareFamily.load(path)
    assert loaded.squares == fam.squares
    assert loaded.d == fam.d
    assert loaded.packing_target == fam.packing_target
    assert loaded.c_pack == fam.c_pack
    # and the raw JSON matches the documented schema
    obj = json.loads(path.read_text())
    assert set(obj) == {"d", "packing_target", "squares"}
    assert all(set(s) == {"k", "i", "j"} for s in obj["squares"])


def test_suggested_ranges_allow_generation():
    for count, d in [(4, 0.8), (16, 1.2), (64, 1.6)]:
        k_range = suggest_generation_range(count, d, 4.0)
        fam = generate_family(seed=2, count=count, d=d, packing_target=4.0, k_range=k_range)
        assert fam.complete, (count, d, k_range)


@pytest.mark.parametrize("count,d", [(1, 1.0), (4, 0.8), (10, 1.2), (64, 1.6), (256, 1.6)])
def test_cascade_family_admissible(count, d):
    fam = generate_cascade_family(seed=5, count=count, d=d, packing_target=4.0)
    assert len(fam) == count
    assert fam.complete
    assert check_disjointness(fam.squares).ok
    assert fam.c_pack <= 4.0


def test_cascade_family_deterministic_and_seeded():
    a = generate_cascade_family(seed=1, count=10, d=1.2, packing_target=4.0)
    b = generate_cascade_family(seed=1, count=10, d=1.2, packing_target=4.0)
    assert a.squares == b.squares
    c = generate_cascade_family(seed=2, count=10, d=1.2, packing_target=4.0)
    assert a.squares != c.squares  # different cells dropped


# sha256 of canonical_json(family.to_json_dict()): the scaling_row
# benchmark's cascade (seed 1_000_003 s + 256 for s = 0, 1; a count of 4^4
# drops no cell, so the seed does not enter), the rows of acceptance
# criterion 3 (seed = count, as scaling_study draws them at seed 0) and two
# counts that drop cells at random
CASCADE_DIGESTS = {
    (256, 256, 1.2): "941d64a2a1fa95d520b054651103c647404e8fe6f1be69ae18f9ac8a112f8b68",
    (1_000_259, 256, 1.2): "941d64a2a1fa95d520b054651103c647404e8fe6f1be69ae18f9ac8a112f8b68",
    (4, 4, 0.8): "5e8531dcc1c9795a5e9615ef0b18234a2bbe62a6ce88f83f77b72c0cd365b5da",
    (16, 16, 0.8): "b1936c6f68e907b70f5496ac57bd8c6119c5274c855776b5ed6a5d5f319699cd",
    (64, 64, 0.8): "15b7ce142266262aaaf01a50708ed9bfb6535540883ad11c17f11f22e1792aae",
    (256, 256, 0.8): "c3e07fa8bbfc2fbff6314b7fb3ce4571cdbecef679a35a9c076ddf58da1d6972",
    (4, 4, 1.2): "5ffe436cb240a6a03fab9974ab3f6a40a9ab221642f8217e22bfa0c768ea1bcf",
    (16, 16, 1.2): "09ebc42ab734809241d94cfc0c82b128c6e31d61c135acdef76ef7cea6ce3090",
    (64, 64, 1.2): "a6c8f29a5225f807a436642fb9898828967f8e2ff1f5383a59a7f12703185cf6",
    (4, 4, 1.6): "f31910b1cab94b5850b2cd3b6143abd85c88f74b06684be8898c30cfa4038ec2",
    (16, 16, 1.6): "b2c23281fb194e4154d22f8af4e767778bdd78421bc2161e5eebabf72613de82",
    (64, 64, 1.6): "462a3261f013dd3a2e8682d8c5a84775210c7b9f532b9a587aab06f1946d867e",
    (256, 256, 1.6): "ef8b918e50d2c2d7a6d4cb27f9ae5ac13a8eca11904d3d4efd2cd37b20acb121",
    (1, 10, 1.2): "b13d350dc9c7c10b16967d74468e0aedfd36602e7b162936bb57bf590f3a9a60",
    (5, 200, 1.6): "3b2845080057829ac746ebcc2ad197e7feb7532b00a87bfb06689b3af938a92e",
}


@pytest.mark.parametrize("seed,count,d", sorted(CASCADE_DIGESTS))
def test_cascade_family_squares_are_pinned(seed, count, d):
    fam = generate_cascade_family(seed=seed, count=count, d=d, packing_target=4.0)
    digest = hashlib.sha256(canonical_json(fam.to_json_dict()).encode()).hexdigest()
    assert digest == CASCADE_DIGESTS[(seed, count, d)]


def test_cascade_family_rejects_bad_inputs():
    with pytest.raises(ValueError):
        generate_cascade_family(seed=0, count=0, d=1.0, packing_target=4.0)
    with pytest.raises(ValueError):
        generate_cascade_family(seed=0, count=4, d=1.99, packing_target=4.0)  # depth blows the cap
    with pytest.raises(ValueError):
        generate_cascade_family(seed=0, count=17, d=1.9, packing_target=4.0)  # three levels of 20: 60 > 40
    # two levels of 20 generations reach the cap exactly, which is allowed
    fam = generate_cascade_family(seed=0, count=16, d=1.9, packing_target=4.0)
    assert max(s.k for s in fam.squares) == MAX_ABS_GENERATION
    assert check_disjointness(fam.squares).ok and fam.c_pack <= 4.0


def test_generator_rejects_bad_inputs():
    with pytest.raises(ValueError):
        generate_family(seed=0, count=0, d=1.0, packing_target=4.0)
    with pytest.raises(ValueError):
        generate_family(seed=0, count=1, d=2.5, packing_target=4.0)
    with pytest.raises(ValueError):
        generate_family(seed=0, count=1, d=1.0, packing_target=0.5)
    with pytest.raises(ValueError):
        generate_family(seed=0, count=1, d=1.0, packing_target=4.0, k_range=(5, 2))
    with pytest.raises(ValueError):
        generate_family(seed=0, count=1, d=1.0, packing_target=4.0, box=(0, 0, 0, 1))


@pytest.mark.parametrize("target", [float("inf"), float("nan"), 0.5])
def test_family_build_rejects_bad_packing_target(target):
    with pytest.raises(ValueError, match="packing target"):
        SquareFamily.build([DyadicSquare(0, 0, 0)], 1.2, target)

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from nhcz.geometry import (
    DyadicSquare,
    SquareFamily,
    generate_cascade_family,
    generate_family,
    suggest_generation_range,
)
from nhcz.measure import (
    TIE_RTOL,
    BallQuery,
    _ladder_ball_sums,
    _square_ball_sums,
    _witness_index,
    a2_constant,
    ball_mass,
    borderline_exponent,
    build_measure,
    build_quadrature,
    dyadic_radius_ladder,
    growth_constant,
)

from nhcz.operators import KAPPA
from oracles import a2_ratio, assert_same_bits, ball_sums_bruteforce, square_ball_sums_by_nonzero


def unit_square_family(d=1.0):
    return SquareFamily.build([DyadicSquare(0, 0, 0)], d, 4.0)


def _density(mu):
    """The measure's density against area at each node of a one-node cloud."""
    cloud = build_quadrature(mu, 1)
    return cloud.mu_weight / cloud.area_weight


def test_build_measure_unit_square():
    mu = build_measure(unit_square_family(1.0))
    assert _density(mu)[0] == 1.0
    assert build_quadrature(mu, 1).mu_weight.sum() == 1.0


def test_build_measure_half_square():
    fam = SquareFamily.build([DyadicSquare(1, 0, 0)], 1.0, 4.0)
    mu = build_measure(fam)
    assert _density(mu)[0] == 2.0
    assert build_quadrature(mu, 1).mu_weight.sum() == 0.5


def test_build_measure_many_half_squares():
    squares = [DyadicSquare(1, 8 * m, 0) for m in range(5)]
    fam = SquareFamily.build(squares, 1.5, 4.0)
    masses = build_quadrature(build_measure(fam), 1).mu_weight  # one node per square
    each = 0.5**0.5
    assert np.allclose(masses, fam.sides() ** (2 - fam.d))
    assert np.allclose(masses, each)
    assert masses.sum() == pytest.approx(5 * each, rel=1e-14)


def test_quadrature_single_midpoint():
    cloud = build_quadrature(build_measure(unit_square_family()), 1)
    assert len(cloud) == 1
    assert tuple(cloud.xy[0]) == (0.5, 0.5)
    assert cloud.area_weight[0] == 1.0


def test_quadrature_two_per_side():
    cloud = build_quadrature(build_measure(unit_square_family()), 2)
    got = sorted(map(tuple, cloud.xy))
    assert got == [(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)]
    assert np.all(cloud.area_weight == 0.25)


def test_quadrature_rejects_bad_n():
    with pytest.raises(ValueError):
        build_quadrature(build_measure(unit_square_family()), 0)


@pytest.mark.parametrize("seed,n", [(0, 1), (1, 3), (2, 8)])
def test_quadrature_mass_conservation(seed, n):
    fam = generate_family(seed=seed, count=6 + seed, d=0.7 + 0.3 * seed, packing_target=4.0, k_range=(2, 5))
    mu = build_measure(fam)
    cloud = build_quadrature(mu, n)
    total = cloud.mu_weight.sum()
    masses = fam.sides() ** (2 - fam.d)  # per-square total mass side^(2-d)
    assert total == pytest.approx(masses.sum(), rel=1e-12)
    # per-square mass stays exact too
    for m in range(len(fam)):
        got = cloud.mu_weight[cloud.square_index == m].sum()
        assert got == pytest.approx(masses[m], rel=1e-12)


def test_ball_mass_saturation_and_empty():
    fam = generate_family(seed=4, count=5, d=1.2, packing_target=4.0, k_range=(2, 4))
    cloud = build_quadrature(build_measure(fam), 4)
    big = BallQuery(0.5, 0.5, 10.0)
    assert ball_mass(cloud, big) == pytest.approx(cloud.mu_weight.sum(), rel=1e-14)
    tiny = BallQuery(-50.0, -50.0, 1e-9)
    assert ball_mass(cloud, tiny) == 0.0


def test_ball_mass_disc_area_oracle():
    cloud = build_quadrature(build_measure(unit_square_family(1.0)), 8)
    exact = math.pi * 0.25**2
    got = ball_mass(cloud, BallQuery(0.5, 0.5, 0.25))
    assert abs(got - exact) <= 3.0 * (1.0 / 8.0) * exact
    # midpoint refinement converges to the disc area
    errs = []
    for n in (8, 16, 32, 64):
        c = build_quadrature(build_measure(unit_square_family(1.0)), n)
        errs.append(abs(ball_mass(c, BallQuery(0.5, 0.5, 0.25)) - exact))
    assert errs[-1] < errs[0] / 4


def test_ball_mass_monotone_in_radius():
    fam = generate_family(seed=9, count=7, d=1.4, packing_target=4.0, k_range=(2, 5))
    cloud = build_quadrature(build_measure(fam), 4)
    rng = np.random.default_rng(0)
    for _ in range(20):
        cx, cy = rng.uniform(-0.2, 1.2, size=2)
        radii = np.sort(rng.uniform(0.01, 2.0, size=5))
        masses = [ball_mass(cloud, BallQuery(cx, cy, r)) for r in radii]
        assert all(a <= b + 1e-15 for a, b in zip(masses, masses[1:]))


@st.composite
def ball_sum_cases(draw):
    """A random admissible family and cloud, centres at nodes, at dyadic
    square corners, on square edges, on node grid lines and at arbitrary
    points, and dyadic radii with their 3-dilates in shuffled order."""
    d = draw(st.sampled_from([0.02, 0.3, 1.0, 1.7, 1.98]))
    k_lo = draw(st.integers(0, 4))
    fam = generate_family(
        seed=draw(st.integers(0, 2**16)),
        count=draw(st.integers(1, 6)),
        d=d,
        packing_target=8.0,
        k_range=(k_lo, k_lo + draw(st.integers(0, 3))),
    )
    cloud = build_quadrature(build_measure(fam), draw(st.sampled_from([1, 2, 3, 8])))
    node_ids = draw(st.lists(st.integers(0, len(cloud) - 1), min_size=1, max_size=4))
    corners = []
    for sq, a, b in draw(st.lists(st.tuples(st.sampled_from(fam.squares), st.integers(0, 1), st.integers(0, 1)), max_size=3)):
        corners.append(((sq.i + a) * sq.side, (sq.j + b) * sq.side))
    for sq, a, t, vertical in draw(
        st.lists(st.tuples(st.sampled_from(fam.squares), st.integers(0, 1), st.floats(0, 1), st.booleans()), max_size=3)
    ):
        if vertical:
            corners.append(((sq.i + a) * sq.side, (sq.j + t) * sq.side))
        else:
            corners.append(((sq.i + t) * sq.side, (sq.j + a) * sq.side))
    for node, t, vertical in draw(st.lists(st.tuples(st.sampled_from(node_ids), st.floats(-0.5, 1.5), st.booleans()), max_size=2)):
        # on the grid line through a node: one axis meets a grid box edge
        x, y = cloud.xy[node]
        corners.append((x, t) if vertical else (t, y))
    points = draw(st.lists(st.tuples(st.floats(-0.5, 1.5), st.floats(-0.5, 1.5)), max_size=3))
    centers = np.concatenate([cloud.xy[node_ids], np.array(corners + points).reshape(-1, 2)])
    ks = draw(st.lists(st.integers(-1, 12), min_size=1, max_size=6, unique=True))
    radii = draw(st.permutations([2.0**-k for k in ks] + [3.0 * 2.0**-k for k in ks]))
    return cloud, centers, np.array(radii)


def nearest_nodes_on_a_circle():
    # from the first square's nodes, the second square's nearest nodes lie
    # exactly at radius 1 and its farthest nodes inside radius 1.5
    fam = SquareFamily.build([DyadicSquare(3, 0, 0), DyadicSquare(3, 8, 0)], 1.2, 4.0)
    cloud = build_quadrature(build_measure(fam), 2)
    return cloud, cloud.xy, np.array([2.0, 1.0, 3.0, 1.5, 0.5, 0.75])


@given(ball_sum_cases())
@example(nearest_nodes_on_a_circle())
def test_ball_sum_engine_matches_mask_oracle(case):
    cloud, centers, radii = case
    weights = [np.ones(len(cloud)), cloud.mu_weight, cloud.area_weight * cloud.square_sides[cloud.square_index] ** cloud.d]
    got = _ladder_ball_sums(cloud, radii, weights, centers=centers)
    ref = ball_sums_bruteforce(cloud, centers, radii, weights)
    # unit weights count the nodes in each ball: membership must be identical
    assert np.array_equal(got[:, :, 0], ref[:, :, 0])
    np.testing.assert_allclose(got[:, :, 1:], ref[:, :, 1:], rtol=1e-12, atol=0.0)
    nearest2 = ((centers[:, None, :] - cloud.xy[None, :, :]) ** 2).sum(axis=2).min(axis=1)
    assert np.all(got[radii[None, :] ** 2 < nearest2[:, None]] == 0.0)


@given(ball_sum_cases(), st.integers(1, 40), st.integers(0, 2**16))
@example(nearest_nodes_on_a_circle(), 3, 0)
def test_one_pass_binning_keeps_every_bit(case, n_weights, seed):
    cloud, centers, radii = case
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal((n_weights, len(cloud)))
    weights[:, rng.random(len(cloud)) < 0.3] = 0.0  # indicator fields leave zero weights
    r2 = radii**2
    assert_same_bits(
        _square_ball_sums(cloud, r2, weights, centers), square_ball_sums_by_nonzero(cloud, r2, weights, centers)
    )


def maximal_radii2(cloud):
    """The squared radii of the ladder maximal function's engine call."""
    ladder2 = dyadic_radius_ladder(cloud, base=cloud.finest_spacing) ** 2
    return np.concatenate([ladder2, KAPPA * KAPPA * ladder2])


def field_weights(cloud, n_fields, seed):
    """The maximal function's weight rows: mu, then |f| mu for random,
    square-indicator and delta fields."""
    rng = np.random.default_rng(seed)
    rows = [cloud.mu_weight]
    for k in range(n_fields):
        if k % 3 == 0:
            f = np.abs(rng.standard_normal(len(cloud)))
        elif k % 3 == 1:
            f = (cloud.square_index == rng.integers(len(cloud.family))).astype(float)
        else:
            f = np.zeros(len(cloud))
            f[rng.integers(len(cloud))] = 1.0
        rows.append(f * cloud.mu_weight)
    return np.stack(rows)


@pytest.fixture(scope="module")
def cascade_m256():
    """The 16,384-node scaling row at M=256 and its 4096 sampled centres."""
    fam = generate_cascade_family(seed=256, count=256, d=1.2, packing_target=4.0)
    cloud = build_quadrature(build_measure(fam), 8)
    rng = np.random.default_rng(0)
    return cloud, cloud.xy[np.sort(rng.choice(len(cloud), size=4096, replace=False))]


@pytest.mark.parametrize("call", ["maximal", "growth"])
def test_one_pass_binning_keeps_every_bit_on_the_cascade(cascade_m256, call):
    cloud, centers = cascade_m256
    if call == "maximal":
        r2, weights = maximal_radii2(cloud), field_weights(cloud, 7, seed=1)
    else:
        r2, weights = dyadic_radius_ladder(cloud) ** 2, cloud.mu_weight[None]
    assert_same_bits(
        _square_ball_sums(cloud, r2, weights, centers), square_ball_sums_by_nonzero(cloud, r2, weights, centers)
    )


@pytest.mark.parametrize("seed,d", [(0, 0.8), (1, 1.2), (2, 1.6)])
def test_one_pass_binning_keeps_every_bit_on_the_small_direct_clouds(seed, d):
    # the three families of the small_direct benchmark, every node a centre
    fam = generate_family(seed=seed, count=32, d=d, packing_target=4.0, k_range=suggest_generation_range(32, d, 4.0))
    cloud = build_quadrature(build_measure(fam), 8)
    a2_weights = np.stack([cloud.mu_weight, cloud.area_weight * cloud.square_sides[cloud.square_index] ** cloud.d])
    for r2, weights in (
        (maximal_radii2(cloud), field_weights(cloud, 39, seed=2)),
        (dyadic_radius_ladder(cloud) ** 2, a2_weights),
    ):
        assert_same_bits(
            _square_ball_sums(cloud, r2, weights, cloud.xy), square_ball_sums_by_nonzero(cloud, r2, weights, cloud.xy)
        )


def test_maximal_engine_memory_stays_small(cascade_m256):
    # 8 weight rows over the 4096 sampled centres, as scaling_study's
    # maximal function calls the engine; the output alone is 9 MiB, and
    # gathering the whole squares' totals took the peak to 19.9 MiB
    cloud, centers = cascade_m256
    r2, weights = maximal_radii2(cloud), field_weights(cloud, 7, seed=1)
    tracemalloc.start()
    try:
        _square_ball_sums(cloud, r2, weights, centers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 18 * 2**20


def test_growth_engine_memory_stays_small():
    # the 16,384-node scaling row at M=256 with its 4096 sampled centres
    fam = generate_cascade_family(seed=256, count=256, d=1.2, packing_target=4.0)
    cloud = build_quadrature(build_measure(fam), 8)
    rng = np.random.default_rng(0)
    centers = cloud.xy[np.sort(rng.choice(len(cloud), size=4096, replace=False))]
    tracemalloc.start()
    try:
        growth_constant(cloud, centers=centers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_growth_and_a2_witnesses_do_not_depend_on_summation_order():
    fam = generate_family(seed=1, count=12, d=1.2, packing_target=4, k_range=(3, 5))
    cloud = build_quadrature(build_measure(fam), 8)
    radii = dyadic_radius_ladder(cloud)
    weights = [cloud.mu_weight, cloud.area_weight * cloud.square_sides[cloud.square_index] ** cloud.d]
    engine = _ladder_ball_sums(cloud, radii, weights)
    brute = ball_sums_bruteforce(cloud, cloud.xy, radii, weights)
    disc = math.pi * radii**2

    def growth(sums):
        return sums[:, :, 0] / radii[None, :] ** (2.0 - cloud.d)

    def a2(sums):
        return (sums[:, :, 0] / disc[None, :]) * (sums[:, :, 1] / disc[None, :])

    for ratios, constant in ((growth, growth_constant), (a2, a2_constant)):
        got, ref = ratios(engine), ratios(brute)
        ci, ri = _witness_index(got)
        assert (ci, ri) == _witness_index(ref)
        c, ball = constant(cloud)
        assert c == got[ci, ri] >= got.max() * (1.0 - TIE_RTOL)
        assert (ball.cx, ball.cy, ball.radius) == (cloud.xy[ci, 0], cloud.xy[ci, 1], radii[ri])
    # several balls tie at the growth maximum on this family
    ties = growth(engine) >= growth(engine).max() * (1.0 - TIE_RTOL)
    assert ties.sum() > 1


def test_witness_index_takes_the_first_of_tied_ratios():
    ratios = np.array([[0.5, 1.0], [1.0 + 4e-16, 0.3]])  # argmax would take (1, 0)
    assert _witness_index(ratios) == (0, 1)
    assert _witness_index(np.array([[0.5, 1.0], [1.0 + 1e-9, 0.3]])) == (1, 0)
    assert _witness_index(np.zeros((2, 3))) == (0, 0)


def test_growth_constant_single_square():
    cloud = build_quadrature(build_measure(unit_square_family(1.0)), 8)
    c, wit = growth_constant(cloud)
    assert np.isfinite(c) and c > 0
    # brute-force the same sample
    radii = dyadic_radius_ladder(cloud)
    best = 0.0
    for p in range(len(cloud)):
        for r in radii:
            m = ball_mass(cloud, BallQuery(cloud.xy[p, 0], cloud.xy[p, 1], float(r)))
            best = max(best, m / r ** (2.0 - cloud.d))
    assert c == pytest.approx(best, rel=1e-12)
    assert ball_mass(cloud, wit) / wit.radius ** (2.0 - cloud.d) == pytest.approx(c, rel=1e-12)


def test_growth_constant_rescaling_invariant():
    squares = [DyadicSquare(2, 1, 2), DyadicSquare(3, 14, 3), DyadicSquare(2, 9, 9)]
    fam = SquareFamily.build(squares, 1.2, 8.0)
    halved = SquareFamily.build([DyadicSquare(s.k + 1, 2 * s.i, 2 * s.j) for s in squares], 1.2, 8.0)
    c0, _ = growth_constant(build_quadrature(build_measure(fam), 4))
    c1, _ = growth_constant(build_quadrature(build_measure(halved), 4))
    # weights scale by 2^-(2-d), radii by 1/2: ratios are identical
    assert c1 == pytest.approx(c0, rel=1e-12)


def test_a2_ratio_cancels_inside_one_square():
    fam = SquareFamily.build([DyadicSquare(1, 0, 0), DyadicSquare(1, 8, 8)], 1.3, 8.0)
    cloud = build_quadrature(build_measure(fam), 8)
    ball = BallQuery(0.25, 0.25, 0.2)  # strictly inside the first square
    got = a2_ratio(cloud, ball)
    inside = (cloud.xy[:, 0] - 0.25) ** 2 + (cloud.xy[:, 1] - 0.25) ** 2 <= 0.2**2
    disc_area = float(cloud.area_weight[inside].sum())
    assert got == pytest.approx((disc_area / (math.pi * 0.2**2)) ** 2, rel=1e-12)


def test_a2_ratio_empty_intersection_is_zero():
    cloud = build_quadrature(build_measure(unit_square_family()), 4)
    assert a2_ratio(cloud, BallQuery(9.0, 9.0, 0.5)) == 0.0


def test_a2_ratio_matches_fine_grid():
    fam = SquareFamily.build([DyadicSquare(1, 0, 0), DyadicSquare(2, 7, 1)], 1.2, 8.0)
    n = 6
    coarse = build_quadrature(build_measure(fam), n)
    fine = build_quadrature(build_measure(fam), n * 16)
    ball = BallQuery(0.6, 0.3, 1.4)  # covers both squares
    a = a2_ratio(coarse, ball)
    b = a2_ratio(fine, ball)
    assert a == pytest.approx(b, rel=0.02)


def test_a2_constant_finite_with_witness():
    fam = generate_family(seed=6, count=6, d=1.1, packing_target=4.0, k_range=(2, 4))
    cloud = build_quadrature(build_measure(fam), 4)
    c, wit = a2_constant(cloud)
    assert np.isfinite(c) and c >= 0
    assert a2_ratio(cloud, wit) == pytest.approx(c, rel=1e-12)


def test_borderline_exponent_values():
    assert borderline_exponent(1.0, 1.0) == pytest.approx(1.0, rel=1e-15)
    assert borderline_exponent(1.0, 2.0) == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert borderline_exponent(1.999999999, 10.0) == pytest.approx(2.0, abs=1e-7)


def test_borderline_exponent_monotone_and_expanding():
    ts = np.linspace(0.05, 1.95, 40)
    for k in (1.0, 1.5, 3.0):
        vals = [borderline_exponent(t, k) for t in ts]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert all(v >= t - 1e-15 for v, t in zip(vals, ts))


def test_borderline_exponent_rejects_bad_inputs():
    nan, inf = float("nan"), float("inf")
    for t, k in [(0.0, 1.0), (2.0, 1.0), (-1.0, 2.0), (1.0, 0.5), (1.0, nan), (1.0, inf)]:
        with pytest.raises(ValueError):
            borderline_exponent(t, k)


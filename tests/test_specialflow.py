"""Roof certification, the suspension flow, and its estimators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    GOLDEN,
    circle_dist,
    coboundary_roof,
    dense_certify_bounds,
    mixing_example_roof,
    orbit_exact,
)
from mixlab.cli import bundled_roof_path
from mixlab.cohomology import classify_roof
from mixlab.errors import NonPositiveRoof, NotACoboundary
from mixlab.skewshift import (
    SkewShift,
    TorusPoint,
    birkhoff_sum,
    load_roof,
    midgrid,
)
from mixlab.specialflow import (
    CorrelationEstimate,
    _flow_lanes,
    _hit_count_lanes,
    _sample_block,
    Cube,
    FlowPoint,
    Roof,
    certify_roof,
    correlate_cubes,
    cube_measure,
    discrete_iteration_bounds,
    fiber_mixing_profile,
    flow_at,
    hit_count,
    hitting_complement_measure,
    trivial_conjugacy_check,
)
from mixlab.trigpoly import FiberedTrigPoly


# ------------------------------------------------------------ certification


def test_certify_constant_roof():
    roof = certify_roof(FiberedTrigPoly.constant(2.0))
    assert roof.certified_min == 2.0 == roof.certified_max
    assert roof.mean == 2.0


def test_certify_mixing_roof_bounds():
    roof = certify_roof(mixing_example_roof())
    assert roof.certified_min <= 1.0 <= roof.certified_min + 1e-3
    assert roof.certified_max - 1e-3 <= 3.0 <= roof.certified_max
    assert roof.certified_min > 0
    assert roof.slack <= 1e-3
    assert roof.mean == 2.0


def test_certify_bounds_are_global():
    phi = coboundary_roof(0.25, const=3.0)
    roof = certify_roof(phi)
    rng = np.random.default_rng(0)
    xs, ys = rng.random(2000), rng.random(2000)
    vals = phi.evaluate(xs, ys)
    assert np.all(vals >= roof.certified_min - 1e-12)
    assert np.all(vals <= roof.certified_max + 1e-12)


def test_certify_reports_relaxed_slack():
    roof = certify_roof(mixing_example_roof())
    assert roof.slack_target == 1e-3 and roof.slack <= roof.slack_target
    # 2 + cos(2 pi 20000 y): meeting slack 1e-3 needs a 16 x 1.3e8 grid, past
    # the 2.5e8-point budget, so the target is relaxed and the slack says so
    phi = FiberedTrigPoly.from_modes(
        {(0, 20_000): 0.25, (0, -20_000): 0.25, (0, 0): 2.0}, real=True
    )
    roof = certify_roof(phi)
    assert roof.slack_target == 1e-3
    assert roof.slack > roof.slack_target
    assert roof.certified_min <= 1.5 <= roof.certified_min + roof.slack
    assert roof.certified_max - roof.slack <= 2.5 <= roof.certified_max


def test_certify_rejects_frequencies_beyond_the_budget():
    # the coarsest grid these frequencies allow (8|m| x 8|k|) is already
    # past the budget; relaxing the slack target cannot help
    phi = FiberedTrigPoly.from_modes(
        {(40_000, 1_000): 0.1, (-40_000, -1_000): 0.1, (0, 0): 2.0}, real=True
    )
    with pytest.raises(ValueError, match="too high to certify"):
        certify_roof(phi)


def test_roof_independent_modes_match_evaluate():
    from mixlab.phases import PhaseNumerators

    roof = certify_roof(coboundary_roof(0.3, const=3.0))
    const, terms = roof.phi.independent_modes
    assert len(terms) == 2 and const == 3.0
    rng = np.random.default_rng(4)
    xs, ys = rng.random(500), rng.random(500)
    ph = PhaseNumerators(GOLDEN, 0.3, xs, ys)
    xn, yn = ph.orbit(np.zeros(500, dtype=np.int64))
    vals = roof.phi.at(ph, xn, yn)[0]
    assert np.allclose(vals, roof.phi.evaluate(xs, ys), rtol=0, atol=1e-14)
    # one fiber alone is a complex poly: one e(theta) per mode
    fiber = FiberedTrigPoly({1: roof.phi.c(1)})
    want = fiber.evaluate_complex(xs, ys)
    assert np.allclose(fiber.at(ph, xn, yn)[0], want, rtol=0, atol=1e-14)
    _, terms = certify_roof(mixing_example_roof()).phi.independent_modes
    assert len(terms) == 1    # one sin


def _certificate(roof):
    return roof.certified_min, roof.certified_max, roof.slack


@pytest.mark.parametrize(
    "name", ["example1", "example2", "example3", "coboundary", "constant"]
)
def test_certify_matches_dense_grid_on_bundled_roofs(name):
    _, phi = load_roof(bundled_roof_path(name))
    assert _certificate(certify_roof(phi)) == dense_certify_bounds(phi)


_MODE = st.tuples(
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.floats(-0.2, 0.2, allow_subnormal=False),
    st.floats(-0.2, 0.2, allow_subnormal=False),
)


@settings(max_examples=40)
@given(
    modes=st.lists(_MODE, min_size=1, max_size=6),
    y_scale=st.sampled_from([1.0, 1e-14, 1e-15]),
)
def test_certify_matches_dense_grid_on_random_roofs(modes, y_scale):
    # up to 6 conjugate pairs (12 modes), lifted to a positive roof; a
    # small y_scale leaves y-modes near rounding, so that many grid values
    # tie for the extrema
    coeffs = {}
    for m, k, re, im in modes:
        if (m, k) != (0, 0):
            c = complex(re, im) * (y_scale if k else 1.0)
            coeffs[(m, k)] = c
            coeffs[(-m, -k)] = c.conjugate()
    coeffs[(0, 0)] = 0.5 + 2.0 * sum(abs(c) for c in coeffs.values())
    phi = FiberedTrigPoly.from_modes(coeffs, real=True)
    got = _certificate(certify_roof(phi, slack_target=1e-2))
    assert got == dense_certify_bounds(phi, slack_target=1e-2)


def test_certify_matches_dense_grid_between_coarse_rows():
    # with k = 40 and 41 the extrema fall between coarse rows: those of
    # every 32nd row alone are not the grid's
    w = np.exp(0.3j)
    phi = FiberedTrigPoly.from_modes(
        {(0, 40): 0.5, (0, -40): 0.5, (2, 41): 0.25 * w,
         (-2, -41): 0.25 * np.conj(w), (0, 0): 3.0},
        real=True,
    )
    want = dense_certify_bounds(phi, slack_target=0.05)
    coarse = dense_certify_bounds(phi, slack_target=0.05, stride=32)
    assert coarse[0] > want[0] and coarse[1] < want[1]
    assert _certificate(certify_roof(phi, slack_target=0.05)) == want


def test_certify_matches_dense_grid_on_x_only_roofs():
    # lip_y = 0: every row bounds every other exactly
    phi = FiberedTrigPoly.from_modes(
        {(1, 0): 0.25, (-1, 0): 0.25, (5, 0): -0.15j, (-5, 0): 0.15j,
         (0, 0): 2.0},
        real=True,
    )
    assert _certificate(certify_roof(phi)) == dense_certify_bounds(phi)


@pytest.mark.parametrize("size", [0.2501, 0.251])
@pytest.mark.parametrize("slack_target", [3e-18, 1e-18])
def test_certify_matches_dense_grid_within_rounding(size, slack_target):
    # 1.75 + 2 s sin(2 pi y) with 2 s just past half an ulp: the computed
    # values move by one rounding step on a few rows only, and far less
    # than that in true value between them and the coarse rows
    c = 1j * size * math.ulp(1.75)
    phi = FiberedTrigPoly.from_modes(
        {(0, 1): c, (0, -1): np.conj(c), (0, 0): 1.75}, real=True
    )
    got = _certificate(certify_roof(phi, slack_target=slack_target))
    assert got == dense_certify_bounds(phi, slack_target=slack_target)


def test_certify_rejects_nonpositive():
    sin_y = FiberedTrigPoly.from_modes({(0, 1): -0.5j, (0, -1): 0.5j}, real=True)
    with pytest.raises(NonPositiveRoof):
        certify_roof(sin_y)


# ------------------------------------------------------------------ hit count


def test_hit_count_examples():
    f = SkewShift(GOLDEN, 0.0)
    roof = certify_roof(FiberedTrigPoly.constant(1.0))
    p = FlowPoint(0.3, 0.9, 0.0)
    assert hit_count(roof, f, p, 2.5) == 2
    assert hit_count(roof, f, p, 0.0) == 0

    f = SkewShift(0.5, 0.5)
    roof = certify_roof(mixing_example_roof())
    assert hit_count(roof, f, FlowPoint(0.0, 0.0, 0.0), 3.0) == 1


def test_hit_count_monotone_unit_jumps():
    f = SkewShift(GOLDEN, 0.2)
    roof = certify_roof(mixing_example_roof())
    p = FlowPoint(0.13, 0.57, 0.3)
    prev = 0
    for t in np.linspace(0.0, 40.0, 1600):
        n = hit_count(roof, f, p, float(t))
        assert n >= prev
        assert n - prev <= 1
        prev = n


def test_hit_count_and_flow_across_orbit_blocks():
    # ~70000 steps pass the 2^16-step block of the orbit walk
    f = SkewShift(GOLDEN, 0.2)
    unit = certify_roof(FiberedTrigPoly.constant(1.0))
    p = FlowPoint(0.3, 0.8, 0.0)
    assert hit_count(unit, f, p, 70_000.5) == 70_000
    q = flow_at(unit, f, p, 70_000.5)
    base = orbit_exact(f, TorusPoint(p.x, p.y), 70_000)
    assert (q.x, q.y, q.z) == (base.x, base.y, 0.5)

    roof = certify_roof(mixing_example_roof())
    p = FlowPoint(0.13, 0.57, 0.3)
    t = 140_000.0
    n = hit_count(roof, f, p, t)
    assert n > 1 << 16
    base = TorusPoint(p.x, p.y)
    assert birkhoff_sum(f, roof.phi, base, n) < t + p.z
    assert birkhoff_sum(f, roof.phi, base, n + 1) >= t + p.z


@pytest.mark.parametrize("t", [math.inf, math.nan, 2.0 ** 41, 2.0 ** 63, 1e300])
def test_unreachable_times_raise(t):
    f = SkewShift(GOLDEN, 0.2)
    roof = certify_roof(FiberedTrigPoly.constant(1.0))
    p = FlowPoint(0.3, 0.8, 0.0)
    with pytest.raises(ValueError):
        hit_count(roof, f, p, t)
    with pytest.raises(ValueError):
        flow_at(roof, f, p, t)
    with pytest.raises(ValueError):
        flow_at(roof, f, p, -t)
    with pytest.raises(ValueError):
        _hit_count_lanes(roof, f, np.array([0.3]), np.array([0.8]), t)


# ---------------------------------------------------------------------- flow


def test_lanes_stop_at_the_scalar_step_bound():
    # certified_min = 10 overstates the unit roof: the true hit count at
    # t = 100 is 99, but no loop may take more than int(t / 10) + 2 steps
    f = SkewShift(GOLDEN, 0.0)
    roof = Roof(FiberedTrigPoly.constant(1.0), 10.0, 10.0, 1.0, 0.0)
    xs, ys = np.array([0.1, 0.6]), np.array([0.2, 0.9])
    limit = int(100.0 / 10.0) + 2
    counts = _hit_count_lanes(roof, f, xs, ys, 100.0)
    for x, y, n in zip(xs, ys, counts):
        assert n == hit_count(roof, f, FlowPoint(x, y, 0.0), 100.0) == limit
    for t in (100.0, -100.0):
        lx, ly, lz = _flow_lanes(roof, f, xs, ys, np.zeros(2), t)
        for i in range(2):
            want = flow_at(roof, f, FlowPoint(xs[i], ys[i], 0.0), t)
            assert circle_dist(lx[i], want.x) < 1e-12
            assert circle_dist(ly[i], want.y) < 1e-12
            assert lz[i] == want.z
    assert lz[0] == -100.0 + limit       # backward: limit steps of height 1


_KERNEL_ROOF = certify_roof(coboundary_roof(0.25, const=3.0))


def _assert_lanes_match_scalar(f, xs, ys, zs, t, check):
    roof = _KERNEL_ROOF
    fx, fy, fz = _flow_lanes(roof, f, xs, ys, zs, t)
    counts = _hit_count_lanes(roof, f, xs, ys, abs(t))
    for i in check:
        q = flow_at(roof, f, FlowPoint(xs[i], ys[i], zs[i]), t)
        assert (q.x, q.y, q.z) == (fx[i], fy[i], fz[i])
        n = hit_count(roof, f, FlowPoint(xs[i], ys[i], 0.0), abs(t))
        assert n == counts[i]


@settings(max_examples=15)
@given(beta=st.sampled_from([0.31, 1e-5]),
       t=st.floats(-400.0, 400.0),
       lanes=st.sampled_from([1, 5, 300]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_lanes_equal_scalar_paths(beta, t, lanes, seed):
    # beta = 1e-5 needs K > 64 (object numerators); t up to 400 takes about
    # 130 steps, past the first tile of every lane count here
    f = SkewShift(GOLDEN, beta)
    rng = np.random.default_rng(seed)
    xs, ys = rng.random(lanes), rng.random(lanes)
    zs = _KERNEL_ROOF.certified_min * rng.random(lanes)
    _assert_lanes_match_scalar(f, xs, ys, zs, t, range(0, lanes, max(1, lanes // 8)))


@pytest.mark.parametrize("beta", [0.25, 1e-5])
@pytest.mark.parametrize("t", [1500.0, -1500.0])
def test_square_tiles_equal_scalar_paths(t, beta):
    # 256 lanes climb in tiles of 2^16 / 256 = 256 steps (a square tile)
    # and need about 500 steps, so every lane crosses tile boundaries
    f = SkewShift(GOLDEN, beta)
    rng = np.random.default_rng(12)
    xs, ys = rng.random(256), rng.random(256)
    zs = _KERNEL_ROOF.certified_min * rng.random(256)
    _assert_lanes_match_scalar(f, xs, ys, zs, t, range(256))


def test_flow_identity_and_constant_suspension():
    f = SkewShift(GOLDEN, 0.1)
    roof = certify_roof(FiberedTrigPoly.constant(1.0))
    p = FlowPoint(0.3, 0.8, 0.4)
    q = flow_at(roof, f, p, 0.0)
    assert (q.x, q.y, q.z) == (p.x, p.y, p.z)

    p = FlowPoint(0.3, 0.8, 0.0)
    q = flow_at(roof, f, p, 2.5)
    base = orbit_exact(f, TorusPoint(0.3, 0.8), 2)
    assert circle_dist(q.x, base.x) < 1e-12
    assert circle_dist(q.y, base.y) < 1e-12
    assert abs(q.z - 0.5) < 1e-12


def test_flow_continues_hit_count_example():
    f = SkewShift(0.5, 0.5)
    roof = certify_roof(mixing_example_roof())
    q = flow_at(roof, f, FlowPoint(0.0, 0.0, 0.0), 3.0)
    assert circle_dist(q.x, 0.5) < 1e-12
    assert circle_dist(q.y, 0.5) < 1e-12
    assert abs(q.z - 1.0) < 1e-12


def test_flow_group_law_mixed_signs():
    f = SkewShift(GOLDEN, 0.31)
    roof = certify_roof(mixing_example_roof())
    rng = np.random.default_rng(1)
    for _ in range(25):
        p = FlowPoint(rng.random(), rng.random(), 0.9 * rng.random())
        s = float(rng.uniform(-1e3, 1e3))
        t = float(rng.uniform(-1e3, 1e3))
        one = flow_at(roof, f, flow_at(roof, f, p, s), t)
        two = flow_at(roof, f, p, s + t)
        # compare up to the roof identification at the fiber boundary
        dz = abs(one.z - two.z)
        same_fiber = (
            circle_dist(one.x, two.x) < 1e-9
            and circle_dist(one.y, two.y) < 1e-9
            and dz < 1e-9
        )
        if not same_fiber:
            shifted = flow_at(roof, f, two, 0.0)
            alt = flow_at(roof, f, one, 0.0)
            assert (
                circle_dist(alt.x, shifted.x) < 1e-9
                and circle_dist(alt.y, shifted.y) < 1e-9
                and abs(alt.z - shifted.z) < 1e-9
            )
        z_bound = roof.phi.evaluate(one.x, one.y)
        assert 0.0 <= one.z < z_bound + 1e-12


def test_flow_inverse_round_trip():
    f = SkewShift(GOLDEN, 0.31)
    roof = certify_roof(mixing_example_roof())
    rng = np.random.default_rng(2)
    for _ in range(50):
        p = FlowPoint(rng.random(), rng.random(), 0.9 * rng.random())
        t = float(rng.uniform(0.0, 100.0))
        q = flow_at(roof, f, flow_at(roof, f, p, t), -t)
        assert circle_dist(q.x, p.x) < 1e-10
        assert circle_dist(q.y, p.y) < 1e-10
        assert abs(q.z - p.z) < 1e-10


# ------------------------------------------------------------------ sampling


def test_sample_measure_deterministic_and_valid():
    roof = certify_roof(mixing_example_roof())
    a = np.concatenate(_sample_block(roof, 42, 0, 1))
    b = np.concatenate(_sample_block(roof, 42, 0, 1))
    assert np.array_equal(a, b)
    c = np.concatenate(_sample_block(roof, 43, 0, 1))
    assert not np.array_equal(a, c)
    for seed in range(50):
        xs, ys, zs = _sample_block(roof, seed, 0, 1)
        assert zs[0] < roof.phi.evaluate(xs[0], ys[0])


def test_sample_measure_slab_mass():
    # P(z < h) = h / integral(Phi) for h below the roof minimum
    roof = certify_roof(mixing_example_roof())
    h = 0.5
    n = 200_000
    xs, ys, zs = _sample_block(roof, 7, 0, n)
    frac = np.count_nonzero(zs < h) / n
    want = h / roof.mean
    sigma = math.sqrt(want * (1 - want) / n)
    assert abs(frac - want) <= 4 * sigma


# ---------------------------------------------------------------- correlation


def test_correlation_t0_identity():
    f = SkewShift(GOLDEN, 0.0)
    roof = certify_roof(mixing_example_roof())
    q = Cube(0.0, 0.5, 0.0, 0.5, 0.5)
    est, = correlate_cubes(roof, f, q, q, [0.0], 50_000, seed=3)
    mu = cube_measure(roof, q)
    want = mu * (1 - mu)
    assert abs(est.value - want) <= 3 * est.std_error
    assert est.samples == 50_000 and est.seed == 3


def test_correlation_full_space_is_zero():
    f = SkewShift(GOLDEN, 0.0)
    roof = certify_roof(FiberedTrigPoly.constant(2.0))
    # degenerate cube spanning everything below the roof
    q = Cube(0.0, 1.0, 0.0, 1.0, 2.0 - 1e-9)
    est, = correlate_cubes(roof, f, q, q, [5.0], 10_000, seed=4)
    mu = cube_measure(roof, q)
    assert abs(est.value - (mu - mu * mu)) < 1e-6


def test_correlation_constant_roof_periodicity():
    # full-base cube: exact equality of the indicators at t = 0 and t = roof
    f = SkewShift(GOLDEN, 0.3)
    roof = certify_roof(FiberedTrigPoly.constant(1.0))
    q = Cube(0.0, 1.0, 0.0, 1.0, 0.5)
    a, b = correlate_cubes(roof, f, q, q, [0.0, 1.0], 20_000, seed=5)
    assert a.value == b.value


def test_correlation_times_share_samples():
    f = SkewShift(GOLDEN, 0.0)
    roof = certify_roof(mixing_example_roof())
    q = Cube(0.0, 0.5, 0.0, 0.5, 0.5)
    times = [0.0, 3.0, 7.0]
    together = correlate_cubes(roof, f, q, q, times, 140_000, seed=9)
    alone = [correlate_cubes(roof, f, q, q, [t], 140_000, seed=9)[0] for t in times]
    assert together == alone


def test_correlation_workers_identical():
    f = SkewShift(GOLDEN, 0.0)
    roof = certify_roof(mixing_example_roof())
    q = Cube(0.0, 0.5, 0.0, 0.5, 0.5)
    one = correlate_cubes(roof, f, q, q, [3.0], 150_000, seed=6, workers=1)
    four = correlate_cubes(roof, f, q, q, [3.0], 150_000, seed=6, workers=4)
    assert one == four


def test_measure_preservation_under_flow():
    f = SkewShift(GOLDEN, 0.11)
    roof = certify_roof(mixing_example_roof())
    cube = Cube(0.1, 0.45, 0.2, 0.8, 0.7)
    from mixlab.specialflow import _flow_lanes, _sample_block

    n = 100_000
    xs, ys, zs = _sample_block(roof, 8, 0, n)
    mu = cube_measure(roof, cube)
    for t in (1.0, 10.0, 100.0):
        fx, fy, fz = _flow_lanes(roof, f, xs, ys, zs, -t)
        frac = np.count_nonzero(cube.contains(fx, fy, fz)) / n
        sigma = math.sqrt(mu * (1 - mu) / n)
        assert abs(frac - mu) <= 3 * sigma


def test_cube_validation():
    roof = certify_roof(mixing_example_roof())
    with pytest.raises(ValueError):
        Cube(0.5, 0.2, 0.0, 1.0, 0.5)
    with pytest.raises(ValueError):
        cube_measure(roof, Cube(0.0, 0.5, 0.0, 0.5, 1.5))   # h above min Phi


# ------------------------------------------------------------- fiber profile


def test_fiber_profile_t0():
    f = SkewShift(GOLDEN, 0.0)
    roof = certify_roof(mixing_example_roof())
    cube = Cube(0.2, 0.6, 0.1, 0.7, 0.5)
    # arc inside the cube's y-interval, x inside the x-interval
    val = fiber_mixing_profile(roof, f, 0.3, (0.2, 0.6), cube, 0.0)
    assert abs(val - 0.4) < 1e-12
    # x outside
    val = fiber_mixing_profile(roof, f, 0.9, (0.2, 0.6), cube, 0.0)
    assert val == 0.0


# frozen at development time: at t = 200 the arc mass carried into the cube
# is already of the order of (arc length) * mu(cube)
FROZEN_PROFILE_T200 = 0.0779296875


def test_fiber_profile_large_time_regression():
    f = SkewShift(GOLDEN, 0.0)
    roof = certify_roof(mixing_example_roof())
    cube = Cube(0.2, 0.6, 0.1, 0.7, 0.5)
    arc = (0.15, 0.85)
    val = fiber_mixing_profile(roof, f, 0.3, arc, cube, 200.0, resolution=512)
    target = (arc[1] - arc[0]) * cube_measure(roof, cube)
    assert val == pytest.approx(FROZEN_PROFILE_T200, abs=1e-9)
    assert abs(val - target) < target     # within a factor 2 already


# ----------------------------------------------------- iteration-count bounds


def test_discrete_bounds_constant_roof():
    f = SkewShift(GOLDEN, 0.0)
    roof = certify_roof(FiberedTrigPoly.constant(2.0))
    out = discrete_iteration_bounds(roof, f, 0.3, (0.0, 1.0), 7.0)
    assert out.n_lo == out.n_hi == 3
    assert out.stretch_at_n_lo == 0.0
    assert out.lower_ok and out.upper_ok


def test_discrete_bounds_below_min():
    f = SkewShift(GOLDEN, 0.0)
    roof = certify_roof(mixing_example_roof())
    out = discrete_iteration_bounds(roof, f, 0.3, (0.0, 1.0), 0.5)
    assert out.n_lo == out.n_hi == 0
    assert out.lower_ok and out.upper_ok


def test_discrete_bounds_mixing_roof():
    f = SkewShift(GOLDEN, 0.0)
    roof = certify_roof(mixing_example_roof())
    out = discrete_iteration_bounds(roof, f, 0.2, (0.0, 1.0), 100.0)
    assert out.n_hi >= out.n_lo >= 1
    assert out.lower_ok and out.upper_ok


# --------------------------------------------------------------- hitting set


def test_hitting_trivial_roof():
    f = SkewShift(GOLDEN, 0.0)
    roof = certify_roof(FiberedTrigPoly.constant(1.0))
    assert hitting_complement_measure(roof, f, 50.0, 2.0) == 1.0


def test_hitting_below_min():
    f = SkewShift(GOLDEN, 0.0)
    roof = certify_roof(mixing_example_roof())
    assert hitting_complement_measure(roof, f, 0.5, 2.0) == 1.0


def test_hitting_workers_identical():
    f = SkewShift(GOLDEN, 0.0)
    roof = certify_roof(mixing_example_roof())
    a = hitting_complement_measure(roof, f, 50.0, 2.0, workers=1)
    b = hitting_complement_measure(roof, f, 50.0, 2.0, workers=4)
    assert a == b


# frozen at development time; the complement measure shrinks with t
FROZEN_HITTING = {100.0: 0.0546875, 10_000.0: 0.00390625}


def test_hitting_decay_regression():
    f = SkewShift(GOLDEN, 0.0)
    roof = certify_roof(mixing_example_roof())
    vals = {
        t: hitting_complement_measure(roof, f, t, 2.0)
        for t in (100.0, 10_000.0)
    }
    assert vals[10_000.0] < vals[100.0]
    for t, want in FROZEN_HITTING.items():
        assert vals[t] == pytest.approx(want, abs=1e-9)


def test_correlation_stderr_definition():
    # std_error must equal the sample standard deviation over sqrt(samples)
    f = SkewShift(GOLDEN, 0.0)
    roof = certify_roof(mixing_example_roof())
    q = Cube(0.0, 0.5, 0.0, 0.5, 0.5)
    est, = correlate_cubes(roof, f, q, q, [2.0], 10_000, seed=13)
    phat = est.value + cube_measure(roof, q) ** 2
    n = est.samples
    sample_sd = math.sqrt(phat * (1 - phat) * n / (n - 1))
    assert est.std_error == pytest.approx(sample_sd / math.sqrt(n), rel=1e-12)


# ----------------------------------------------------------------- conjugacy


def test_conjugacy_constant_roof_exact():
    f = SkewShift(GOLDEN, 0.2)
    roof = certify_roof(FiberedTrigPoly.constant(1.5))
    u = FiberedTrigPoly({}, real=True)
    dev = trivial_conjugacy_check(roof, f, u, 1.5, 3.3, points=40)
    assert dev == 0.0


def test_conjugacy_explicit_coboundary():
    beta = 0.25
    f = SkewShift(GOLDEN, beta)
    roof = certify_roof(coboundary_roof(beta, const=3.0))
    u = FiberedTrigPoly.from_modes({(0, 1): 0.5, (0, -1): 0.5}, real=True)
    for t in (0.7, 3.3, 10.1):
        dev = trivial_conjugacy_check(roof, f, u, 3.0, t, points=60)
        assert dev <= 1e-8


def test_conjugacy_rejects_wrong_transfer():
    f = SkewShift(GOLDEN, 0.0)
    roof = certify_roof(mixing_example_roof())
    u = FiberedTrigPoly.from_modes({(0, 1): 0.5, (0, -1): 0.5}, real=True)
    with pytest.raises(NotACoboundary):
        trivial_conjugacy_check(roof, f, u, 2.0, 1.0)


def test_trivial_roof_correlations_do_not_decay():
    # conjugate to a constant suspension: the z-marginal slab correlation
    # repeats after one mean height
    beta = 0.25
    f = SkewShift(GOLDEN, beta)
    roof = certify_roof(coboundary_roof(beta, const=3.0))
    slab = Cube(0.0, 1.0, 0.0, 1.0, 0.6)
    t0 = 40.0
    a, b = correlate_cubes(roof, f, slab, slab, [t0, t0 + 3.0], 200_000, seed=11)
    gap = abs(a.value - b.value)
    assert gap <= 3 * math.hypot(a.std_error, b.std_error)
    # and the correlation stays significantly away from 0 (no decay)
    assert abs(a.value) > 3 * a.std_error
    assert abs(b.value) > 3 * b.std_error

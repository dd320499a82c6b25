"""Roof certification, the suspension flow, and its estimators."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    GOLDEN,
    circle_dist,
    certify_grid,
    coboundary_roof,
    dense_certify_bounds,
    dense_evaluate_complex,
    lattice_bounds,
    lattice_slack,
    mixing_example_roof,
    orbit_exact,
    sample_block_reference,
)
from mixlab import specialflow
from mixlab.cli import bundled_roof_path
from mixlab.errors import NonPositiveRoof, NotACoboundary
from mixlab.phases import PhaseNumerators
from mixlab.skewshift import (
    _SWEEP_BLOCK,
    SkewShift,
    TorusPoint,
    birkhoff_sum,
    load_roof,
    midgrid,
)
from mixlab.specialflow import (
    _MIN_TILE,
    _climb_lanes,
    _column_stops,
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
    hitting_complement_measures,
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


def test_certify_reports_relaxed_slack(monkeypatch):
    roof = certify_roof(mixing_example_roof())
    assert roof.slack_target == 1e-3 and roof.slack <= roof.slack_target
    # 2 + cos(2 pi 20000 y)/2: meeting slack 1e-3 needs a 16 x 1.4e6
    # lattice, past a budget of 2^22 points, so the target is relaxed and
    # the slack says so.  A roof past the real budget would need a y-table
    # of about 700 MB.
    monkeypatch.setattr(specialflow, "_CERTIFY_BUDGET", 2 ** 22)
    phi = FiberedTrigPoly.from_modes(
        {(0, 20_000): 0.25, (0, -20_000): 0.25, (0, 0): 2.0}, real=True
    )
    assert certify_grid(phi) == (16, 1_404_963)
    roof = certify_roof(phi)
    assert roof.slack_target == 1e-3
    assert roof.slack > roof.slack_target
    assert roof.certified_min <= 1.5 <= roof.certified_min + roof.slack
    assert roof.certified_max - roof.slack <= 2.5 <= roof.certified_max


def test_certify_holds_one_lattice_block_at_a_time():
    # 2 + cos(2 pi y)/2 + cos(2 pi 30100 y)/10 on a 16 x 945,620 lattice in
    # blocks of two x-rows: the table e(k y) of its 5 fiber modes takes
    # 72 MiB.  Forming it in place, and holding one 29 MiB block at a time,
    # stays under 128 MiB; forming it through a complex temporary, or
    # holding the previous block while the next is formed, does not.
    phi = FiberedTrigPoly.from_modes(
        {(0, 0): 2.0, (0, 1): 0.25, (0, -1): 0.25,
         (0, 30_100): 0.05, (0, -30_100): 0.05},
        real=True,
    )
    assert certify_grid(phi) == (16, 945_620)
    tracemalloc.start()
    try:
        roof = certify_roof(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert roof.certified_min <= 1.4 and roof.certified_max >= 2.6
    assert peak < 128 * 2 ** 20


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
    j = np.zeros(500, dtype=np.int64)
    vals = roof.phi.at(ph, j)[0]
    want = dense_evaluate_complex(roof.phi, xs, ys).real
    assert np.allclose(vals, want, rtol=0, atol=1e-14)
    # one fiber alone is a complex poly: one e(theta) per mode
    fiber = FiberedTrigPoly({1: roof.phi.c(1)})
    want = dense_evaluate_complex(fiber, xs, ys)
    assert np.allclose(fiber.at(ph, j)[0], want, rtol=0, atol=1e-14)
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


def _modes(freq: int):
    """Lists of up to 6 modes (m, k, re, im) with |m|, |k| <= freq."""
    mode = st.tuples(
        st.integers(-freq, freq),
        st.integers(-freq, freq),
        st.floats(-0.2, 0.2, allow_subnormal=False),
        st.floats(-0.2, 0.2, allow_subnormal=False),
    )
    return st.lists(mode, min_size=1, max_size=6)


def _positive_roof(modes, y_scale=1.0):
    """The modes with their conjugates (y-modes scaled by y_scale), lifted
    to a positive roof by a constant."""
    coeffs = {}
    for m, k, re, im in modes:
        if (m, k) != (0, 0):
            c = complex(re, im) * (y_scale if k else 1.0)
            coeffs[(m, k)] = c
            coeffs[(-m, -k)] = c.conjugate()
    coeffs[(0, 0)] = 0.5 + 2.0 * sum(abs(c) for c in coeffs.values())
    return FiberedTrigPoly.from_modes(coeffs, real=True)


@settings(max_examples=40)
@given(
    modes=_modes(6),
    y_scale=st.sampled_from([1.0, 1e-14, 1e-15]),
)
def test_certify_matches_dense_grid_on_random_roofs(modes, y_scale):
    # up to 6 conjugate pairs (12 modes); a small y_scale leaves y-modes
    # near rounding, so that many grid values tie for the extrema
    phi = _positive_roof(modes, y_scale)
    got = _certificate(certify_roof(phi, slack_target=1e-2))
    assert got == dense_certify_bounds(phi, slack_target=1e-2)


@settings(max_examples=30)
@given(
    modes=_modes(8),
    slack_target=st.sampled_from([1e-2, 1e-3]),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_certificate_is_valid_and_tight(modes, slack_target, seed):
    # the certified bounds enclose the roof on a 1024^2 lattice and at
    # random points, and lie within slack + the fine lattice's own slack
    # of the extrema there: the true extrema are within that of them
    phi = _positive_roof(modes)
    roof = certify_roof(phi, slack_target=slack_target)
    assert roof.slack <= slack_target
    rng = np.random.default_rng(seed)
    vals = phi.evaluate(rng.random(4096), rng.random(4096))
    lo, hi = lattice_bounds(phi, 1024, 1024)
    lo, hi = min(lo, float(vals.min())), max(hi, float(vals.max()))
    assert roof.certified_min <= lo and roof.certified_max >= hi
    reach = roof.slack + lattice_slack(phi, 1024, 1024) + 1e-12
    assert lo - roof.certified_min <= reach
    assert roof.certified_max - hi <= reach


def test_certify_matches_dense_grid_on_x_only_roofs():
    # M_y = 0: every y-column is alike
    phi = FiberedTrigPoly.from_modes(
        {(1, 0): 0.25, (-1, 0): 0.25, (5, 0): -0.15j, (-5, 0): 0.15j,
         (0, 0): 2.0},
        real=True,
    )
    assert _certificate(certify_roof(phi)) == dense_certify_bounds(phi)


def test_certify_matches_dense_grid_on_y_only_roofs():
    # M_x = 0: the x-rows are all alike, and the certificate must still
    # take them in products of at least two rows
    phi = FiberedTrigPoly.from_modes(
        {(0, 1): 0.25, (0, -1): 0.25, (0, 3): 0.1 - 0.2j, (0, -3): 0.1 + 0.2j,
         (0, 5): -0.15j, (0, -5): 0.15j, (0, 0): 2.0},
        real=True,
    )
    assert _certificate(certify_roof(phi)) == dense_certify_bounds(phi)


def test_certify_is_the_lattice_of_grid_blocks():
    # a 2032 x 2391 lattice, past 2^22 values: an oracle that split its
    # y-columns into products of 2^22 values could round their trailing
    # columns otherwise than one product of all of them; the certificate
    # is the extrema of every x-row of the lattice through grid_blocks,
    # and the dense oracle's, which takes all y-columns in every product
    a, b = complex(0.1726766135848326, 0.19264097476525105), complex(
        -0.15017015224047664, 0.19548243676469804)
    phi = FiberedTrigPoly.from_modes(
        {(-3, -5): a, (3, 5): a.conjugate(), (-4, 3): b,
         (4, -3): b.conjugate(), (0, 0): 2.5208339000683813},
        real=True,
    )
    roof = certify_roof(phi, slack_target=3e-5)
    gx, gy = certify_grid(phi, slack_target=3e-5)
    assert (gx, gy) == (2032, 2391)
    lo, hi = lattice_bounds(phi, gx, gy)
    assert (roof.certified_min, roof.certified_max) == (
        lo - roof.slack, hi + roof.slack)
    assert _certificate(roof) == dense_certify_bounds(phi, slack_target=3e-5)


@pytest.mark.parametrize("size", [0.2501, 0.251])
@pytest.mark.parametrize("slack_target", [3e-18, 1e-18])
def test_certify_matches_dense_grid_within_rounding(size, slack_target):
    # 1.75 + 2 s sin(2 pi y) with 2 s just past half an ulp: the computed
    # values move by one rounding step on a few lattice points only
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
        _hit_count_lanes(roof, f, np.array([0.3]), np.array([0.8]), [t])


# ---------------------------------------------------------------------- flow


def test_lanes_stop_at_the_scalar_step_bound():
    # certified_min = 10 overstates the unit roof: the true hit count at
    # t = 100 is 99, but no loop may take more than int(t / 10) + 2 steps
    f = SkewShift(GOLDEN, 0.0)
    roof = Roof(FiberedTrigPoly.constant(1.0), 10.0, 10.0, 1.0, 0.0)
    xs, ys = np.array([0.1, 0.6]), np.array([0.2, 0.9])
    limit = int(100.0 / 10.0) + 2
    counts = _hit_count_lanes(roof, f, xs, ys, [100.0])[0]
    for x, y, n in zip(xs, ys, counts):
        assert n == hit_count(roof, f, FlowPoint(x, y, 0.0), 100.0) == limit
    for t in (100.0, -100.0):
        (lx, ly, lz), = _flow_lanes(roof, f, xs, ys, np.zeros(2), [t])
        for i in range(2):
            want = flow_at(roof, f, FlowPoint(xs[i], ys[i], 0.0), t)
            assert circle_dist(lx[i], want.x) < 1e-12
            assert circle_dist(ly[i], want.y) < 1e-12
            assert lz[i] == want.z
    assert lz[0] == -100.0 + limit       # backward: limit steps of height 1


_KERNEL_ROOF = certify_roof(coboundary_roof(0.25, const=3.0))


def _assert_lanes_match_scalar(f, xs, ys, zs, t, check):
    roof = _KERNEL_ROOF
    (fx, fy, fz), = _flow_lanes(roof, f, xs, ys, zs, [t])
    counts = _hit_count_lanes(roof, f, xs, ys, [abs(t)])[0]
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


def test_more_lanes_than_a_tile_equal_chunked_lanes():
    # 70 000 lanes climb in chunks of 2^13 lanes and tiles of 8 steps; a
    # call of 1000 lanes climbs in tiles of up to 65 steps
    f = SkewShift(GOLDEN, 0.31)
    rng = np.random.default_rng(70)
    xs, ys = rng.random(70_000), rng.random(70_000)
    times = [6.0, 2.0]
    whole = _hit_count_lanes(_KERNEL_ROOF, f, xs, ys, times)
    chunked = np.concatenate([
        _hit_count_lanes(_KERNEL_ROOF, f, xs[i : i + 1000], ys[i : i + 1000], times)
        for i in range(0, xs.size, 1000)
    ], axis=1)
    assert whole.shape == (2, 70_000)
    assert (whole == chunked).all()


def test_more_lanes_than_a_tile_take_min_tiles(monkeypatch):
    # past 2^13 lanes a row climbs in chunks of 2^13 lanes, so no tile
    # evaluates the roof at more than 2^16 points; each chunk evaluates one
    # tile per at least _MIN_TILE steps, and one more tile for the lanes
    # whose step limit fell on a tile's last step
    calls = []
    at = FiberedTrigPoly.at

    def counted(self, phases, j, *args):
        calls.append(math.prod(phases.shape(j)))
        return at(self, phases, j, *args)

    monkeypatch.setattr(FiberedTrigPoly, "at", counted)
    f = SkewShift(GOLDEN, 0.31)
    rng = np.random.default_rng(71)
    xs, ys = rng.random(70_000), rng.random(70_000)
    t = 40.0
    _hit_count_lanes(_KERNEL_ROOF, f, xs, ys, [t])
    limit = int(t / _KERNEL_ROOF.certified_min) + 2
    chunks = math.ceil(xs.size / (_SWEEP_BLOCK // _MIN_TILE))
    assert max(calls) <= _SWEEP_BLOCK
    assert len(calls) <= chunks * (math.ceil(limit / _MIN_TILE) + 1)


# overstates the minimum of _KERNEL_ROOF (about 1): from t ~ 20 on, every
# lane stops at the step limit
_OVERSTATED_ROOF = Roof(_KERNEL_ROOF.phi, 10.0, 10.0, _KERNEL_ROOF.mean, 0.0)


@settings(max_examples=20)
@example(t1=100.0, dt=0.0, backward=False, overstated=True, lanes=7, seed=1)
@example(t1=100.0, dt=50.0, backward=True, overstated=True, lanes=7, seed=2)
@given(t1=st.floats(0.0, 300.0),
       dt=st.one_of(st.just(0.0), st.floats(0.0, 300.0)),
       backward=st.booleans(),
       overstated=st.booleans(),
       lanes=st.sampled_from([1, 7, 300]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_resumed_climb_equals_fresh_climb(t1, dt, backward, overstated, lanes, seed):
    roof = _OVERSTATED_ROOF if overstated else _KERNEL_ROOF
    f = SkewShift(GOLDEN, 0.31)
    rng = np.random.default_rng(seed)
    xs, ys = rng.random(lanes), rng.random(lanes)
    zs = _KERNEL_ROOF.certified_min * rng.random(lanes)
    phases = PhaseNumerators(f.alpha, f.beta, xs, ys)
    targets = zs + np.array([[t1], [t1 + dt]])
    n, total, after = _climb_lanes(roof, phases, targets, backward)
    for r in range(2):
        want_n, want_total, want_after = _climb_lanes(
            roof, phases, targets[r : r + 1], backward)
        assert np.array_equal(n[r], want_n[0])
        assert np.array_equal(total[r], want_total[0])
        assert np.array_equal(after[r], want_after[0])


@settings(max_examples=20)
@given(t=st.floats(0.0, 300.0),
       backward=st.booleans(),
       overstated=st.booleans(),
       lanes=st.sampled_from([1, 7, 300]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_climb_after_is_the_roof_past_n(t, backward, overstated, lanes, seed):
    # after is read from the tile where the lane crossed or stopped at its
    # step limit (reached by every lane under the overstated minimum), the
    # next tile's first step when the limit fell on a tile's last step;
    # either way it is the value at the next step of the exact orbit,
    # Phi(f^n p) or Phi(f^{-n-1} p)
    roof = _OVERSTATED_ROOF if overstated else _KERNEL_ROOF
    f = SkewShift(GOLDEN, 0.31)
    rng = np.random.default_rng(seed)
    phases = PhaseNumerators(f.alpha, f.beta, rng.random(lanes), rng.random(lanes))
    targets = t + _KERNEL_ROOF.certified_min * rng.random((1, lanes))
    n, _, after = _climb_lanes(roof, phases, targets, backward)
    step = -1 - n[0] if backward else n[0]
    assert np.array_equal(after, roof.phi.at(phases, step))


@pytest.mark.parametrize("beta", [0.31, 1e-5])
@pytest.mark.parametrize("backward", [False, True])
@pytest.mark.parametrize("overstated", [False, True])
def test_climb_does_not_depend_on_its_tiling(monkeypatch, overstated, backward, beta):
    # with tiles of at most 256 lane-steps and at least 2 steps, each row of
    # 300 lanes climbs in chunks of 128, 128 and 44 lanes (both ways of
    # summing) and in many short tiles; the overstated minimum stops many
    # lanes at their step limit, the kernel roof none
    roof = _OVERSTATED_ROOF if overstated else _KERNEL_ROOF
    rng = np.random.default_rng(72)
    phases = PhaseNumerators(GOLDEN, beta, rng.random(300), rng.random(300))
    targets = np.sort(60.0 * rng.random((2, 300)), axis=0)
    want = _climb_lanes(roof, phases, targets, backward)
    monkeypatch.setattr(specialflow, "_SWEEP_BLOCK", 256)
    monkeypatch.setattr(specialflow, "_MIN_TILE", 2)
    got = _climb_lanes(roof, phases, targets, backward)
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    limit = (targets / roof.certified_min).astype(int) + (1 if backward else 2)
    assert (got[0] == limit).any() == overstated


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
    q = Cube(0.1, 0.45, 0.2, 0.8, 0.7)
    a = np.concatenate(_sample_block(roof, 42, 0, 20_000, q))
    b = np.concatenate(_sample_block(roof, 42, 0, 20_000, q))
    assert np.array_equal(a, b)
    c = np.concatenate(_sample_block(roof, 43, 0, 20_000, q))
    assert not np.array_equal(a, c)
    for seed in range(5):
        xs, ys, zs = _sample_block(roof, seed, 0, 20_000, q)
        assert xs.size > 0 and np.all(q.contains(xs, ys, zs))


def test_sample_points_keep_uint64_phases():
    # a side from 0 of width 0.3 maps draws below 2^-12; rounded up to the
    # 2^-64 grid they keep the block's lanes on uint64 numerators
    roof = certify_roof(mixing_example_roof())
    q = Cube(0.0, 0.3, 0.0, 0.3, 0.5)
    xs, ys, zs = _sample_block(roof, 1, 0, 1_000_000, q)
    assert np.count_nonzero(np.minimum(xs, ys) < 2.0 ** -12) > 0
    assert np.all(q.contains(xs, ys, zs))
    assert PhaseNumerators(GOLDEN, 0.0, xs, ys).k == 64


def test_sample_measure_slab_mass():
    # the block holds the draws, of count invariant samples, that land in
    # the cube: Binomial(count, mu(cube)) of them
    roof = certify_roof(mixing_example_roof())
    slab = Cube(0.0, 1.0, 0.0, 1.0, 0.5)
    n = 200_000
    xs, _, _ = _sample_block(roof, 7, 0, n, slab)
    mu = cube_measure(roof, slab)
    assert abs(xs.size - n * mu) <= 4 * math.sqrt(n * mu * (1 - mu))


def test_cube_draw_matches_rejection_then_filter():
    # the hit fraction at a small t from the cube draw and from the whole
    # invariant measure with the points outside the cube dropped
    f = SkewShift(GOLDEN, 0.11)
    roof = certify_roof(mixing_example_roof())
    q = Cube(0.0, 0.5, 0.0, 0.5, 0.5)
    n, t = 200_000, 2.0
    xs, ys, zs = sample_block_reference(roof, 5, 0, n)
    in1 = q.contains(xs, ys, zs)
    fractions = []
    for points in (_sample_block(roof, 5, 0, n, q), (xs[in1], ys[in1], zs[in1])):
        (fx, fy, fz), = _flow_lanes(roof, f, *points, [t])
        fractions.append(np.count_nonzero(q.contains(fx, fy, fz)) / n)
    p = 0.5 * sum(fractions)
    assert p > 0
    assert abs(fractions[0] - fractions[1]) <= 4 * math.sqrt(2 * p * (1 - p) / n)


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


def test_correlation_chains_unsorted_and_repeated_times():
    # each block flows through 0, 2, 7 and -3, -11, resuming every climb
    f = SkewShift(GOLDEN, 0.2)
    roof = certify_roof(mixing_example_roof())
    q = Cube(0.0, 0.5, 0.0, 0.5, 0.5)
    times = [7.0, -3.0, 0.0, 7.0, -11.0, 2.0]
    together = correlate_cubes(roof, f, q, q, times, 70_000, seed=21)
    alone = [correlate_cubes(roof, f, q, q, [t], 70_000, seed=21)[0] for t in times]
    assert together == alone


def test_times_in_one_call_equal_single_times():
    # unsorted, repeated and mixed-sign times: one climb per sign
    f = SkewShift(GOLDEN, 0.25)
    roof = _KERNEL_ROOF
    rng = np.random.default_rng(3)
    xs, ys = rng.random(300), rng.random(300)
    zs = roof.certified_min * rng.random(300)
    times = [7.0, -3.0, 0.0, 7.0, -11.0, 2.0]
    for t, image in zip(times, _flow_lanes(roof, f, xs, ys, zs, times)):
        (want,) = _flow_lanes(roof, f, xs, ys, zs, [t])
        assert all(np.array_equal(a, b) for a, b in zip(image, want))
    hit_times = [t for t in times if t >= 0]
    counts = _hit_count_lanes(roof, f, xs, ys, hit_times)
    for t, row in zip(hit_times, counts):
        assert np.array_equal(row, _hit_count_lanes(roof, f, xs, ys, [t])[0])
    cube, arc = Cube(0.2, 0.6, 0.1, 0.7, 0.5), (0.15, 0.85)
    profile = fiber_mixing_profile(roof, f, 0.3, arc, cube, times)
    assert profile == [
        fiber_mixing_profile(roof, f, 0.3, arc, cube, [t])[0] for t in times
    ]
    u = FiberedTrigPoly.from_modes({(0, 1): 0.5, (0, -1): 0.5}, real=True)
    devs = trivial_conjugacy_check(roof, f, u, 3.0, times, points=60)
    assert devs == [
        trivial_conjugacy_check(roof, f, u, 3.0, [t], points=60)[0] for t in times
    ]


def test_correlation_reads_no_certificate():
    # the bounds enter only the check that the cube fits below the roof:
    # moved by one ulp, or widened to looser valid bounds, the estimates stay
    f = SkewShift(GOLDEN, 0.0)
    roof = certify_roof(mixing_example_roof())
    q = Cube(0.0, 0.5, 0.0, 0.5, 0.5)
    want = correlate_cubes(roof, f, q, q, [0.0, 3.0], 70_000, seed=2)
    for lo, hi in (
        (np.nextafter(roof.certified_min, 0.0), np.nextafter(roof.certified_max, 4.0)),
        (0.9 * roof.certified_min, 1.1 * roof.certified_max),
    ):
        moved = dataclasses.replace(roof, certified_min=lo, certified_max=hi)
        assert correlate_cubes(moved, f, q, q, [0.0, 3.0], 70_000, seed=2) == want


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
    n = 100_000
    xs, ys, zs = sample_block_reference(roof, 8, 0, n)
    mu = cube_measure(roof, cube)
    for t in (1.0, 10.0, 100.0):
        (fx, fy, fz), = _flow_lanes(roof, f, xs, ys, zs, [-t])
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
    val = fiber_mixing_profile(roof, f, 0.3, (0.2, 0.6), cube, [0.0])[0]
    assert abs(val - 0.4) < 1e-12
    # x outside
    val = fiber_mixing_profile(roof, f, 0.9, (0.2, 0.6), cube, [0.0])[0]
    assert val == 0.0


# frozen at development time: at t = 200 the arc mass carried into the cube
# is already of the order of (arc length) * mu(cube)
FROZEN_PROFILE_T200 = 0.0779296875


def test_fiber_profile_large_time_regression():
    f = SkewShift(GOLDEN, 0.0)
    roof = certify_roof(mixing_example_roof())
    cube = Cube(0.2, 0.6, 0.1, 0.7, 0.5)
    arc = (0.15, 0.85)
    val = fiber_mixing_profile(roof, f, 0.3, arc, cube, [200.0], resolution=512)[0]
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
    assert hitting_complement_measures(roof, f, [50.0], 2.0)[0] == 1.0


def test_hitting_below_min():
    f = SkewShift(GOLDEN, 0.0)
    roof = certify_roof(mixing_example_roof())
    assert hitting_complement_measures(roof, f, [0.5], 2.0)[0] == 1.0


def _lane_stops(roof, f, times, grid, y_resolution):
    """The least hit count over each column's y-grid, from the lanes."""
    xs = np.repeat(midgrid(grid), y_resolution)
    ys = np.tile(midgrid(y_resolution), grid)
    counts = _hit_count_lanes(roof, f, xs, ys, times)
    return counts.reshape(len(times), grid, y_resolution).min(axis=2)


def _random_real_roof(seed):
    """3 plus four seeded conjugate pairs of modes of total size below 2."""
    rng = np.random.default_rng(seed)
    modes = {(0, 0): 3.0}
    while len(modes) < 9:
        m, k = (int(v) for v in rng.integers(-3, 4, size=2))
        if (m, k) != (0, 0) and (m, k) not in modes:
            c = complex(*rng.normal(scale=0.15, size=2))
            modes[(m, k)], modes[(-m, -k)] = c, c.conjugate()
    return FiberedTrigPoly.from_modes(modes, real=True)


_STOP_ROOFS = {
    **{name: load_roof(bundled_roof_path(name))
       for name in ("example1", "example2", "example3", "coboundary",
                    "constant")},
    **{f"random{s}": (SkewShift(GOLDEN, 0.1 + 0.2 * s), _random_real_roof(s))
       for s in range(3)},
}


@pytest.mark.parametrize("name", sorted(_STOP_ROOFS))
def test_column_stops_equal_least_lane_hit_counts(name):
    f, phi = _STOP_ROOFS[name]
    roof = certify_roof(phi)
    times = np.array([0.0, 0.5 * roof.certified_min, 100.0, 1000.0])
    stops = _column_stops(roof, f, times, 96, 16)
    assert np.array_equal(stops, _lane_stops(roof, f, times, 96, 16))


def test_column_stops_cap_at_the_step_limit():
    # certified_min = 2.2 overstates example1's minimum (about 1) and even
    # its mean: at t = 100 some columns, and at t = 1000 all, stop at the
    # step limit int(t / 2.2) + 2 before their crossing
    f, phi = load_roof(bundled_roof_path("example1"))
    cert = certify_roof(phi)
    roof = Roof(phi, 2.2, cert.certified_max, cert.mean, 0.0)
    times = np.array([100.0, 1000.0])
    stops = _column_stops(roof, f, times, 256, 32)
    assert np.array_equal(stops, _lane_stops(roof, f, times, 256, 32))
    limit = (times / 2.2).astype(np.int64) + 2
    assert 0 < np.count_nonzero(stops[0] == limit[0]) < 256
    assert np.all(stops[1] == limit[1])


def test_column_stops_take_few_checkpoints(monkeypatch):
    # about 5000 steps to t = 1e4, checkpoints spaced by the gap to the
    # nearest crossing: one checkpoint per step would take 5000
    checkpoints = []
    sweep = specialflow._grid_sweep

    def counted(*args):
        for n, coeffs in sweep(*args):
            checkpoints.append(n)
            yield n, coeffs

    monkeypatch.setattr(specialflow, "_grid_sweep", counted)
    f, phi = load_roof(bundled_roof_path("example1"))
    roof = certify_roof(phi)
    stops = _column_stops(roof, f, np.array([1e4]), 256, 64)
    assert stops.min() > 4000
    assert len(checkpoints) <= 200


def test_hitting_times_equal_single_times():
    f = SkewShift(GOLDEN, 0.0)
    roof = certify_roof(mixing_example_roof())
    times = [100.0, 0.5, 40.0, 100.0]
    together = hitting_complement_measures(roof, f, times, 2.0)
    alone = [hitting_complement_measures(roof, f, [t], 2.0)[0] for t in times]
    assert together == alone


def test_hitting_without_times_is_empty():
    roof = certify_roof(mixing_example_roof())
    f = SkewShift(GOLDEN, 0.0)
    assert hitting_complement_measures(roof, f, [], 2.0) == []


# frozen at development time; the complement measure shrinks with t
FROZEN_HITTING = {100.0: 0.0546875, 10_000.0: 0.00390625}


def test_hitting_decay_regression():
    f = SkewShift(GOLDEN, 0.0)
    roof = certify_roof(mixing_example_roof())
    vals = {
        t: hitting_complement_measures(roof, f, [t], 2.0)[0]
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
    dev = trivial_conjugacy_check(roof, f, u, 1.5, [3.3], points=40)[0]
    assert dev == 0.0


def _grid64(v: float) -> float:
    """v rounded down to a multiple of 2^-64."""
    return math.ldexp(math.floor(math.ldexp(v, 64)), -64)


_on_grid64 = st.floats(0.0, 1.0, exclude_max=True).map(_grid64)


@settings(max_examples=40)
@given(
    alpha=_on_grid64,
    beta=st.one_of(_on_grid64, st.just(1e-5)),     # 1e-5: past 2^64
    height=st.sampled_from([1.1, 3.0, 0.6180339887498949]),
    lanes=st.lists(
        st.tuples(_on_grid64, _on_grid64, st.integers(-10 ** 6, 10 ** 6),
                  st.floats(0.1, 0.9)),
        min_size=1, max_size=4,
    ),
)
@example(alpha=GOLDEN, beta=1e-5, height=3.0,
         lanes=[(0.25, 0.5, -10 ** 6, 0.1), (0.75, 0.125, 10 ** 6, 0.9)])
def test_constant_quotient_sheets_match_exact_rationals(alpha, beta, height, lanes):
    # heights (q + s) * height sit inside sheet q, away from its edges, so
    # the floor is q; sheet k is f^(q+k) of the point, each coordinate
    # rounded once, at height z - q * height - k * height
    f = SkewShift(alpha, beta)
    xs, ys, qs, ss = (np.array(v) for v in zip(*lanes))
    zs = (qs + ss) * height
    phases = PhaseNumerators(f.alpha, f.beta, xs, ys)
    sheets = np.array([[-1], [0], [1]])
    gx, gy, gz = specialflow._reduce_constant_quotient(phases, zs, height, sheets)
    z = zs - qs.astype(float) * height
    for i, k in enumerate((-1, 0, 1)):
        want = [orbit_exact(f, TorusPoint(float(x), float(y)), int(q) + k)
                for x, y, q in zip(xs, ys, qs)]
        assert gx[i].tolist() == [p.x for p in want]
        assert gy[i].tolist() == [p.y for p in want]
        assert gz[i].tolist() == (z - k * height).tolist()


def test_conjugacy_explicit_coboundary():
    beta = 0.25
    f = SkewShift(GOLDEN, beta)
    roof = certify_roof(coboundary_roof(beta, const=3.0))
    u = FiberedTrigPoly.from_modes({(0, 1): 0.5, (0, -1): 0.5}, real=True)
    for t in (0.7, 3.3, 10.1):
        dev = trivial_conjugacy_check(roof, f, u, 3.0, [t], points=60)[0]
        assert dev <= 1e-8


def test_conjugacy_rejects_wrong_transfer():
    f = SkewShift(GOLDEN, 0.0)
    roof = certify_roof(mixing_example_roof())
    u = FiberedTrigPoly.from_modes({(0, 1): 0.5, (0, -1): 0.5}, real=True)
    with pytest.raises(NotACoboundary):
        trivial_conjugacy_check(roof, f, u, 2.0, [1.0])


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

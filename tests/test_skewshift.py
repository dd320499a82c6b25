"""Skew-shift orbits, Birkhoff sums, and the estimators built on them."""

import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    GOLDEN,
    birkhoff_grid,
    birkhoff_oracle,
    binom2,
    circle_dist,
    coboundary_roof,
    dense_evaluate_complex,
    frac_exact,
    mixing_example_roof,
    orbit_exact,
    sublevel_measure,
)
from mixlab import skewshift
from mixlab.errors import SmallDivisor
from mixlab.phases import PhaseNumerators
from mixlab.skewshift import (
    SkewShift,
    TorusPoint,
    arc_length,
    birkhoff_sum,
    fiber_coefficients,
    fiber_coefficients_on_grid,
    grid_blocks,
    grid_sup,
    midgrid,
    project,
    rotation_transfer,
    skew_coboundary,
    stretch,
    sublevel_measures,
    visit_fraction,
)
from mixlab.trigpoly import FiberedTrigPoly, TrigPoly1D


# ---------------------------------------------------------------- map basics


def orbit(f, p, j):
    """f^j(p) from the library's exact orbit numerators."""
    phases = PhaseNumerators(f.alpha, f.beta, p.x, p.y)
    xn, yn = phases.orbit(j)                                # (1, 1)
    return TorusPoint(float(phases.to_unit(xn)[0, 0]),
                      float(phases.to_unit(yn)[0, 0]))


def test_step_examples():
    f = SkewShift(0.0, 0.0)
    q = orbit(f, TorusPoint(0.25, 0.5), 1)
    assert (q.x, q.y) == (0.25, 0.75)
    f = SkewShift(0.3, 0.4)
    q = orbit(f, TorusPoint(0.1, 0.2), 1)
    assert abs(q.x - 0.4) < 1e-15 and abs(q.y - 0.7) < 1e-15


def test_step_inverse_round_trip():
    f = SkewShift(0.3137, 0.777)
    rng = np.random.default_rng(0)
    for x, y in rng.random((50, 2)):
        p = TorusPoint(x, y)
        q = orbit(f, orbit(f, p, 1), -1)
        assert circle_dist(q.x, p.x) <= 2.3e-16   # one ulp of a circle coordinate
        assert circle_dist(q.y, p.y) <= 2.3e-16


def test_orbit_at_matches_iterated_step():
    # the oracle steps one point at a time on exact rationals
    f = SkewShift(GOLDEN, 0.25)
    p = TorusPoint(0.1357, 0.8642)
    cur = p
    for j in range(1, 10_001):
        cur = orbit_exact(f, cur, 1)
        if j in (1, 2, 3, 10, 100, 1000, 10_000):
            q = orbit(f, p, j)
            assert circle_dist(q.x, cur.x) <= 1e-9
            assert circle_dist(q.y, cur.y) <= 1e-9


def test_orbit_at_examples():
    f = SkewShift(math.sqrt(2) - 1, 0.0)
    p = TorusPoint(0.0, 0.0)
    q = orbit(f, p, 3)
    target = (3 * (math.sqrt(2) - 1)) % 1.0
    assert circle_dist(q.x, target) < 1e-12
    assert circle_dist(q.y, target) < 1e-12   # 3x + 3b + 3a = 3a at x=y=b=0

    f = SkewShift(0.3, 0.45)
    p = TorusPoint(0.21, 0.66)
    q = orbit(f, p, 2)
    assert circle_dist(q.y, (0.66 + 2 * 0.21 + 2 * 0.45 + 0.3) % 1) < 1e-12
    assert orbit(f, p, 0) == p
    assert orbit(f, p, -2) == orbit_exact(f, p, -2)


# ------------------------------------------------------------- projections


def test_project_examples():
    phi = mixing_example_roof()
    osc, perp = project(phi)
    assert perp.coeffs == {0: 2.0 + 0j}
    assert set(osc.fiber) == {1, -1}
    ys = np.linspace(0, 1, 9)
    assert np.allclose(osc.evaluate(0.2, ys), np.sin(2 * np.pi * ys), atol=1e-14)

    g_only = FiberedTrigPoly.from_modes({(1, 0): 0.5, (-1, 0): 0.5}, real=True)
    osc, perp = project(g_only)
    assert osc.is_zero()
    assert perp.coeffs == {1: 0.5 + 0j, -1: 0.5 + 0j}

    pure = FiberedTrigPoly.from_modes({(1, 1): 0.5, (-1, -1): 0.5}, real=True)
    osc, perp = project(pure)
    assert perp.is_zero()
    assert osc.fiber == pure.fiber

    # phi + phi_perp reconstructs Phi
    back = osc + FiberedTrigPoly({0: perp}, real=True)
    assert back.fiber == pure.fiber


# ------------------------------------------------------------ Birkhoff sums


def test_birkhoff_trivial_and_hand_examples():
    f = SkewShift(0.5, 0.0)
    const = FiberedTrigPoly.constant(1.0)
    p = TorusPoint(0.3, 0.9)
    assert birkhoff_sum(f, const, p, 7) == 7.0
    assert birkhoff_sum(f, const, p, 0) == 0.0

    sin_y = FiberedTrigPoly.from_modes({(0, 1): -0.5j, (0, -1): 0.5j}, real=True)
    val = birkhoff_sum(f, sin_y, TorusPoint(0.25, 0.0), 2)
    # sin(0) + sin(2 pi (0 + 0.25 + 0)) = 0 + 1
    assert abs(val - 1.0) < 1e-14


def test_birkhoff_matches_direct_iteration_oracle():
    f = SkewShift(GOLDEN, 0.37)
    phi = mixing_example_roof()
    p = TorusPoint(0.123, 0.456)

    def fn(x, y):
        return math.sin(2 * math.pi * y) + 2.0

    for n in (1, 5, 50, 500):
        want = birkhoff_oracle(f.alpha, f.beta, fn, p.x, p.y, n)
        got = birkhoff_sum(f, phi, p, n)
        assert abs(got - want) < 1e-10 * max(1, n)


def test_cocycle_identity():
    f = SkewShift(GOLDEN, 0.11)
    phi = mixing_example_roof()
    rng = np.random.default_rng(5)
    for _ in range(60):
        m, n = int(rng.integers(1, 1000)), int(rng.integers(1, 1000))
        p = TorusPoint(float(rng.random()), float(rng.random()))
        whole = birkhoff_sum(f, phi, p, m + n)
        first = birkhoff_sum(f, phi, p, n)
        rest = birkhoff_sum(f, phi, orbit_exact(f, p, n), m)
        assert abs(whole - (first + rest)) <= 1e-8


def test_cocycle_identity_across_orbit_blocks():
    # n + m passes the 2^16-step block of the orbit walk, n and m do not
    f = SkewShift(GOLDEN, 0.11)
    phi = mixing_example_roof()
    n, m = 40_000, 30_000
    for x, y in [(0.3, 0.7), (0.123, 0.456), (0.9, 0.05)]:
        p = TorusPoint(x, y)
        whole = birkhoff_sum(f, phi, p, n + m)
        first = birkhoff_sum(f, phi, p, n)
        rest = birkhoff_sum(f, phi, orbit_exact(f, p, n), m)
        # float sums of 7e4 terms of size <= 3, and the once-rounded f^n p
        assert abs(whole - (first + rest)) <= 1e-12 * (n + m) * 3.0


# ------------------------------------------------------- fiber coefficients


def test_fiber_coefficients_small_n():
    f = SkewShift(GOLDEN, 0.0)
    sin_y = FiberedTrigPoly.from_modes({(0, 1): -0.5j, (0, -1): 0.5j}, real=True)
    c1 = fiber_coefficients(f, sin_y, 0.2, 1)
    assert abs(c1[1] - (-0.5j)) < 1e-15

    c2 = fiber_coefficients(f, sin_y, 0.0, 2)
    assert abs(c2[1] - (-1j)) < 1e-14      # phi_2(0, y) = 2 sin(2 pi y)
    assert abs(c2[-1] - 1j) < 1e-14


def test_fiber_coefficients_match_birkhoff_on_grid():
    f = SkewShift(GOLDEN, 0.3)
    phi = FiberedTrigPoly.from_modes(
        {(1, 1): 0.3 - 0.2j, (-1, -1): 0.3 + 0.2j, (0, 2): 0.25j, (0, -2): -0.25j,
         (2, 0): 0.1, (-2, 0): 0.1},
        real=True,
    )
    x = 0.377
    for n in (1, 7, 100, 2000):
        coeffs = fiber_coefficients(f, phi, x, n)
        ys = (np.arange(64) + 0.5) / 64
        series = np.zeros(64, dtype=complex)
        for k, c in coeffs.items():
            series += c * np.exp(2j * np.pi * k * ys)
        direct = np.array(
            [birkhoff_sum(f, phi, TorusPoint(x, y), n) for y in ys]
        )
        assert np.max(np.abs(series.real - direct)) <= 1e-9


GRID_TEST_ROOF = {
    (1, 1): 0.3 - 0.2j, (-1, -1): 0.3 + 0.2j, (0, 1): -0.5j, (0, -1): 0.5j,
    (2, 0): 0.1, (-2, 0): 0.1, (-3, 2): 0.05j, (3, -2): -0.05j,
}


def _assert_grid_matches_scalar(f, phi, ns, G, columns):
    ks, mats = fiber_coefficients_on_grid(f, phi, ns, grid=G)
    assert ks == sorted(phi.fiber)
    xs = midgrid(G)
    for n in ns:
        assert mats[n].shape == (len(ks), G)
        for idx in columns:
            want = fiber_coefficients(f, phi, float(xs[idx]), n)
            for r, k in enumerate(ks):
                assert abs(mats[n][r, idx] - want[k]) < 1e-9


def test_fiber_grid_sweep_matches_scalar():
    # the m = 0 (k = 0) and |k| = 2 modes cover the fold of every frequency
    f = SkewShift(GOLDEN, 0.3)
    phi = FiberedTrigPoly.from_modes(GRID_TEST_ROOF, real=True)
    _assert_grid_matches_scalar(f, phi, [50, 5000, 50_000], 64, (0, 13, 40, 63))


def test_fiber_grid_sweep_non_power_of_two_grid():
    f = SkewShift(GOLDEN, 0.3)
    phi = FiberedTrigPoly.from_modes(GRID_TEST_ROOF, real=True)
    _assert_grid_matches_scalar(f, phi, [7, 2000], 1000, (0, 333, 500, 999))


def test_fiber_grid_sweep_wide_dyadic_denominator():
    # beta = 1e-5 needs 2^69 as the common denominator: the sweep forms
    # the phases on Python integers instead of uint64
    f = SkewShift(GOLDEN, 1e-5)
    phi = FiberedTrigPoly.from_modes(GRID_TEST_ROOF, real=True)
    _assert_grid_matches_scalar(f, phi, [1, 300], 64, (0, 31, 63))


@pytest.mark.parametrize("wide", [2 ** 61, 2 ** 63 - 1], ids=["2^61", "2^63-1"])
def test_fiber_grid_sweep_wide_frequency_against_exact_rationals(wide):
    # k j overflows int64, and 2G = 2000 does not divide 2^64: a wrapped
    # product would fold the terms into the wrong bins
    f = SkewShift(GOLDEN, 0.3)
    phi = FiberedTrigPoly.from_modes(
        {(1, wide): 0.5, (-1, -wide): 0.5, (0, 0): 3.0}, real=True
    )
    G, n = 1000, 20
    ks, mats = fiber_coefficients_on_grid(f, phi, [n], grid=G)
    for r, k in enumerate(ks):
        for i in range(G):
            x = Fraction(2 * i + 1, 2 * G)
            want = sum(
                c * np.exp(2j * np.pi * frac_exact([
                    (m * j + k * binom2(j), f.alpha),
                    (k * j, f.beta),
                    (m + k * j, x),
                ]))
                for m, c in phi.c(k).coeffs.items()
                for j in range(n)
            )
            assert abs(mats[n][r, i] - want) <= 1e-12


def test_fiber_grid_sweep_checkpoints():
    f = SkewShift(GOLDEN, 0.3)
    phi = FiberedTrigPoly.from_modes(GRID_TEST_ROOF, real=True)
    ns = [0, 1, 99, 70_000, 131_073]
    ks, mats = fiber_coefficients_on_grid(f, phi, ns + [99], grid=128)
    assert sorted(mats) == ns
    assert not np.any(mats[0])
    for n in ns[1:]:
        _, single = fiber_coefficients_on_grid(f, phi, [n], grid=128)
        scale = max(1.0, float(np.max(np.abs(single[n]))))
        assert np.max(np.abs(mats[n] - single[n])) <= 1e-12 * scale
    with pytest.raises(ValueError):
        fiber_coefficients_on_grid(f, phi, [], grid=128)
    with pytest.raises(ValueError):
        fiber_coefficients_on_grid(f, phi, [-1, 5], grid=128)
    with pytest.raises(ValueError, match="out of range"):
        fiber_coefficients_on_grid(f, phi, [5, 2 ** 40 + 1], grid=128)


def test_grid_sweep_reads_checkpoints_lazily_and_rejects_a_decrease():
    f = SkewShift(GOLDEN, 0.3)
    phi = FiberedTrigPoly.from_modes(GRID_TEST_ROOF, real=True)
    _, mats = fiber_coefficients_on_grid(f, phi, [3, 7], grid=16)
    sweep = skewshift._grid_sweep(f, phi, [3, 7, 7, 5], 16)
    assert [n for n, _ in itertools.islice(sweep, 3)] == [3, 7, 7]
    with pytest.raises(ValueError, match="must not decrease"):
        next(sweep)
    # each checkpoint is read only after the one before has been yielded
    seen = []

    def checkpoints():
        for n in (3, 7):
            seen.append(n)
            yield n

    for n, coeffs in skewshift._grid_sweep(f, phi, checkpoints(), 16):
        assert seen[-1] == n
        assert np.array_equal(coeffs, mats[n])


def test_birkhoff_grid_values():
    f = SkewShift(GOLDEN, 0.0)
    phi = mixing_example_roof()
    G = 64
    vals = birkhoff_grid(f, phi, 3, G)
    xs = midgrid(G)
    for i, q in [(0, 0), (5, 40), (63, 63)]:
        direct = birkhoff_sum(f, phi, TorusPoint(float(xs[i]), float(xs[q])), 3)
        assert abs(vals[i, q] - direct) < 1e-11
    ks, mats = fiber_coefficients_on_grid(f, phi, [3], grid=G)
    assert np.array_equal(np.concatenate(list(grid_blocks(phi, mats[3]))),
                          vals)


def test_grid_blocks_hold_whole_rows_of_at_least_two(monkeypatch):
    # a one-row product takes gemv instead of gemm and rounds differently,
    # so a ragged last row joins the block before it
    def rows(G):
        coeffs = np.ones((1, G), dtype=complex)
        blocks = list(grid_blocks(FiberedTrigPoly.constant(1.0), coeffs))
        assert all(b.shape[1] == G for b in blocks)
        return [b.shape[0] for b in blocks]

    assert rows(2048) == [32] * 64
    assert rows(1000) == [65] * 15 + [25]
    assert rows(721) == [90] * 7 + [91]
    assert rows(1) == [1] and rows(33) == [33]
    monkeypatch.setattr(skewshift, "_SWEEP_BLOCK", 64)
    assert rows(33) == [2] * 15 + [3]
    assert rows(20) == [3] * 6 + [2]
    assert rows(3) == [3] and rows(2) == [2]


@pytest.mark.parametrize("real", [False, True])
def test_grid_blocks_read_the_rows_in_ascending_fiber_order(real):
    # fibers given in descending order: phi keeps them ascending, and the
    # rows of coeffs follow phi
    pairs = {(1, k): 0.5 - 0.25j * k for k in (3, 2, -1)}
    pairs.update({(-m, -k): c.conjugate() for (m, k), c in pairs.items()})
    phi = FiberedTrigPoly.from_modes(pairs, real=real)
    rng = np.random.default_rng(4)
    mat = rng.normal(size=(6, 40)) + 1j * rng.normal(size=(6, 40))
    dense = mat.T @ np.exp(2j * np.pi * np.outer(sorted(phi.fiber), midgrid(24)))
    got = np.concatenate(list(grid_blocks(phi, mat, 24)))
    assert np.array_equal(got, dense.real if real else dense)


def test_grid_blocks_y_size_defaults_only_on_none():
    one = FiberedTrigPoly.constant(1.0)
    coeffs = np.ones((1, 4), dtype=complex)
    assert [b.shape for b in grid_blocks(one, coeffs)] == [(4, 4)]
    assert [b.shape for b in grid_blocks(one, coeffs, 3)] == [(4, 3)]
    for y_size in (0, -2):
        with pytest.raises(ValueError, match="y_size must be >= 1"):
            list(grid_blocks(one, coeffs, y_size))


def test_grid_blocks_stream_a_rectangular_lattice():
    # the per-x sups of hitting: 3000 x-rows and 64 y-points, in blocks of
    # 1024 rows, bit for bit as the whole-lattice product gives them
    rng = np.random.default_rng(8)
    ks = np.array([-3, -1, 2, 5])
    phi = FiberedTrigPoly.from_modes({(0, int(k)): 1.0 for k in ks})
    mat = rng.normal(size=(4, 3000)) + 1j * rng.normal(size=(4, 3000))
    blocks = list(grid_blocks(phi, mat, 64))
    assert [b.shape for b in blocks] == [(1024, 64)] * 2 + [(952, 64)]
    sup = np.concatenate([np.abs(b).max(axis=1) for b in blocks])
    ky = np.exp(2j * np.pi * np.outer(ks, midgrid(64)))
    assert np.array_equal(sup, np.abs(mat.T @ ky).max(axis=1))


# ------------------------------------------------------------- decoupling


def test_decoupling_identity():
    # phi_N(f^n p) - phi_N(p) = phi_n(f^N p) - phi_n(p): both are
    # phi_{N+n}(p) - phi_n(p) - phi_N(p), by the cocycle identity
    f = SkewShift(GOLDEN, 0.21)
    osc, _ = project(mixing_example_roof())
    rng = np.random.default_rng(6)
    for _ in range(20):
        n, N = int(rng.integers(1, 1000)), int(rng.integers(1, 1000))
        q = TorusPoint(float(rng.random()), float(rng.random()))
        lhs = birkhoff_sum(f, osc, orbit_exact(f, q, n), N) - birkhoff_sum(
            f, osc, q, N
        )
        rhs = birkhoff_sum(f, osc, orbit_exact(f, q, N), n) - birkhoff_sum(
            f, osc, q, n
        )
        assert abs(lhs - rhs) <= 1e-8


# ---------------------------------------------------------------- stretch


def test_stretch_examples():
    f = SkewShift(GOLDEN, 0.0)
    const = FiberedTrigPoly.constant(5.0)
    assert stretch(f, const, 0.3, (0.0, 1.0), 3) == 0.0

    sin_y = FiberedTrigPoly.from_modes({(0, 1): -0.5j, (0, -1): 0.5j}, real=True)
    assert abs(stretch(f, sin_y, 0.42, (0.0, 1.0), 1) - 2.0) < 1e-9
    assert abs(stretch(f, sin_y, 0.0, (0.0, 1.0), 2) - 4.0) < 1e-9


def test_arc_length_one_convention():
    assert arc_length((0.2, 0.6)) == 0.6 - 0.2
    assert arc_length((0.85, 0.15)) == 0.15 - 0.85 + 1.0     # wraps past 1
    assert arc_length((0.4, 0.4)) == 1.0 and arc_length((0.0, 1.0)) == 1.0
    f = SkewShift(GOLDEN, 0.0)
    for arc in [(-0.5, 0.9), (0.1, 1.5), (math.nan, 0.2)]:
        with pytest.raises(ValueError, match="arc endpoints"):
            arc_length(arc)
        with pytest.raises(ValueError, match="arc endpoints"):
            stretch(f, mixing_example_roof(), 0.3, arc, 5)


def test_stretch_on_subarc_and_derivative_bound():
    f = SkewShift(GOLDEN, 0.13)
    phi = mixing_example_roof()
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = float(rng.random())
        a = float(rng.random())
        b = a + float(rng.uniform(0.1, 0.9))
        n = int(rng.integers(1, 200))
        val = stretch(f, phi, x, (a, b % 1.0), n)
        # bound: stretch <= arc length * sup |d/dy Phi_n| on the arc
        coeffs = fiber_coefficients(f, phi, x, n)
        ks = np.array(sorted(coeffs))
        cs = np.array([coeffs[k] for k in ks])
        ys = a + (b - a) * np.arange(512) / 511
        deriv = (cs * 2j * np.pi * ks) @ np.exp(
            2j * np.pi * ks[:, None] * ys[None, :]
        )
        bound = (b - a) * np.max(np.abs(deriv.real)) + 1e-9
        assert val <= bound * (1 + 1e-6)


def test_stretch_degree8_relative_accuracy():
    # a single fiber polynomial of degree 8 whose extrema are known exactly:
    # g(y) = cos(2 pi 8 y), max - min = 2
    f = SkewShift(GOLDEN, 0.0)
    phi = FiberedTrigPoly.from_modes({(0, 8): 0.5, (0, -8): 0.5}, real=True)
    val = stretch(f, phi, 0.0, (0.0, 1.0), 1)
    assert abs(val - 2.0) / 2.0 <= 1e-12


def _dense_bounds(coeffs, a, length, points=400_000):
    """(low, high) for the oscillation of Re sum_k c_k e(k y) on the arc:
    a scan of ``points`` equal steps h, less 1e-12 for rounding, and that
    scan plus the most its max and min can each miss, sup|g''| (h/2)^2/2."""
    ks = np.array(sorted(coeffs))
    cs = np.array([coeffs[k] for k in ks])
    ys = a + length * np.arange(points + 1) / points
    vals = (cs[:, None] * np.exp(2j * np.pi * ks[:, None] * ys)).sum(0).real
    dense = float(vals.max() - vals.min())
    h = length / points
    curvature = 4 * np.pi**2 * float(np.sum(ks**2 * np.abs(cs)))
    return dense - 1e-12, dense + h**2 / 4 * curvature


def test_stretch_finds_extremes_a_grid_scan_misses():
    # cos(2 pi 180 y) - sin(2 pi 173 y): a 256-point scan, even refined
    # around its local extrema, reads 3.99359; the oscillation is 3.9999208
    f = SkewShift(GOLDEN, 0.2)
    modes = {(0, 180): 0.5, (0, -180): 0.5, (0, 173): 0.5j, (0, -173): -0.5j}
    phi = FiberedTrigPoly.from_modes(modes, real=True)
    low, high = _dense_bounds(fiber_coefficients(f, phi, 0.3, 1), 0.0, 1.0)
    assert low <= stretch(f, phi, 0.3, (0.0, 1.0), 1) <= high


def test_stretch_of_complex_roofs_on_subarcs():
    rng = np.random.default_rng(11)
    f = SkewShift(GOLDEN, 0.13)
    for _ in range(8):
        modes = {
            (int(rng.integers(-3, 4)), int(rng.integers(-6, 7))):
                complex(*rng.normal(size=2))
            for _ in range(4)
        }
        phi = FiberedTrigPoly.from_modes(modes)
        x, a, b = rng.random(3).tolist()
        n = int(rng.integers(1, 20))
        val = stretch(f, phi, x, (a, b), n)
        coeffs = fiber_coefficients(f, phi, x, n)
        low, high = _dense_bounds(coeffs, a, arc_length((a, b)))
        assert low <= val <= high


# ---------------------------------------------------------------- sublevel


def test_sublevel_examples():
    est = sublevel_measure(np.zeros(128), 1.0)
    assert est.value == 1.0 and est.error == 0.0

    f = SkewShift(GOLDEN, 0.0)
    const = FiberedTrigPoly.constant(1.0)
    p3 = birkhoff_grid(f, const, 3, 64)       # the constant 3
    est = sublevel_measure(p3, 2.0)
    assert est.value == 0.0

    sin_y = TrigPoly1D({1: -0.5j, -1: 0.5j}, real=True)
    est = sublevel_measure(sin_y.evaluate(midgrid(4096)), 0.5)
    assert abs(est.value - 1.0 / 3.0) <= est.error + 1e-3
    assert est.error < 0.01


# one block, ragged last blocks (1000, 1601), a one-row tail joined to the
# block before it (1601), whole blocks (2048)
_GRIDS = [1, 7, 31, 32, 33, 1000, 1601, 2048]
_GRID_MODE = st.tuples(
    st.integers(-3, 3),
    st.integers(-4, 4),
    st.floats(-1.0, 1.0, allow_subnormal=False),
    st.floats(-1.0, 1.0, allow_subnormal=False),
)


@pytest.mark.parametrize("grid", _GRIDS)
@settings(max_examples=6)
@given(
    modes=st.lists(_GRID_MODE, min_size=1, max_size=5),
    real=st.booleans(),
    n=st.integers(1, 300),
    picks=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=2),
)
def test_streamed_grid_matches_dense_oracle(grid, modes, real, n, picks):
    # blocks, sublevel estimates and sups from the row-blocked stream are
    # those of the whole lattice bit for bit; every level equals a grid
    # value, so the strict < decides the counts
    coeffs = {}
    for m, k, re, im in modes:
        c = complex(re, im)
        if real and (m, k) == (0, 0):
            c = complex(re)
        elif real:
            coeffs[(-m, -k)] = c.conjugate()
        coeffs[(m, k)] = c
    phi = FiberedTrigPoly.from_modes(coeffs, real=real)
    f = SkewShift(GOLDEN, 0.3)
    ks, mats = fiber_coefficients_on_grid(f, phi, [n], grid=grid)

    def blocks(poly=phi):
        return grid_blocks(poly, mats[n])

    dense = birkhoff_grid(f, phi, n, grid)
    assert np.array_equal(np.concatenate(list(blocks())), dense)
    mag = np.abs(dense).ravel()
    levels = [float(mag[p % mag.size]) for p in picks if mag[p % mag.size] > 0]
    levels = levels or [1.0]
    assert sublevel_measures(blocks(), levels) == [
        sublevel_measure(dense, C) for C in levels
    ]
    sup = grid_sup(blocks())
    assert sup == float(np.max(np.abs(dense)))
    if sup > 0:
        scaled = np.abs(dense / sup)
        deltas = [float(scaled.ravel()[p % mag.size]) for p in picks]
        deltas = [d for d in deltas if d > 0] or [0.5]
        got = sublevel_measures((v / sup for v in blocks()), deltas)
        assert got == [sublevel_measure(scaled, d) for d in deltas]
    # the modulus of the complex values, as a complex roof's sup takes it
    ky = np.exp(2j * np.pi * np.outer(ks, midgrid(grid)))
    complex_phi = FiberedTrigPoly(phi.fiber, real=False)
    assert grid_sup(blocks(complex_phi)) == float(np.abs(mats[n].T @ ky).max())


@pytest.mark.parametrize("threads", ["1", "2"])
def test_streamed_grid_matches_dense_oracle_at_blas_threads(threads):
    # OpenBLAS fixes its thread count when it loads, so the properties run
    # again in a fresh process: the streamed lattice, and the certificate
    # that certify_roof takes from it
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    path = os.pathsep.join(
        p for p in (here, src, os.environ.get("PYTHONPATH")) if p
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
    code = ("import test_skewshift as t, test_specialflow as s\n"
            "for grid in t._GRIDS:\n"
            "    t.test_streamed_grid_matches_dense_oracle(grid=grid)\n"
            "s.test_certify_matches_dense_grid_on_random_roofs()\n")
    subprocess.run([sys.executable, "-c", code], env=env, cwd=here, check=True)


def test_sublevel_measures_wrap_across_blocks():
    # a band of rows at each edge of the torus: the x-flips sit at block
    # boundaries and at the wrap from the last row to the first
    G = 40
    vals = np.zeros((G, G))
    vals[:3] = vals[-5:] = 5.0
    vals[17, 4:9] = 5.0
    blocks = [vals[i : i + 6] for i in range(0, G, 6)]
    for C in (1.0, 5.0, 6.0):
        assert sublevel_measures(blocks, [C])[0] == sublevel_measure(vals, C)
    with pytest.raises(ValueError):
        sublevel_measures(blocks, [0.0])
    with pytest.raises(ValueError):
        sublevel_measures([], [1.0])


def test_sublevel_measure_preservation_surrogate():
    f = SkewShift(GOLDEN, 0.29)
    g = FiberedTrigPoly.from_modes(
        {(1, 1): 0.4, (-1, -1): 0.4, (0, 2): -0.3j, (0, -2): 0.3j}, real=True
    )
    comp = g.compose_skew(f.alpha, f.beta)
    xs = midgrid(512)
    for C in (0.2, 0.5, 1.0):
        X, Y = xs[:, None], xs[None, :]
        a = sublevel_measure(dense_evaluate_complex(g, X, Y), C)
        b = sublevel_measure(dense_evaluate_complex(comp, X, Y), C)
        assert abs(a.value - b.value) <= 2 * (a.error + b.error) + 1e-12


# ----------------------------------------------------------- visit fraction


def test_visit_fraction_trivial_cases():
    f = SkewShift(GOLDEN, 0.0)
    const = FiberedTrigPoly.constant(1.0)
    p = TorusPoint(0.2, 0.6)
    assert visit_fraction(f, const, p, 0.5, 100) == 1.0
    phi = mixing_example_roof()
    assert visit_fraction(f, phi, p, 2.0, 1) == 1.0


@pytest.mark.parametrize("n", [2 ** 40 + 1, 2 ** 63 - 1, 10 ** 20,
                               pytest.param(10 ** 400, id="10**400"),
                               np.int64(2 ** 41)])
def test_orbit_lengths_past_max_steps_raise(n):
    f = SkewShift(GOLDEN, 0.0)
    phi = mixing_example_roof()
    p = TorusPoint(0.2, 0.6)
    with pytest.raises(ValueError, match="out of range"):
        visit_fraction(f, phi, p, 2.0, n)
    with pytest.raises(ValueError, match="out of range"):
        birkhoff_sum(f, phi, p, n)
    with pytest.raises(ValueError, match="out of range"):
        fiber_coefficients(f, phi, 0.2, n)


def test_visit_fraction_against_direct_iteration():
    f = SkewShift(GOLDEN, 0.0)
    phi = mixing_example_roof()
    p = TorusPoint(0.1, 0.2)
    C = 2.0
    N = 400
    count = 0
    acc = 0.0
    x, y = p.x, p.y
    for n in range(N):
        if abs(acc) < C:
            count += 1
        acc += math.sin(2 * math.pi * y)
        x, y = (x + f.alpha) % 1, (y + x + f.beta) % 1
    got = visit_fraction(f, phi, p, C, N)
    assert got == count / N


def test_visit_fraction_across_orbit_blocks_against_exact_iteration():
    # N passes the 2^16-step block; the oracle steps the map on exact
    # rationals, one point at a time, and sums in plain floats
    f = SkewShift(GOLDEN, 0.0)
    phi = mixing_example_roof()
    p = TorusPoint(0.1, 0.2)
    C, N = 2.0, 70_000
    a, b = Fraction(f.alpha), Fraction(f.beta)
    x, y = Fraction(p.x), Fraction(p.y)
    count = 0
    acc = 0.0
    for n in range(N):
        assert abs(abs(acc) - C) > 1e-9     # no count hangs on a rounding
        if abs(acc) < C:
            count += 1
        acc += math.sin(2 * math.pi * float(y))
        x, y = (x + a) % 1, (y + x + b) % 1
    assert visit_fraction(f, phi, p, C, N) == count / N


def test_orbit_walk_in_held_buffers_equals_fresh_blocks(monkeypatch):
    # at 64-step blocks a 200-step walk overwrites its buffers three times;
    # each caller reduces a block before the next, as from fresh arrays
    monkeypatch.setattr(skewshift, "_SWEEP_BLOCK", 64)
    f = SkewShift(GOLDEN, 0.3)
    phi = FiberedTrigPoly.from_modes(
        {(1, 1): 0.3 - 0.2j, (-1, -1): 0.3 + 0.2j, (0, 2): 0.25j, (0, -2): -0.25j,
         (2, 0): 0.1, (-2, 0): 0.1},
        real=True,
    )
    p, n, C = TorusPoint(0.377, 0.61), 200, 0.5

    def blocks(poly, y):
        phases = PhaseNumerators(f.alpha, f.beta, p.x, y)
        return [poly.at(phases, np.arange(j0, min(n, j0 + 64)))[0]
                for j0 in range(0, n, 64)]

    acc = 0.0
    for vals in blocks(phi, p.y):
        acc += np.sum(vals)
    assert birkhoff_sum(f, phi, p, n) == acc

    want = {}
    for k, c in phi.fiber.items():
        want[k] = 0.0j
        for vals in blocks(FiberedTrigPoly({k: c}), 0.0):
            want[k] = want[k] + np.sum(vals)
    assert fiber_coefficients(f, phi, p.x, n) == want

    count, acc = 0, 0.0
    for vals in blocks(project(phi)[0], p.y):
        sums = np.cumsum(np.concatenate(([acc], vals)))
        count += int(np.count_nonzero(np.abs(sums[:-1]) < C))
        acc = sums[-1]
    assert 0 < count < n
    assert visit_fraction(f, phi, p, C, n) == count / n


# frozen from the direct-iteration oracle at development time
FROZEN_VISIT_100 = 0.15
FROZEN_VISIT_10000 = 0.046


def test_visit_fraction_decays_for_mixing_roof():
    # frozen regression: the fraction of small Birkhoff values shrinks
    f = SkewShift(GOLDEN, 0.0)
    phi = mixing_example_roof()
    p = TorusPoint(0.1, 0.2)
    v100 = visit_fraction(f, phi, p, 2.0, 100)
    v10000 = visit_fraction(f, phi, p, 2.0, 10_000)
    assert v10000 < v100
    assert v100 == pytest.approx(FROZEN_VISIT_100, abs=1e-12)
    assert v10000 == pytest.approx(FROZEN_VISIT_10000, abs=1e-12)


# ------------------------------------------------------------ rotation transfer


def test_rotation_transfer_examples():
    g, mean = rotation_transfer(TrigPoly1D.constant(3.0), GOLDEN)
    assert g.is_zero() and mean == 3.0

    cos_x = TrigPoly1D({1: 0.5, -1: 0.5}, real=True)
    g, mean = rotation_transfer(cos_x, 0.25)
    assert mean == 0.0
    want = complex(-0.25, -0.25)    # 0.5/(i - 1)
    assert abs(g.coeff(1) - want) < 1e-15
    assert abs(g.coeff(-1) - want.conjugate()) < 1e-15

    with pytest.raises(SmallDivisor):
        rotation_transfer(TrigPoly1D({2: 1.0, -2: 1.0}, real=True), 0.5)


def test_rotation_transfer_difference_identity():
    rng = np.random.default_rng(8)
    alpha = GOLDEN
    coeffs = {}
    for m in range(1, 5):
        c = complex(rng.normal(), rng.normal())
        coeffs[m] = c
        coeffs[-m] = c.conjugate()
    coeffs[0] = 1.7
    perp = TrigPoly1D(coeffs, real=True)
    g, mean = rotation_transfer(perp, alpha)
    xs = midgrid(256)
    lhs = g.evaluate(np.asarray((xs + alpha) % 1.0)) - g.evaluate(xs)
    rhs = perp.evaluate(xs) - mean
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


# -------------------------------------------------------- derivative identity


def test_birkhoff_y_derivative_commutes():
    f = SkewShift(GOLDEN, 0.41)
    phi = FiberedTrigPoly.from_modes(
        {(1, 1): 0.3, (-1, -1): 0.3, (0, 2): 0.1j, (0, -2): -0.1j, (3, 0): 0.2,
         (-3, 0): 0.2},
        real=True,
    )
    x = 0.3
    n = 40
    coeffs = fiber_coefficients(f, phi, x, n)
    h = 1e-5
    for y in (0.12, 0.48, 0.9):
        dval = sum(
            (2j * np.pi * k * c * np.exp(2j * np.pi * k * y)).real
            for k, c in coeffs.items()
        )
        plus = birkhoff_sum(f, phi, TorusPoint(x, y + h), n)
        minus = birkhoff_sum(f, phi, TorusPoint(x, y - h), n)
        fd = (plus - minus) / (2 * h)
        assert abs(dval - fd) <= 1e-5 * max(1.0, abs(dval))


# ------------------------------------------------------------- coboundaries


def test_skew_coboundary_telescopes():
    f = SkewShift(GOLDEN, 0.25)
    u = FiberedTrigPoly.from_modes({(0, 1): -0.5j, (0, -1): 0.5j}, real=True)
    phi = skew_coboundary(u, f)
    p = TorusPoint(0.3, 0.7)
    for n in (1, 10, 500):
        total = birkhoff_sum(f, phi, p, n)
        q = orbit_exact(f, p, n)
        direct = u.evaluate(q.x, q.y) - u.evaluate(p.x, p.y)
        assert abs(total - direct) < 1e-10


# ----------------------------------------------------------------- roof files


def test_roof_json_round_trip(tmp_path):
    from mixlab.skewshift import load_roof, save_roof

    f = SkewShift(GOLDEN, 0.25)
    phi = coboundary_roof(0.25, const=3.0)
    path = tmp_path / "roof.json"
    save_roof(path, f, phi)
    f2, phi2 = load_roof(path)
    assert f2.alpha == f.alpha and f2.beta == f.beta
    assert phi2.real
    assert set(phi2.fiber) == set(phi.fiber)
    for k in phi.fiber:
        assert phi2.c(k).coeffs == phi.c(k).coeffs


def test_roof_json_rejects_bad_documents(tmp_path):
    import json as _json

    from mixlab.errors import InvalidRoofFile
    from mixlab.skewshift import roof_from_dict

    good = {
        "alpha": 0.3, "beta": 0.0, "degree_y": 1, "real": True,
        "coeffs": [
            {"k": 1, "m": 0, "re": 0.0, "im": -0.5},
            {"k": -1, "m": 0, "re": 0.0, "im": 0.5},
        ],
    }
    roof_from_dict(_json.loads(_json.dumps(good)))
    # a JSON integer is a valid value of a float field
    f, phi = roof_from_dict(dict(good, beta=0, coeffs=[
        {"k": 1, "m": 0, "re": 0, "im": -0.5},
        {"k": -1, "m": 0, "re": 0, "im": 0.5},
    ]))
    assert f.beta == 0.0 and phi.c(1).coeff(0) == -0.5j

    # realness violation
    bad = dict(good)
    bad["coeffs"] = [{"k": 1, "m": 0, "re": 1.0, "im": 0.0}]
    with pytest.raises(InvalidRoofFile):
        roof_from_dict(bad)
    # unknown key
    bad = dict(good)
    bad["extra"] = 1
    with pytest.raises(InvalidRoofFile):
        roof_from_dict(bad)
    # degree mismatch
    bad = dict(good)
    bad["degree_y"] = 0
    with pytest.raises(InvalidRoofFile):
        roof_from_dict(bad)
    # duplicate mode
    bad = dict(good)
    bad["coeffs"] = good["coeffs"] + [{"k": 1, "m": 0, "re": 0.0, "im": -0.5}]
    with pytest.raises(InvalidRoofFile):
        roof_from_dict(bad)
    # missing key
    bad = {k: v for k, v in good.items() if k != "beta"}
    with pytest.raises(InvalidRoofFile):
        roof_from_dict(bad)
    # a JSON list, an entry without "im", and an integer past the float range
    with pytest.raises(InvalidRoofFile, match="must be a JSON object"):
        roof_from_dict([good])
    with pytest.raises(InvalidRoofFile, match="bad coefficient entry"):
        roof_from_dict(dict(good, coeffs=[{"k": 0, "m": 0, "re": 1.0}]))
    huge = [{"k": 0, "m": 0, "re": 10 ** 400, "im": 0.0}]
    with pytest.raises(InvalidRoofFile, match="is not a finite number"):
        roof_from_dict(dict(good, coeffs=huge))


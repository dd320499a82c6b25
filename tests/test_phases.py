"""Exact mod-1 phase arithmetic."""

import math
from fractions import Fraction

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from mixlab.phases import PhaseNumerators, binom2, frac, frac_exact


def test_frac_corner_cases():
    assert frac(0.0) == 0.0
    assert frac(1.0) == 0.0
    assert frac(-1e-18) == 0.0          # would round to 1.0 under plain %
    assert 0.0 <= frac(-0.3) < 1.0
    assert math.isclose(frac(-0.3), 0.7)


def test_frac_exact_matches_fraction_arithmetic():
    rng = np.random.default_rng(7)
    for _ in range(200):
        k1, k2 = int(rng.integers(-10**9, 10**9)), int(rng.integers(0, 10**12))
        v1, v2 = float(rng.random()), float(rng.random())
        want = float((k1 * Fraction(v1) + k2 * Fraction(v2)) % 1)
        got = frac_exact([(k1, v1), (k2, v2)])
        assert got == want


def test_binom2_negative_indices():
    assert binom2(0) == 0
    assert binom2(1) == 0
    assert binom2(2) == 1
    assert binom2(5) == 10
    assert binom2(-1) == 1
    assert binom2(-3) == 6


# alpha, beta, x, y in [0, 1); tiny values push the common denominator
# past 2^64
_unit = st.floats(0.0, 1.0, exclude_max=True)
_unit_or_tiny = st.one_of(_unit, st.floats(1e-30, 1e-5))


@given(alpha=_unit, beta=_unit_or_tiny,
       m=st.integers(-64, 64), k=st.integers(-8, 8),
       js=st.lists(st.integers(0, 2 ** 62), min_size=1, max_size=8))
def test_phase_numerators_match_fractions(alpha, beta, m, k, js):
    ph = PhaseNumerators(alpha, beta)
    assert (ph.dtype == np.uint64) == (ph.k <= 64)
    ja, s = ph.linear_quadratic(np.array(js, dtype=np.int64))
    num = ph.mode(ja, s, m, k)
    unit = ph.to_unit(num)
    a, b = Fraction(alpha), Fraction(beta)
    for i, j in enumerate(js):
        want = (m * j * a + k * (j * b + binom2(j) * a)) % 1
        assert Fraction(int(num[i]), 2 ** ph.k) == want
        assert unit[i] == float(want)



@given(alpha=_unit, beta=_unit_or_tiny, x=_unit_or_tiny, y=_unit,
       js=st.lists(st.integers(0, 2 ** 62), min_size=1, max_size=8))
def test_phase_numerators_orbit_matches_fractions(alpha, beta, x, y, js):
    ph = PhaseNumerators(alpha, beta, x, y)
    assert (ph.dtype == np.uint64) == (ph.k <= 64)
    xs, ys = ph.orbit(np.array(js, dtype=np.int64))
    ux, uy = ph.to_unit(xs), ph.to_unit(ys)
    a, b, x0, y0 = Fraction(alpha), Fraction(beta), Fraction(x), Fraction(y)
    for i, j in enumerate(js):
        want_x = (x0 + j * a) % 1
        want_y = (y0 + j * x0 + j * b + binom2(j) * a) % 1
        assert Fraction(int(xs[i]), 2 ** ph.k) == want_x
        assert Fraction(int(ys[i]), 2 ** ph.k) == want_y
        assert (ux[i], uy[i]) == (float(want_x), float(want_y))



@given(alpha=_unit, beta=_unit_or_tiny,
       pts=st.lists(st.tuples(_unit_or_tiny, _unit), min_size=1, max_size=6),
       js=st.lists(st.integers(-2 ** 62, 2 ** 62), min_size=1, max_size=6))
def test_lane_orbits_match_fractions(alpha, beta, pts, js):
    # many base points share one K; a column of steps gives (B, L), one
    # step per lane gives (1, L), negative steps the backward orbit
    xs, ys = np.array(pts).T
    ph = PhaseNumerators(alpha, beta, xs, ys)
    assert (ph.dtype == np.uint64) == (ph.k <= 64)
    a, b = Fraction(alpha), Fraction(beta)

    def want(x, y, j):
        x0, y0 = Fraction(x), Fraction(y)
        return (x0 + j * a) % 1, (y0 + j * x0 + j * b + binom2(j) * a) % 1

    block = np.array(js, dtype=np.int64)[:, None]
    bx, by = ph.orbit(block)
    assert bx.shape == by.shape == (len(js), len(pts))
    ux, uy = ph.to_unit(bx), ph.to_unit(by)
    for r, j in enumerate(js):
        for c, (x, y) in enumerate(pts):
            wx, wy = want(x, y, j)
            assert Fraction(int(bx[r, c]), 2 ** ph.k) == wx
            assert Fraction(int(by[r, c]), 2 ** ph.k) == wy
            assert (ux[r, c], uy[r, c]) == (float(wx), float(wy))
    per_lane = np.resize(np.array(js, dtype=np.int64), len(pts))
    lx, ly = ph.orbit(per_lane)
    assert lx.shape == (1, len(pts))
    for c, (x, y) in enumerate(pts):
        wx, wy = want(x, y, int(per_lane[c]))
        assert Fraction(int(lx[0, c]), 2 ** ph.k) == wx
        assert Fraction(int(ly[0, c]), 2 ** ph.k) == wy


def test_square_lane_block_keeps_its_axes():
    # B == L: a block of steps and one step per lane must not be confused
    rng = np.random.default_rng(3)
    xs, ys = rng.random(4), rng.random(4)
    ph = PhaseNumerators(0.6180339887498949, 0.25, xs, ys)
    js = np.array([0, 1, 2, 3], dtype=np.int64)
    bx, _ = ph.orbit(js[:, None])
    lx, _ = ph.orbit(js)
    assert bx.shape == (4, 4) and lx.shape == (1, 4)
    assert np.array_equal(np.diag(bx), lx[0])
    assert np.array_equal(ph.to_unit(bx[0]), xs)       # step 0 of every lane

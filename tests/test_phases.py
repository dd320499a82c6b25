"""Exact mod-1 phase arithmetic."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import binom2, frac_exact, theta_exact
from mixlab.cohomology import (
    ComponentSpectrum,
    OrbitLabel,
    _theta_phases,
    evaluate_distribution,
)
from mixlab.errors import SmallDivisor
from mixlab.phases import PhaseNumerators, frac
from mixlab.skewshift import SkewShift, TorusPoint, birkhoff_sum, rotation_transfer
from mixlab.trigpoly import FiberedTrigPoly, TrigPoly1D


def test_frac_corner_cases():
    assert frac(0.0) == 0.0
    assert frac(1.0) == 0.0
    assert frac(-1e-18) == 0.0          # would round to 1.0 under plain %
    assert 0.0 <= frac(-0.3) < 1.0
    assert math.isclose(frac(-0.3), 0.7)


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
    xs, ys = (v[0] for v in ph.orbit(np.array(js, dtype=np.int64)))  # (1, B)
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


@given(alpha=_unit, beta=_unit_or_tiny,
       pts=st.lists(st.tuples(_unit_or_tiny, _unit), min_size=1, max_size=6),
       shifts=st.lists(st.integers(-2 ** 61, 2 ** 61), min_size=6, max_size=6),
       js=st.lists(st.integers(-2 ** 61, 2 ** 61), min_size=1, max_size=6))
def test_moved_lanes_continue_the_orbit(alpha, beta, pts, shifts, js):
    # the orbit from f^n of each base point is the orbit shifted by n, in
    # the same integers
    xs, ys = np.array(pts).T
    ph = PhaseNumerators(alpha, beta, xs, ys)
    n = np.array(shifts[: len(pts)], dtype=np.int64)
    block = np.array(js, dtype=np.int64)[:, None]
    mx, my = ph.moved(n).orbit(block)
    wx, wy = ph.orbit(block + n)
    assert np.array_equal(mx, wx) and np.array_equal(my, wy)


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


def test_scalar_base_point_is_one_lane():
    # a scalar base point is stored as one lane, so its numerators wrap
    # mod 2^64 silently, as arrays do, and not with a scalar-overflow
    # warning (the suite turns that into an error)
    ph = PhaseNumerators(0.1, 0.2, 0.3, 0.7)
    j = 12345
    xn, yn = ph.orbit(j)
    assert xn.shape == yn.shape == (1, 1)
    a, b, x0, y0 = (Fraction(v) for v in (0.1, 0.2, 0.3, 0.7))
    assert Fraction(int(xn[0, 0]), 2 ** ph.k) == (x0 + j * a) % 1
    assert Fraction(int(yn[0, 0]), 2 ** ph.k) == (
        y0 + j * x0 + j * b + binom2(j) * a) % 1
    val = FiberedTrigPoly.from_modes({(70, 20): 1.0}).at(ph, 0)
    assert val.shape == (1, 1)
    theta = 2.0 * np.pi * frac_exact([(70, 0.3), (20, 0.7)])
    assert val[0, 0] == np.exp(1j * theta)


_GOLDEN = 0.6180339887498949
_JS = [0, 1, -1, 12345, -(2 ** 33) + 1, 2 ** 61 + 7, 2 ** 62, -(2 ** 62)]


@pytest.mark.parametrize("alpha, beta, xs, ys, k, dtype", [
    # within 62 fraction bits: K is 64 all the same, and the numerators
    # of the values in [0.5, 1) pass 2^63
    (_GOLDEN, 0.25, [0.7, 0.1], [0.9, 0.3], 64, np.uint64),
    # 2^-12 + 2^-64 has exactly 64 fraction bits
    (_GOLDEN, 0.75, [2 ** -12 + 2 ** -64, 0.5], [0.9, 0.999], 64, np.uint64),
    # 2^-13 + 2^-65 has 65: Python integers over 2^65
    (_GOLDEN, 2 ** -13 + 2 ** -65, [0.7, 0.1], [0.9, 0.3], 65, object),
])
def test_numerator_width_follows_the_fraction_bits(alpha, beta, xs, ys, k, dtype):
    ph = PhaseNumerators(alpha, beta, xs, ys)
    assert ph.k == k and ph.dtype == dtype
    js = np.array(_JS, dtype=np.int64)
    ja, s = ph.linear_quadratic(js)
    assert ja.dtype == dtype and int(ja[1]) >= 2 ** (k - 1)    # alpha >= 1/2
    bx, by = ph.orbit(js[:, None])
    a, b = Fraction(alpha), Fraction(beta)
    for r, j in enumerate(_JS):
        for m, kk in ((1, 0), (0, 1), (3, -2), (-5, 7)):
            want = (m * j * a + kk * (j * b + binom2(j) * a)) % 1
            num = ph.mode(ja[r : r + 1], s[r : r + 1], m, kk)
            assert Fraction(int(num[0]), 2 ** k) == want
            assert ph.to_unit(num)[0] == float(want)
        for c, (x, y) in enumerate(zip(xs, ys)):
            x0, y0 = Fraction(x), Fraction(y)
            wx = (x0 + j * a) % 1
            wy = (y0 + j * x0 + j * b + binom2(j) * a) % 1
            assert Fraction(int(bx[r, c]), 2 ** k) == wx
            assert Fraction(int(by[r, c]), 2 ** k) == wy
            assert ph.to_unit(bx[r : r + 1, c])[0] == float(wx)
            assert ph.to_unit(by[r : r + 1, c])[0] == float(wy)


def test_non_finite_inputs_raise():
    with pytest.raises(ValueError, match="finite"):
        PhaseNumerators(math.nan, 0.0)
    with pytest.raises(ValueError, match="finite"):
        PhaseNumerators(0.3, 0.1, math.inf, 0.2)
    with pytest.raises(ValueError, match="finite"):
        PhaseNumerators(0.3, 0.1, [0.1, math.nan, 0.5], [0.2, 0.3, 0.4])
    phi = FiberedTrigPoly.from_modes({(0, 1): 0.5, (0, -1): 0.5}, real=True)
    with pytest.raises(ValueError, match="finite"):
        birkhoff_sum(SkewShift(math.nan, 0.0), phi, TorusPoint(0.1, 0.2), 10)
    with pytest.raises(ValueError, match="finite"):
        birkhoff_sum(SkewShift(0.3, 0.0), phi, TorusPoint(math.inf, 0.2), 10)


def _unit_phase(terms) -> complex:
    """e(sum of k*v) from the Fraction reference."""
    return cmath.exp(2j * math.pi * frac_exact(terms))


@example(alpha=0.6180339887498949, beta=1e-5, n=3,
         modes=[(1, 1), (-2, -3), (5, 0), (-7, 0)], js=[-40, -1, 0, 7, 40])
@given(alpha=_unit, beta=_unit_or_tiny, n=st.integers(1, 6),
       modes=st.lists(st.tuples(st.integers(-50, 50), st.integers(-8, 8)),
                      min_size=1, max_size=6, unique=True),
       js=st.lists(st.integers(-40, 40), min_size=1, max_size=8, unique=True))
def test_phase_sites_match_fraction_reference(alpha, beta, n, modes, js):
    # every exact-phase site of the Fourier algebra, bit for bit against
    # the Fraction reference; tiny beta needs a denominator past 2^64
    f = SkewShift(alpha, beta)
    alpha, beta = f.alpha, f.beta

    # compose_skew: mode (m, k) -> (m + k, k) times e(m alpha + k beta),
    # conjugated for the negative half
    comp = FiberedTrigPoly.from_modes(dict.fromkeys(modes, 1.0)).compose_skew(
        alpha, beta)
    for m, k in modes:
        if k < 0 or (k == 0 and m < 0):
            want = _unit_phase([(-m, alpha), (-k, beta)]).conjugate()
        else:
            want = _unit_phase([(m, alpha), (k, beta)])
        assert comp.c(k).coeff(m + k) == want

    # rotation_transfer: g_m = c_m / (e(m alpha) - 1)
    ms = sorted({m for m, _ in modes} - {0})
    divs = {}
    for m in ms:
        w = _unit_phase([(abs(m), alpha)])
        divs[m] = (w if m > 0 else w.conjugate()) - 1.0
    perp = TrigPoly1D(dict.fromkeys(ms, 1.0))
    if any(abs(d) < 1e-12 for d in divs.values()):
        with pytest.raises(SmallDivisor):
            rotation_transfer(perp, alpha)
    else:
        g, _ = rotation_transfer(perp, alpha)
        assert g.coeffs == {m: complex(1.0) / d for m, d in divs.items()}

    for nn in (n, -n):
        label = OrbitLabel(n - 1, nn)
        S = ComponentSpectrum(label, dict.fromkeys(js, 1.0))
        # compose_map: j -> j + 1 times e((m + j n) alpha + n beta)
        assert S.compose_map(f).coeffs == {
            j + 1: _unit_phase([(label.m + j * nn, alpha), (nn, beta)])
            for j in S.coeffs
        }
        # the block phases theta_j and the functional summed from them
        thetas = [theta_exact(label, f, j) for j in S.coeffs]
        assert _theta_phases(label, f, list(S.coeffs)) == thetas
        total = 0.0 + 0.0j
        for theta in thetas:
            total += complex(1.0) * cmath.exp(-2j * math.pi * theta)
        assert evaluate_distribution(f, S).value == total

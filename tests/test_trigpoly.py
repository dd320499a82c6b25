"""Fourier polynomial value types."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import at_reference, sup_bound
from mixlab.phases import PhaseNumerators
from mixlab.trigpoly import FiberedTrigPoly, TrigPoly1D


def test_evaluate_matches_direct_sum():
    g = TrigPoly1D({1: 0.5 - 0.25j, -1: 0.5 + 0.25j, 3: 0.1 - 0.2j, -3: 0.1 + 0.2j},
                   real=True)
    rng = np.random.default_rng(0)
    for x in rng.random(20):
        direct = sum(
            c * np.exp(2j * np.pi * m * x) for m, c in g.coeffs.items()
        )
        assert abs(g.evaluate(x) - direct.real) < 1e-14


def test_realness_invariant_rejected():
    with pytest.raises(ValueError):
        TrigPoly1D({1: 1.0 + 0.5j, -1: 1.0 + 0.5j}, real=True)
    with pytest.raises(ValueError):
        FiberedTrigPoly.from_modes({(1, 1): 1.0}, real=True)
    # consistent data passes
    FiberedTrigPoly.from_modes({(1, 1): 1.0 + 2j, (-1, -1): 1.0 - 2j}, real=True)


def test_fibers_and_their_modes_iterate_ascending_from_any_input_order():
    # the grid sweep and grid_blocks read the fiber rows in this order
    modes = {(m, k): complex(m, k) + 1.0
             for m in range(-3, 4) for k in range(-2, 3)}
    keys = list(modes)
    random.Random(3).shuffle(keys)
    shuffled = FiberedTrigPoly.from_modes({key: modes[key] for key in keys})
    descending = FiberedTrigPoly(
        {k: TrigPoly1D({m: 1.0 for m in (5, -2, 0)}) for k in (4, 1, -3)}
    )
    for phi in (shuffled, descending, shuffled + descending,
                descending + shuffled, shuffled.scale(2j),
                descending.compose_skew(0.3, 0.1)):
        assert list(phi.fiber) == sorted(phi.fiber)
        for p in phi.fiber.values():
            assert list(p.coeffs) == sorted(p.coeffs)


def test_fibered_evaluate_and_mean():
    # sin(2 pi y) + 2
    phi = FiberedTrigPoly.from_modes(
        {(0, 1): -0.5j, (0, -1): 0.5j, (0, 0): 2.0}, real=True
    )
    ys = np.linspace(0, 1, 13)
    assert np.allclose(phi.evaluate(0.3, ys), np.sin(2 * np.pi * ys) + 2.0,
                       atol=1e-14)
    assert phi.mean() == 2.0
    assert phi.degree_y == 1
    assert phi.max_freq_x == 0


def test_evaluate_is_at_on_float_points():
    rng = np.random.default_rng(11)
    modes = {
        (m, k): complex(*rng.normal(size=2))
        for m in range(-3, 4) for k in range(-2, 3)
    }
    sym = {
        (m, k): 0.5 * (c + modes[(-m, -k)].conjugate())
        for (m, k), c in modes.items()
    }
    # 1e-20 needs a common denominator past 2^64
    xs = np.append(rng.random(6), 1e-20)
    ys, ys7 = rng.random(5), rng.random(7)
    for phi in (FiberedTrigPoly.from_modes(sym, real=True),
                FiberedTrigPoly.from_modes(modes)):

        def at(x, y):
            """``at`` on the one point (x, y), a lane of its own."""
            ph = PhaseNumerators(0.0, 0.0, [x], [y])
            return phi.at(ph, 0)[0, 0]

        v = phi.evaluate(xs[0], ys[0])
        assert isinstance(v, np.generic) and v == at(xs[0], ys[0])
        line = phi.evaluate(xs, ys7)
        assert np.array_equal(line, [at(x, y) for x, y in zip(xs, ys7)])
        lattice = phi.evaluate(xs[:, None], ys[None, :])
        assert lattice.shape == (7, 5) and lattice.dtype == line.dtype
        assert np.array_equal(lattice, [[at(x, y) for y in ys] for x in xs])
        assert (line.dtype == float) == phi.real


def test_algebra_and_norms():
    a = FiberedTrigPoly.from_modes({(1, 1): 1.0, (-1, -1): 1.0}, real=True)
    b = FiberedTrigPoly.from_modes({(1, 1): -1.0, (-1, -1): -1.0}, real=True)
    assert (a + b).is_zero()
    assert math.isclose(a.l2_norm(), math.sqrt(2.0))
    assert math.isclose(sup_bound(a), 2.0)
    assert a.scale(2.0).c(1).coeff(1) == 2.0


def test_compose_skew_pointwise():
    alpha, beta = 0.3137515, 0.271828
    phi = FiberedTrigPoly.from_modes(
        {(2, 1): 0.3 - 0.1j, (-2, -1): 0.3 + 0.1j, (0, 2): 0.25j, (0, -2): -0.25j,
         (1, 0): 0.5, (-1, 0): 0.5},
        real=True,
    )
    comp = phi.compose_skew(alpha, beta)
    assert comp.real
    rng = np.random.default_rng(3)
    for x, y in rng.random((25, 2)):
        direct = phi.evaluate((x + alpha) % 1, (y + x + beta) % 1)
        assert abs(comp.evaluate(x, y) - direct) < 1e-12


@settings(max_examples=40)
@given(beta=st.sampled_from([0.31, 1e-5]),
       real=st.booleans(),
       lanes=st.integers(1, 5),
       js=st.lists(st.integers(-(2 ** 40), 2 ** 40), min_size=1, max_size=6),
       seed=st.integers(0, 2 ** 32 - 1))
def test_at_equals_the_orbit_reference(beta, real, lanes, js, seed):
    # the phase of each mode as a quadratic in j is the same integer as
    # m x_j + k y_j from the orbit point, so every value is bit-equal
    rng = np.random.default_rng(seed)
    modes = {(0, 0): 1.5}
    for m, k in zip(rng.integers(-5, 6, 4), rng.integers(-4, 5, 4)):
        c = complex(*rng.normal(size=2))
        modes[(int(m), int(k))] = c
        if real and (m, k) != (0, 0):
            modes[(-int(m), -int(k))] = c.conjugate()
    if real:
        modes[(0, 0)] = modes[(0, 0)].real
    phi = FiberedTrigPoly.from_modes(modes, real=real)
    ph = PhaseNumerators(0.6180339887498949, beta, rng.random(lanes), rng.random(lanes))
    assert (ph.k > 64) == (beta == 1e-5)
    per_lane = rng.integers(-(2 ** 40), 2 ** 40, lanes)
    for j in (js[0], -abs(js[0]), np.array(js)[:, None], per_lane):
        want = at_reference(phi, ph, j)
        for m, k, _ in phi.independent_modes[1]:
            assert np.array_equal(ph.orbit_mode(j, m, k), ph.mode(*ph.orbit(j), m, k))
        assert np.array_equal(phi.at(ph, j), want)
        # into buffers larger than the values, as a climb tile writes
        out = np.empty(want.shape, want.dtype)
        scratch = (np.empty(want.size + 3, ph.dtype), np.empty(want.size + 3))
        assert phi.at(ph, j, out, scratch) is out
        assert np.array_equal(out, want)

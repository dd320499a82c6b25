"""Fourier polynomial value types."""

import math

import numpy as np
import pytest

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


def test_algebra_and_norms():
    a = FiberedTrigPoly.from_modes({(1, 1): 1.0, (-1, -1): 1.0}, real=True)
    b = FiberedTrigPoly.from_modes({(1, 1): -1.0, (-1, -1): -1.0}, real=True)
    assert (a + b).is_zero()
    assert math.isclose(a.l2_norm(), math.sqrt(2.0))
    assert math.isclose(a.sup_bound(), 2.0)
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

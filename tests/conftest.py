"""Shared fixtures and helper oracles for the test suite."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from mixlab.skewshift import TorusPoint
from mixlab.trigpoly import FiberedTrigPoly

# Property tests draw their examples from a fixed seed and keep no example
# database, so every run of the suite checks the same cases.
settings.register_profile("mixlab", derandomize=True, database=None, deadline=None)
settings.load_profile("mixlab")

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def circle_dist(a: float, b: float) -> float:
    """Distance on R/Z."""
    d = abs(a - b) % 1.0
    return min(d, 1.0 - d)


def mixing_example_roof() -> FiberedTrigPoly:
    """sin(2 pi y) + 2."""
    return FiberedTrigPoly.from_modes(
        {(0, 1): -0.5j, (0, -1): 0.5j, (0, 0): 2.0}, real=True
    )


def coboundary_roof(beta: float, const: float = 3.0) -> FiberedTrigPoly:
    """const + Re(e^{2 pi i beta} e_{1,1} - e_{0,1}).

    Equals u(f(x,y)) - u(x,y) + const for u = cos(2 pi y) and any skew
    shift with this beta.
    """
    w = np.exp(2j * np.pi * beta)
    return FiberedTrigPoly.from_modes(
        {
            (1, 1): 0.5 * w,
            (-1, -1): 0.5 * np.conj(w),
            (0, 1): -0.5,
            (0, -1): -0.5,
            (0, 0): const,
        },
        real=True,
    )


def skew_apply(alpha, beta, x, y):
    return (x + alpha) % 1.0, (y + x + beta) % 1.0


def orbit_exact(f, p: TorusPoint, j: int) -> TorusPoint:
    """f^j(p) by the closed form on exact rationals, each coordinate
    rounded once; j of either sign.  Independent of the library's integer
    phase arithmetic."""
    a, b = Fraction(f.alpha), Fraction(f.beta)
    x, y = Fraction(p.x), Fraction(p.y)
    return TorusPoint(
        float((x + j * a) % 1),
        float((y + j * x + j * b + j * (j - 1) // 2 * a) % 1),
    )


def birkhoff_oracle(alpha, beta, fn, x, y, n):
    """Direct float iteration of sum_{j<n} fn(x_j, y_j); independent of
    the library's phase accumulation."""
    total = 0.0
    for _ in range(n):
        total += fn(x, y)
        x, y = skew_apply(alpha, beta, x, y)
    return total


@pytest.fixture
def golden():
    return GOLDEN


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)

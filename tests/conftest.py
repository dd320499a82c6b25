"""Shared fixtures and helper oracles for the test suite."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import settings

from mixlab.heisenberg import SectionReturn, nilflow_at, section_point
from mixlab.skewshift import (
    SublevelEstimate,
    TorusPoint,
    fiber_coefficients_on_grid,
    midgrid,
)
from mixlab.specialflow import _CERTIFY_BUDGET
from mixlab.trigpoly import FiberedTrigPoly

# Property tests draw their examples from a fixed seed and keep no example
# database, so every run of the suite checks the same cases.
settings.register_profile("mixlab", derandomize=True, database=None, deadline=None)
settings.load_profile("mixlab")

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def frac_exact(terms) -> float:
    """(sum of k*v) mod 1 for integer k and float v, in exact rationals,
    rounded once: the reference of the library's integer phase numerators."""
    total = Fraction(0)
    for k, v in terms:
        total += k * Fraction(v)
    return float(total % 1)


def theta_exact(label, f, j: int) -> float:
    """theta_j mod 1 of the block ``label`` of f, from ``frac_exact``:
    alpha (m j + n binom(j, 2)) + beta (n j)."""
    return frac_exact([
        (label.m * j + label.n * (j * (j - 1) // 2), f.alpha),
        (label.n * j, f.beta),
    ])


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


def birkhoff_grid(f, phi: FiberedTrigPoly, n: int, grid: int) -> np.ndarray:
    """Phi_n on the whole grid x grid midpoint lattice in one product;
    out[i, q] = Phi_n(x_i, y_q).  The dense oracle of
    ``skewshift.grid_blocks``."""
    ks, mats = fiber_coefficients_on_grid(f, phi, [n], grid=grid)
    ys = midgrid(grid)
    ky = np.exp(2j * np.pi * np.outer(ks, ys))
    vals = mats[n].T @ ky
    return vals.real if phi.real else vals


def sublevel_measure(samples: np.ndarray, C: float) -> SublevelEstimate:
    """Fraction of the torus (or circle) where |g| < C, midpoint rule, from
    the samples of g on a whole 1-D or 2-D midpoint grid, with the count
    of level-set flips between neighbours as the error.  The dense oracle
    of ``skewshift.sublevel_measures``."""
    if C <= 0:
        raise ValueError("C must be > 0")
    ind = np.abs(samples) < C
    total = ind.size
    inside = int(np.count_nonzero(ind))
    if ind.ndim == 1:
        flips = int(np.count_nonzero(ind != np.roll(ind, 1)))
    elif ind.ndim == 2:
        flips = int(np.count_nonzero(ind != np.roll(ind, 1, axis=0))) + int(
            np.count_nonzero(ind != np.roll(ind, 1, axis=1))
        )
    else:
        raise ValueError("samples must be 1-D or 2-D")
    return SublevelEstimate(inside / total, flips / total, int(ind.shape[0]))


def dense_certify_bounds(phi: FiberedTrigPoly, slack_target: float = 1e-3,
                         stride: int = 1):
    """(certified_min, certified_max, slack) of ``certify_roof`` from every
    row of its grid: the same grid sizing, every value evaluated.  With
    ``stride`` only every stride-th y-row is evaluated."""
    lip_x = 2.0 * math.pi * sum(abs(m) * abs(c) for m, _, c in phi.modes())
    lip_y = 2.0 * math.pi * sum(abs(k) * abs(c) for _, k, c in phi.modes())
    floor_x = max(16, 8 * phi.max_freq_x)
    floor_y = max(16, 8 * phi.degree_y)

    def grids(target):
        gx = max(floor_x, math.ceil(lip_x / target))
        gy = max(floor_y, math.ceil(lip_y / target))
        return gx, gy

    target = slack_target
    gx, gy = grids(target)
    while gx * gy > _CERTIFY_BUDGET:
        target *= 2.0
        gx, gy = grids(target)
    xs = midgrid(gx)
    ks = sorted(phi.fiber.keys())
    coeff = np.array([phi.c(k).evaluate_complex(xs) for k in ks])
    ys = midgrid(gy)[::stride]
    lo, hi = math.inf, -math.inf
    chunk = max(1, min(ys.size, int(2 ** 22 // max(gx, 1)) + 1))
    for start in range(0, ys.size, chunk):
        phase = np.exp(2j * np.pi * np.outer(ks, ys[start : start + chunk]))
        vals = (coeff.T @ phase).real
        lo = min(lo, float(vals.min()))
        hi = max(hi, float(vals.max()))
    slack = lip_x / (2.0 * gx) + lip_y / (2.0 * gy)
    return lo - slack, hi + slack, slack


def bisect_return_per_point(w, x, z, lattice, time_tol=1e-12) -> SectionReturn:
    """Section return of one point by marching and bisecting its own
    y-crossing with full ``nilflow_at`` steps; no step uses the fact that
    the crossing time is the same for every point."""
    start = section_point(x, z, lattice)
    dt = math.copysign(0.25 / abs(w.w_y), w.w_y)

    def ycoord(t):
        return nilflow_at(start, w, t).g.y

    t_prev, y_prev, t_cur = 0.0, 0.0, dt
    for _ in range(8):
        y_cur = ycoord(t_cur)
        if y_cur < y_prev - 0.5:
            break
        t_prev, y_prev = t_cur, y_cur
        t_cur += dt
    else:
        raise AssertionError("section crossing not bracketed")
    lo, hi = t_prev, t_cur
    while abs(hi - lo) > time_tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if ycoord(mid) < 0.5:
            hi = mid
        else:
            lo = mid
    landed = nilflow_at(start, w, hi).g
    return SectionReturn(landed.x, landed.z, hi)


@pytest.fixture
def golden():
    return GOLDEN


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)

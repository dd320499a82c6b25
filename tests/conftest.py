"""Shared fixtures and helper oracles for the test suite."""

import math
from fractions import Fraction
from typing import Callable

import numpy as np
import pytest
from hypothesis import settings

from mixlab.cohomology import ComponentSpectrum
from mixlab.errors import DegenerateSection, MixlabError
from mixlab.heisenberg import (
    AlgebraVector,
    HeisenbergElement,
    Lattice,
    NilPoint,
    SectionReturn,
    nilflow_at,
    section_point,
)
from mixlab.skewshift import (
    SublevelEstimate,
    TorusPoint,
    fiber_coefficients_on_grid,
    grid_blocks,
    midgrid,
)
from mixlab.specialflow import _CERTIFY_BUDGET
from mixlab.trigpoly import FiberedTrigPoly

# Property tests draw their examples from a fixed seed and keep no example
# database, so every run of the suite checks the same cases.
settings.register_profile("mixlab", derandomize=True, database=None, deadline=None)
settings.load_profile("mixlab")

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def binom2(j: int) -> int:
    """j*(j-1)/2 for any integer j, negative indices included."""
    return j * (j - 1) // 2


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
        (label.m * j + label.n * binom2(j), f.alpha),
        (label.n * j, f.beta),
    ])


def at_reference(phi: FiberedTrigPoly, ph, j) -> np.ndarray:
    """``phi.at(ph, j)`` the long way: the orbit numerators (x_j, y_j) of
    every lane first, then m x_j + k y_j of each independent mode from
    them, its unit phase, and one cos or sin (or e(theta)) per mode."""
    xn, yn = ph.orbit(j)
    const, terms = phi.independent_modes
    vals = np.full(xn.shape, const, dtype=float if phi.real else complex)
    for m, k, c in terms:
        theta = 2.0 * np.pi * ph.to_unit(ph.mode(xn, yn, m, k))
        if not phi.real:
            vals += c * np.exp(1j * theta)
            continue
        if c.real:
            vals += c.real * np.cos(theta)
        if c.imag:
            vals -= c.imag * np.sin(theta)
    return vals


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


def dense_evaluate_complex(phi: FiberedTrigPoly, x, y):
    """Complex values of phi at the float points (x, y), broadcast, from a
    float product of one e(k y) per fiber and point: the dense reference
    of ``FiberedTrigPoly.evaluate`` and of lattice evaluation."""
    x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
    out = np.zeros(x.shape, dtype=complex)
    for k, p in phi.fiber.items():
        out += p.evaluate_complex(x) * np.exp(2j * np.pi * k * y)
    return out


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


def sup_bound(phi: FiberedTrigPoly) -> float:
    """sum |c| over the modes: a bound of sup |phi| on the torus."""
    return sum(abs(c) for _, _, c in phi.modes())


def curvature_bounds(phi: FiberedTrigPoly):
    """(M_x, M_y) = (4 pi^2 sum m^2 |c|, 4 pi^2 sum k^2 |c|): the bounds of
    sup |Phi_xx| and sup |Phi_yy| that ``certify_roof`` sizes by."""
    mx = 4.0 * math.pi ** 2 * sum(m * m * abs(c) for m, _, c in phi.modes())
    my = 4.0 * math.pi ** 2 * sum(k * k * abs(c) for _, k, c in phi.modes())
    return mx, my


def lattice_slack(phi: FiberedTrigPoly, gx: int, gy: int) -> float:
    """M_x/(8 gx^2) + M_y/(8 gy^2): how far Phi can fall below the least
    value, or rise above the largest, of the gx x gy midpoint lattice."""
    mx, my = curvature_bounds(phi)
    return mx / (8.0 * gx * gx) + my / (8.0 * gy * gy)


def dense_certify_bounds(phi: FiberedTrigPoly, slack_target: float = 1e-3):
    """(certified_min, certified_max, slack) of ``certify_roof`` from every
    value of its lattice (``certify_grid``), in products of whole x-rows."""
    gx, gy = certify_grid(phi, slack_target)
    xs = midgrid(gx)
    ks = sorted(phi.fiber.keys())
    coeff = np.array([phi.c(k).evaluate_complex(xs) for k in ks])
    phase = np.exp(2j * np.pi * np.outer(ks, midgrid(gy)))
    lo, hi = math.inf, -math.inf
    # whole x-rows over every y-column, at least two rows per product: such
    # products round each value as the whole-lattice product does, while a
    # one-row product goes through gemv and a product of part of the
    # columns may round its trailing columns otherwise
    rows = max(2, 2 ** 22 // phase.shape[1])
    for part in np.array_split(np.arange(gx), max(1, gx // rows)):
        vals = (coeff[:, part].T @ phase).real
        lo = min(lo, float(vals.min()))
        hi = max(hi, float(vals.max()))
    slack = lattice_slack(phi, gx, gy)
    return lo - slack, hi + slack, slack


def sample_block_reference(roof, seed: int, block_index: int, count: int):
    """``count`` samples of the whole normalised invariant measure from the
    Philox stream keyed by (seed, block_index), by rejection against the
    box of height certified_max with a roof value for every draw: the
    reference of ``specialflow._sample_block``, which draws only the points
    in a cube below the roof."""
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, block_index], dtype=np.uint64))
    )
    xs, ys, zs = np.empty(count), np.empty(count), np.empty(count)
    need = np.arange(count)
    while need.size:
        draw = rng.random((need.size, 3))
        x, y, z = draw[:, 0], draw[:, 1], draw[:, 2] * roof.certified_max
        ok = z < roof.phi.evaluate(x, y)
        got = need[ok]
        xs[got], ys[got], zs[got] = x[ok], y[ok], z[ok]
        need = need[~ok]
    return xs, ys, zs


def certify_grid(phi: FiberedTrigPoly, slack_target: float = 1e-3):
    """(gx, gy): the lattice ``certify_roof`` sizes for phi and the target,
    half of the target to each axis."""
    mx, my = curvature_bounds(phi)
    target = slack_target
    while True:
        gx = max(16, 8 * phi.max_freq_x, math.ceil(math.sqrt(mx / (4 * target))))
        gy = max(16, 8 * phi.degree_y, math.ceil(math.sqrt(my / (4 * target))))
        if gx * gy <= _CERTIFY_BUDGET:
            return gx, gy
        target *= 2.0


def lattice_bounds(phi: FiberedTrigPoly, gx: int, gy: int):
    """(min, max) of a real roof over the gx x gy midpoint lattice, as
    ``grid_blocks`` evaluates it."""
    ks = sorted(phi.fiber.keys())
    coeff = np.array([phi.c(k).evaluate_complex(midgrid(gx)) for k in ks])
    lo, hi = math.inf, -math.inf
    for vals in grid_blocks(phi, coeff, gy):
        lo, hi = min(lo, float(vals.min())), max(hi, float(vals.max()))
    return lo, hi


def heisenberg_matrix(g: HeisenbergElement) -> np.ndarray:
    """The 3x3 float matrix of a group element."""
    return np.array([[1.0, g.x, g.z], [0.0, 1.0, g.y], [0.0, 0.0, 1.0]])


def group_inverse(g: HeisenbergElement) -> HeisenbergElement:
    """g^-1 = [-x, -y, x y - z]."""
    return HeisenbergElement(-g.x, -g.y, g.x * g.y - g.z)


def group_log(g: HeisenbergElement) -> AlgebraVector:
    """The generator W with exp(W) = g: the inverse of
    ``heisenberg.group_exp`` at t = 1."""
    return AlgebraVector(g.x, g.y, g.z - 0.5 * g.x * g.y)


def block_as_fibered(spectrum: ComponentSpectrum) -> FiberedTrigPoly:
    """One frequency block's element as a (complex) function on the torus."""
    m, n = spectrum.label.m, spectrum.label.n
    return FiberedTrigPoly.from_modes(
        {(m + j * n, n): c for j, c in spectrum.coeffs.items()}
    )


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


class NonPositiveTimeChange(MixlabError):
    """A time-change density was sampled at a value <= 0."""


def timechange_return_time(
    alpha_fn: Callable[[NilPoint], float],
    w: AlgebraVector,
    x: float,
    z: float,
    tol: float = 1e-10,
    lattice: Lattice = Lattice(1),
) -> float:
    """Section return time of the flow rescaled by the density ``alpha_fn``.

    Equals the integral of alpha_fn along the unit-speed orbit from
    j(x, z) over one return interval [0, 1/w_y], evaluated by adaptive
    composite Simpson quadrature to absolute tolerance ``tol``: the
    quadrature reference for time-changed return times.
    """
    if w.w_y == 0.0:
        raise DegenerateSection("w_y = 0: generator is tangent to the section")
    start = section_point(x, z, lattice)

    def f(t: float) -> float:
        v = alpha_fn(nilflow_at(start, w, t))
        if v <= 0.0:
            raise NonPositiveTimeChange(f"alpha({t}) = {v} <= 0")
        return v

    a, b = 0.0, 1.0 / w.w_y

    def simpson(fa, fm, fb, a_, b_):
        return (b_ - a_) * (fa + 4.0 * fm + fb) / 6.0

    def recurse(a_, b_, fa, fm, fb, whole, eps, depth):
        m = 0.5 * (a_ + b_)
        lm, rm = 0.5 * (a_ + m), 0.5 * (m + b_)
        flm, frm = f(lm), f(rm)
        left = simpson(fa, flm, fm, a_, m)
        right = simpson(fm, frm, fb, m, b_)
        if depth > 48 or abs(left + right - whole) <= 15.0 * eps:
            return left + right + (left + right - whole) / 15.0
        return recurse(a_, m, fa, flm, fm, left, 0.5 * eps, depth + 1) + recurse(
            m, b_, fm, frm, fb, right, 0.5 * eps, depth + 1
        )

    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    whole = simpson(fa, fm, fb, a, b)
    return recurse(a, b, fa, fm, fb, whole, tol, 0)


@pytest.fixture
def golden():
    return GOLDEN


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)

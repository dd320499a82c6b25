"""Arithmetic of the 3-dimensional group of unipotent upper-triangular
matrices, flows along one-parameter subgroups on its compact quotients,
and the torus section on which those flows return as a linear skew-shift.

Coordinates: ``[x, y, z]`` stands for the matrix

    [ 1  x  z ]
    [ 0  1  y ]
    [ 0  0  1 ]

so the product rule is ``[x1,y1,z1]*[x2,y2,z2] = [x1+x2, y1+y2,
z1+z2+x1*y2]``.  The quotient is by the integer lattice ``{[a, b, c/E]}``
for a positive integer ``E``; its fundamental domain is ``[0,1) x [0,1)
x [0,1/E)``.

The section ``{y = 0}`` is a torus with coordinates (x, z).  A generator
``W = w_x X + w_y Y + w_z Z`` with w_y != 0 crosses it with constant
return time 1/w_y, and the return map is the linear skew-shift

    (x, z) -> (x + w_x/w_y,  z + x + w_z/w_y + w_x/(2 w_y)).

Minimality of the flow additionally needs w_x/w_y irrational; that is
not decidable on floats, so ``AlgebraVector.irrational`` is a caller
assertion and rational ratios silently degrade long-orbit experiments
(formal evaluations such as the section formulas stay valid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Tuple

import numpy as np

from .errors import DegenerateSection, NonPositiveTimeChange
from .phases import frac


@dataclass(frozen=True)
class HeisenbergElement:
    """Group element [x, y, z] in the unipotent matrix model."""

    x: float
    y: float
    z: float

    def __mul__(self, other: "HeisenbergElement") -> "HeisenbergElement":
        return HeisenbergElement(
            self.x + other.x,
            self.y + other.y,
            self.z + other.z + self.x * other.y,
        )

    def inverse(self) -> "HeisenbergElement":
        return HeisenbergElement(-self.x, -self.y, self.x * self.y - self.z)

    def matrix(self):
        """3x3 float matrix of this element (for cross-checks)."""
        return [[1.0, self.x, self.z], [0.0, 1.0, self.y], [0.0, 0.0, 1.0]]


@dataclass(frozen=True)
class AlgebraVector:
    """Generator W = w_x X + w_y Y + w_z Z of a one-parameter subgroup.

    ``irrational`` asserts (it cannot verify) that w_x/w_y is irrational,
    the condition for the induced flow on the quotient to be uniquely
    ergodic.
    """

    w_x: float
    w_y: float
    w_z: float
    irrational: bool = True


@dataclass(frozen=True)
class Lattice:
    """Integer lattice {[a, b, c/E] : a, b, c integers}, E >= 1."""

    E: int = 1

    def __post_init__(self):
        if self.E < 1:
            raise ValueError("Euler number E must be a positive integer")


@dataclass(frozen=True)
class NilPoint:
    """Lattice coset, stored by its fundamental-domain representative."""

    g: HeisenbergElement
    lattice: Lattice = Lattice(1)


def group_mul(a: HeisenbergElement, b: HeisenbergElement) -> HeisenbergElement:
    return a * b


def group_exp(w: AlgebraVector, t: float) -> HeisenbergElement:
    """exp(t W).  The matrix series terminates: W^3 = 0."""
    return HeisenbergElement(
        t * w.w_x,
        t * w.w_y,
        t * w.w_z + 0.5 * t * t * w.w_x * w.w_y,
    )


def group_log(g: HeisenbergElement) -> AlgebraVector:
    """Inverse of ``group_exp`` at t = 1."""
    return AlgebraVector(g.x, g.y, g.z - 0.5 * g.x * g.y)


def reduce_mod_lattice(
    g: HeisenbergElement, lattice: Lattice = Lattice(1)
) -> Tuple[NilPoint, HeisenbergElement]:
    """Fundamental-domain representative of the coset of ``g``.

    Reduction order is fixed (y, then x, then z) so the returned lattice
    element is reproducible: left-multiplying by [0,-by,0] leaves z
    unchanged, by [-bx,0,0] shifts z by -bx*y, and the final central
    shift lands z in [0, 1/E).  Returns (point, lam) with lam in the
    lattice and ``lam * point.g == g`` up to rounding.
    """
    E = lattice.E
    by = math.floor(g.y)
    y = g.y - by
    bx = math.floor(g.x)
    x = g.x - bx
    z = g.z - bx * y
    bz = math.floor(z * E)
    z = z - bz / E
    if z >= 1.0 / E:   # rounding at the cell boundary
        z -= 1.0 / E
        bz += 1
    if z < 0.0:
        z += 1.0 / E
        bz -= 1
    point = NilPoint(HeisenbergElement(x, y, z), lattice)
    lam = HeisenbergElement(float(bx), float(by), bz / E)
    return point, lam


def nilflow_at(
    p: NilPoint, w: AlgebraVector, t: float, lattice: Lattice | None = None
) -> NilPoint:
    """Flow the point for time t: right translation by exp(t W).

    The endpoint coordinates contain t^2 * w_x * w_y / 2, which for
    |t| ~ 10^3 dwarfs the fractional part that survives the lattice
    reduction; computed in floats the result would only be good to
    ~ulp(t^2).  The arithmetic is therefore done on the exact rational
    values of the float inputs and reduced mod the lattice before
    converting back, leaving one rounding per coordinate at any t.
    """
    lat = lattice if lattice is not None else p.lattice
    T = Fraction(t)
    wx, wy, wz = Fraction(w.w_x), Fraction(w.w_y), Fraction(w.w_z)
    ex, ey = T * wx, T * wy
    ez = T * wz + T * T * wx * wy / 2
    x0 = Fraction(p.g.x)
    X = x0 + ex
    Y = Fraction(p.g.y) + ey
    Z = Fraction(p.g.z) + ez + x0 * ey
    Y -= math.floor(Y)
    bx = math.floor(X)
    X -= bx
    Z -= bx * Y
    E = lat.E
    Z -= Fraction(math.floor(Z * E), E)
    return NilPoint(HeisenbergElement(float(X), float(Y), float(Z)), lat)


def section_point(x: float, z: float, lattice: Lattice = Lattice(1)) -> NilPoint:
    """The section embedding j(x, z) = class of exp(x X + z Z) = [x, 0, z]."""
    return reduce_mod_lattice(HeisenbergElement(x, 0.0, z), lattice)[0]


def poincare_return(
    w: AlgebraVector, x: float, z: float, lattice: Lattice = Lattice(1)
) -> Tuple[float, float]:
    """Closed-form section return map, reduced mod (1, 1/E)."""
    if w.w_y == 0.0:
        raise DegenerateSection("w_y = 0: generator is tangent to the section")
    E = lattice.E
    x1 = frac(x + w.w_x / w.w_y)
    z1 = z + x + w.w_z / w.w_y + w.w_x / (2.0 * w.w_y)
    z1 = frac(z1 * E) / E
    return x1, z1


class SectionReturn(NamedTuple):
    """Landed section coordinates (floats, or arrays shaped like the
    starting points) and the one return time."""

    x: float | np.ndarray
    z: float | np.ndarray
    time: float


def poincare_return_numeric(
    w: AlgebraVector,
    x,
    z,
    lattice: Lattice = Lattice(1),
    time_tol: float = 1e-12,
) -> SectionReturn:
    """Section returns computed by flowing and bisecting the y-crossing.

    Every section point j(x, z) starts at y = 0, so the crossing time
    depends on the generator alone and is found once: march in the time
    direction of the y-winding until the reduced y-coordinate frac(t w_y)
    (exact, as ``nilflow_at`` forms it) wraps, then bisect the wrap
    bracket down to ``time_tol`` or to adjacent floats.  Each point is
    then flowed for that time with ``nilflow_at``.  ``x`` and ``z`` are
    floats or arrays of one shape; the landed coordinates have that shape
    and ``time`` is the one return time.  Independent of the closed form
    in ``poincare_return``; used to cross-validate it.
    """
    if w.w_y == 0.0:
        raise DegenerateSection("w_y = 0: generator is tangent to the section")
    sgn = 1.0 if w.w_y > 0 else -1.0
    dt = sgn * 0.25 / abs(w.w_y)
    if not math.isfinite(dt):
        raise DegenerateSection(f"return time 1/w_y overflows: w_y = {w.w_y}")
    wy = Fraction(w.w_y)

    def ycoord(t: float) -> float:
        y = Fraction(t) * wy
        return float(y - math.floor(y))

    # Stepping in the direction of the y-winding advances the reduced
    # y-coordinate by exactly +0.25 per step, so the first drop marks the
    # section crossing.
    t_prev, y_prev = 0.0, 0.0
    t_cur = dt
    for _ in range(8):
        y_cur = ycoord(t_cur)
        if y_cur < y_prev - 0.5:
            break
        t_prev, y_prev = t_cur, y_cur
        t_cur += dt
    else:
        raise RuntimeError("section crossing not bracketed")

    # Bisect on the wrapped/not-wrapped predicate, down to time_tol or to
    # adjacent floats, whichever comes first (|t| ~ 1/|w_y| can make
    # time_tol smaller than one ulp of t).
    lo, hi = t_prev, t_cur
    while abs(hi - lo) > time_tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if ycoord(mid) < 0.5:
            hi = mid
        else:
            lo = mid
    t_star = hi
    xs, zs = np.broadcast_arrays(np.asarray(x, float), np.asarray(z, float))
    land_x, land_z = np.empty(xs.shape), np.empty(xs.shape)
    for i in np.ndindex(xs.shape):
        start = section_point(float(xs[i]), float(zs[i]), lattice)
        landed = nilflow_at(start, w, t_star).g
        land_x[i], land_z[i] = landed.x, landed.z
    if xs.ndim == 0:
        return SectionReturn(float(land_x), float(land_z), t_star)
    return SectionReturn(land_x, land_z, t_star)


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
    composite Simpson quadrature to absolute tolerance ``tol``.
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

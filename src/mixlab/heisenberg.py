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
not decidable on floats, so it is left to the caller, and rational
ratios silently degrade long-orbit experiments (formal evaluations such
as the section formulas stay valid).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Tuple

import numpy as np

from .errors import DegenerateSection
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


@dataclass(frozen=True)
class AlgebraVector:
    """Generator W = w_x X + w_y Y + w_z Z of a one-parameter subgroup.

    The induced flow on the quotient is uniquely ergodic when w_x/w_y is
    irrational, which the caller must ensure.
    """

    w_x: float
    w_y: float
    w_z: float


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


def group_exp(w: AlgebraVector, t: float) -> HeisenbergElement:
    """exp(t W).  The matrix series terminates: W^3 = 0."""
    return HeisenbergElement(
        t * w.w_x,
        t * w.w_y,
        t * w.w_z + 0.5 * t * t * w.w_x * w.w_y,
    )


def _reduce(
    X: Fraction, Y: Fraction, Z: Fraction, E: int
) -> Tuple[HeisenbergElement, Tuple[int, int, Fraction]]:
    """Fundamental-domain representative of the exact coset [X, Y, Z] mod
    the lattice of ``E``, and the exact coordinates of the lattice element
    lam with lam * rep = [X, Y, Z] up to the rounding of rep.

    Reduction order is fixed (y, then x, then z) so lam is reproducible:
    left-multiplying by [0,-by,0] leaves z unchanged, by [-bx,0,0] shifts
    z by -bx*y, and the final central shift lands z in [0, 1/E).  Each
    coordinate is rounded once; when its nearest float is the end of the
    cell it becomes the largest float below 1 (x, y) or below 1.0/E (z).
    """
    by = math.floor(Y)
    Y -= by
    bx = math.floor(X)
    X -= bx
    Z -= bx * Y
    bz = math.floor(Z * E)
    Z -= Fraction(bz, E)
    below_1, below_z = math.nextafter(1.0, 0.0), math.nextafter(1.0 / E, 0.0)
    rep = HeisenbergElement(
        min(float(X), below_1), min(float(Y), below_1), min(float(Z), below_z)
    )
    return rep, (bx, by, Fraction(bz, E))


def reduce_mod_lattice(
    g: HeisenbergElement, lattice: Lattice = Lattice(1)
) -> Tuple[NilPoint, HeisenbergElement]:
    """Fundamental-domain representative of the coset of ``g`` and the
    lattice element lam with ``lam * point.g == g`` up to rounding
    (ValueError when lam is past the float range): ``_reduce`` of the
    exact values of g's coordinates."""
    rep, lam = _reduce(Fraction(g.x), Fraction(g.y), Fraction(g.z), lattice.E)
    try:
        return NilPoint(rep, lattice), HeisenbergElement(*map(float, lam))
    except OverflowError:
        raise ValueError(
            f"the lattice element of {g} is past the float range"
        ) from None


def nilflow_at(p: NilPoint, w: AlgebraVector, t: float) -> NilPoint:
    """Flow the point for time t: right translation by exp(t W), reduced
    mod the point's lattice.

    The endpoint coordinates contain t^2 * w_x * w_y / 2, which for
    |t| ~ 10^3 dwarfs the fractional part that survives the lattice
    reduction; computed in floats the result would only be good to
    ~ulp(t^2).  The arithmetic is therefore done on the exact rational
    values of the float inputs and reduced mod the lattice (``_reduce``)
    before converting back, leaving one rounding per coordinate at any t.
    """
    T = Fraction(t)
    wx, wy, wz = Fraction(w.w_x), Fraction(w.w_y), Fraction(w.w_z)
    x0 = Fraction(p.g.x)
    X = x0 + T * wx
    Y = Fraction(p.g.y) + T * wy
    Z = Fraction(p.g.z) + T * wz + T * T * wx * wy / 2 + x0 * T * wy
    return NilPoint(_reduce(X, Y, Z, p.lattice.E)[0], p.lattice)


def section_point(x: float, z: float, lattice: Lattice = Lattice(1)) -> NilPoint:
    """The section embedding j(x, z) = class of exp(x X + z Z) = [x, 0, z]."""
    return reduce_mod_lattice(HeisenbergElement(x, 0.0, z), lattice)[0]


def _check_generator(w: AlgebraVector) -> None:
    """Raise DegenerateSection unless the generator crosses the section
    with a finite return time 1/w_y, finite ratios w_x/w_y, w_z/w_y and a
    finite z-shift w_z/w_y + w_x/(2 w_y) of the return map."""
    if w.w_y == 0.0:
        raise DegenerateSection("w_y = 0: generator is tangent to the section")
    for name, v in (("1/w_y", 1.0 / w.w_y), ("w_x/w_y", w.w_x / w.w_y),
                    ("w_z/w_y", w.w_z / w.w_y),
                    ("w_z/w_y + w_x/(2 w_y)",
                     w.w_z / w.w_y + w.w_x / (2.0 * w.w_y))):
        if not math.isfinite(v):
            raise DegenerateSection(f"{name} is not finite for {w}")


def poincare_return(
    w: AlgebraVector, x: float, z: float, lattice: Lattice = Lattice(1)
) -> Tuple[float, float]:
    """Closed-form section return map, reduced mod (1, 1/E)."""
    _check_generator(w)
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
) -> SectionReturn:
    """Section returns computed by flowing and bisecting the y-crossing.

    Every section point j(x, z) starts at y = 0, so the crossing time
    depends on the generator alone and is found once: march in the time
    direction of the y-winding until the reduced y-coordinate frac(t w_y)
    (exact, as ``nilflow_at`` forms it) wraps, then bisect the wrap
    bracket down to 1e-12 or to adjacent floats.  Each point is
    then flowed for that time with ``nilflow_at``.  ``x`` and ``z`` are
    floats or arrays of one shape; the landed coordinates have that shape
    and ``time`` is the one return time.  Independent of the closed form
    in ``poincare_return``; used to cross-validate it.
    """
    _check_generator(w)
    dt = 0.25 / w.w_y
    wy = Fraction(w.w_y)

    def ycoord(t: float) -> float:
        return _reduce(0, Fraction(t) * wy, 0, 1)[0].y

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

    # Bisect on the wrapped/not-wrapped predicate, down to 1e-12 or to
    # adjacent floats, whichever comes first (|t| ~ 1/|w_y| can make
    # 1e-12 smaller than one ulp of t).
    lo, hi = t_prev, t_cur
    while abs(hi - lo) > 1e-12:
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

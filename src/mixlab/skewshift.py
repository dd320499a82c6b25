"""The linear skew-shift f(x,y) = (x + alpha, y + x + beta) on the 2-torus,
Birkhoff sums of fibered trigonometric polynomials, and the estimators
built on them (stretch, sublevel measure, visit frequency, circle-rotation
transfer functions).

The closed-form iterate is

    f^j(x, y) = (x + j*alpha,  y + j*x + j*beta + binom(j,2)*alpha),

so every orbit quantity reduces to the quadratic phase p_j = j*x + j*beta
+ binom(j,2)*alpha mod 1, formed exactly in dyadic integer arithmetic
for whole blocks of j (`phases.PhaseNumerators`).  Scalar paths take the
values of their polynomials on the orbit of one base point block by
block (`_orbit`), evaluated on the exact orbit numerators
(`FiberedTrigPoly.at`), so each phase rounds once.  Grid sweeps form the
x-independent part of every phase, fold the terms by frequency with a
bincount and take one FFT per fiber mode, so each term carries its own
exactly reduced phase at any step count.  The grid estimators then take
Phi_n on the G x G lattice one block of whole x-rows at a time
(`grid_blocks`), so no G x G array is formed.  The stretch of a fiber arc
is read off its two ends and the roots of the fiber's derivative.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from decimal import Decimal
from typing import (
    Dict, Iterable, Iterator, List, NamedTuple, Sequence, Tuple, Union,
)

import numpy as np

from .errors import InvalidRoofFile, SmallDivisor
from .phases import PhaseNumerators, frac
from .trigpoly import FiberedTrigPoly, TrigPoly1D

# Orbit steps per block of an orbit walk or a grid sweep; bounds their
# memory for any n.  Grid values are formed in blocks of about as many
# values (``grid_blocks``).
_SWEEP_BLOCK = 1 << 16

# Most orbit steps any walk, sweep, flow or hit count may take.  The exact
# orbit phases hold to 2^62 steps, but one lane walks ~1e7 steps/s on one
# core, so 2^40 steps is already more than a day.
_MAX_STEPS = 2 ** 40

# Highest fiber degree d that ``stretch`` takes: its eigensolve holds a
# (2d)^2 companion matrix, about 1 s at d = 256 on one core.
_MAX_STRETCH_DEGREE = 2 ** 9


# Smallest divisor |e(m alpha) - 1| that rotation_transfer accepts.
_DIVISOR_FLOOR = 1e-12


def _check_steps(n: float) -> None:
    """Raise ValueError for an orbit length past ``_MAX_STEPS`` or not
    finite, printed through Decimal: a float overflows on a huge int."""
    if not n <= _MAX_STEPS:
        length = Decimal(n if isinstance(n, int) else float(n))
        raise ValueError(
            f"orbit length {length:.6g} is out of range: an orbit takes at "
            "most 2^40 steps"
        )


@dataclass(frozen=True)
class TorusPoint:
    """Point of the 2-torus, coordinates stored reduced mod 1."""

    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", frac(self.x))
        object.__setattr__(self, "y", frac(self.y))


@dataclass(frozen=True)
class SkewShift:
    """Map parameters alpha, beta, stored reduced mod 1.

    Unique ergodicity needs alpha irrational, which floats cannot
    certify: a verdict refuses an alpha whose continued fraction ends
    early (``cohomology``), other experiments degrade silently.  Orbit
    points are formed by ``phases.PhaseNumerators``.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", frac(self.alpha))
        object.__setattr__(self, "beta", frac(self.beta))


def project(phi: FiberedTrigPoly) -> Tuple[FiberedTrigPoly, TrigPoly1D]:
    """Split Phi into its zero-fiber-average part and its fiber average.

    Returns (phi, phi_perp) with phi = Phi - phi_perp: phi has c_0 = 0
    and phi_perp(x) is the average of Phi(x, .) over the fiber.
    """
    perp = phi.c(0)
    rest = {k: p for k, p in phi.fiber.items() if k != 0}
    if phi.real:
        perp = TrigPoly1D(perp.coeffs, real=True)
    return FiberedTrigPoly(rest, real=phi.real), perp


def _orbit(
    f: SkewShift, polys: Sequence[FiberedTrigPoly], x: float, y: float, n: int
) -> Iterator[List[np.ndarray]]:
    """Yield the values of every poly in ``polys`` on f^j(x, y), j < n, in
    blocks of at most ``_SWEEP_BLOCK`` steps, from the exact orbit
    numerators (``FiberedTrigPoly.at``): one array per poly, in buffers the
    walk holds, so the next block overwrites it.  Every phase rounds once
    at any step count.  Raises ValueError for n past ``_MAX_STEPS``."""
    _check_steps(n)
    phases = PhaseNumerators(f.alpha, f.beta, x, y)
    block = _SWEEP_BLOCK
    outs = [np.empty((1, block), float if phi.real else complex) for phi in polys]
    scratch = (np.empty(block, phases.dtype), np.empty(block))
    for j0 in range(0, n, block):
        j = np.arange(j0, min(n, j0 + block), dtype=np.int64)
        yield [phi.at(phases, j, out[:, : j.size], scratch)[0]
               for phi, out in zip(polys, outs)]


def birkhoff_sum(f: SkewShift, phi: FiberedTrigPoly, p: TorusPoint, n: int):
    """Phi_n(p) = sum_{j<n} Phi(f^j p), with Phi_0 = 0 (empty sum).

    The values come from the exact orbit numerators (``_orbit``), and each
    block is summed pairwise, so the absolute error is that of the float
    sum alone, O(n * eps * sup|Phi|).  Raises ValueError for n < 0.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    acc = 0.0 if phi.real else 0.0j
    for (vals,) in _orbit(f, [phi], p.x, p.y, n):
        acc += np.sum(vals)
    return acc


def fiber_coefficients(
    f: SkewShift, phi: FiberedTrigPoly, x: float, n: int
) -> Dict[int, complex]:
    """Fourier-in-y coefficients of y -> Phi_n(x, y).

    c_{k,n}(x) = sum_{j<n} c_k(x + j alpha) e^{2 pi i k p_j(x)}, with p_j
    the fiber coordinate of f^j(x, 0): the sum of fiber k alone, as a
    complex poly, along that orbit.  Keys are the fiber frequencies of Phi.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    fibers = [FiberedTrigPoly({k: c}) for k, c in phi.fiber.items()]
    acc = [0.0j] * len(fibers)
    for vals in _orbit(f, fibers, x, 0.0, n):
        acc = [a + np.sum(v) for a, v in zip(acc, vals)]
    return {k: complex(a) for k, a in zip(phi.fiber, acc)}


# --------------------------------------------------------------------------
# Vectorised sweeps
# --------------------------------------------------------------------------


def midgrid(G: int) -> np.ndarray:
    """Midpoint grid (i + 1/2)/G; dyadic G makes the points exact dyadics."""
    return (np.arange(G) + 0.5) / G


def _grid_sweep(
    f: SkewShift, phi: FiberedTrigPoly, checkpoints: Iterable[int], grid: int
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield (n, c_{k,n} on the midpoint grid) for every checkpoint n, in
    the order given; the matrix has shape (len(phi.fiber), grid).

    Checkpoints are taken lazily: the next one is read only after the one
    before has been yielded, so a caller may choose it from what the sweep
    has shown so far; a list the caller appends to will do.  A checkpoint
    below 0, below the one before or past ``_MAX_STEPS`` raises ValueError
    when it is read.

    Expanding c_k, the term of mode (m, k) at step j is

        c_{m,k} e(theta_j) e((m + k j) x),   theta_j = m j alpha + k s_j,

    with e(t) = exp(2 pi i t) and theta_j exact (``PhaseNumerators``).  On
    x_i = (2i + 1)/(2G), e(N x_i) depends only on r = N mod 2G and changes
    sign under r -> r + G, so the terms fold into 2G bins B by a bincount
    and, with D[r] = (B[r] - B[r + G]) e(r/(2G)),

        c_{k,n}(x_i) = sum_{r<G} D[r] e(r i / G),

    one length-G FFT per k.  The cost is O(n) vector work per mode plus
    O(G log G) per checkpoint, in blocks of at most ``_SWEEP_BLOCK`` steps.
    """
    if grid < 1:
        raise ValueError("grid must be >= 1")
    two_g = 2 * grid
    phases = PhaseNumerators(f.alpha, f.beta)
    bins = np.zeros((len(phi.fiber), two_g), dtype=complex)
    twiddle = np.exp(1j * np.pi * np.arange(grid) / grid)
    j0 = 0
    for n in checkpoints:
        n = int(n)
        if n < j0:
            raise ValueError("checkpoints must be >= 0 and must not decrease")
        _check_steps(n)
        while j0 < n:
            j1 = min(n, j0 + _SWEEP_BLOCK)
            j = np.arange(j0, j1, dtype=np.int64)
            ja, s = phases.linear_quadratic(j)
            jmod = j % two_g
            for row, (k, p) in enumerate(phi.fiber.items()):
                # residues first, so the int64 product cannot wrap
                kj = (k % two_g) * jmod
                for m, c in p.coeffs.items():
                    num = phases.mode(ja, s, m, k)
                    theta = 2.0 * np.pi * phases.to_unit(num)
                    cos, sin = np.cos(theta), np.sin(theta)
                    r = (kj + m % two_g) % two_g
                    bins.real[row] += np.bincount(
                        r, c.real * cos - c.imag * sin, two_g
                    )
                    bins.imag[row] += np.bincount(
                        r, c.real * sin + c.imag * cos, two_g
                    )
            j0 = j1
        folded = (bins[:, :grid] - bins[:, grid:]) * twiddle
        yield n, np.fft.ifft(folded, axis=1, norm="forward")


def fiber_coefficients_on_grid(
    f: SkewShift,
    phi: FiberedTrigPoly,
    checkpoints: Sequence[int],
    grid: int,
) -> Tuple[List[int], Dict[int, np.ndarray]]:
    """c_{k,n}(x) on the midpoint x-grid of size ``grid`` at several n in
    one pass.

    Returns (ks, {n: matrix}) with matrix shape (len(ks), grid); n = 0
    gives zeros.  Every phase is reduced exactly before its one rounding,
    and the grid points are the exact rationals (2i + 1)/(2 grid), so the
    error is that of the float sums alone, O(n eps sup|Phi|), for any grid
    size and step count.  Raises ValueError for no checkpoint, a negative
    one or one past ``_MAX_STEPS`` before any step is taken.
    """
    stops = sorted({int(n) for n in checkpoints})
    if not stops:
        raise ValueError("need at least one checkpoint")
    _check_steps(stops[-1])
    return list(phi.fiber), dict(_grid_sweep(f, phi, stops, grid))


def grid_blocks(
    phi: FiberedTrigPoly, coeffs: np.ndarray, y_size: int | None = None
) -> Iterator[np.ndarray]:
    """Phi_n on the midpoint lattice of coeffs.shape[1] x-points and
    ``y_size`` y-points (by default the x-size; ValueError below 1) from
    the rows of ``fiber_coefficients_on_grid`` (phi's fiber order), one block
    of whole x-rows at a time: block[i, q] = Phi_n(x_{i0 + i}, y_q), real
    parts for a real phi.

    A block holds about ``_SWEEP_BLOCK`` values and is not kept once
    yielded, so memory stays O(y_size) for any lattice.  Every block has at
    least two rows unless the lattice has one: numpy sends a one-row
    product through gemv, which rounds otherwise than the whole-lattice
    gemm; products of two or more rows round as that gemm does.
    """
    rows = coeffs.shape[1]
    if y_size is None:
        y_size = rows
    if y_size < 1:
        raise ValueError("y_size must be >= 1")
    # e(k y) formed in place, bit for bit np.exp(2j*pi*outer(k, y))
    ky = np.zeros((len(phi.fiber), y_size), complex)
    np.outer(list(phi.fiber), midgrid(y_size), out=ky.imag)
    ky.imag *= 2 * np.pi
    np.exp(ky, out=ky)
    take = np.real if phi.real else np.asarray
    step = max(2, _SWEEP_BLOCK // y_size)
    i0 = 0
    while i0 < rows:
        i1 = i0 + step
        if i1 >= rows - 1:
            i1 = rows
        yield take(coeffs[:, i0:i1].T @ ky)
        i0 = i1


def grid_sup(blocks: Iterable[np.ndarray]) -> float:
    """max |v| over the values of ``blocks``."""
    return max(float(np.max(np.abs(v))) for v in blocks)


# --------------------------------------------------------------------------
# Estimators
# --------------------------------------------------------------------------


def arc_length(arc: Tuple[float, float]) -> float:
    """Length of the fiber arc from a to b, read as a circle arc: b <= a
    wraps past 1, and (a, a) is the whole fiber.  Raises ValueError for an
    endpoint outside [0, 1]."""
    a, b = arc
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ValueError("arc endpoints must lie in [0, 1]")
    return b - a if b > a else b - a + 1.0


def stretch(
    f: SkewShift, phi: FiberedTrigPoly, x: float, arc: Tuple[float, float],
    n: int,
) -> float:
    """Oscillation max - min of y -> Phi_n(x, y) on the arc [a, b].

    The arc runs from a to b on the circle (``arc_length``); (0, 1) is the
    full fiber.  The fiber g(y) = Re sum_k c_k e(k y), with c_k the
    ``fiber_coefficients`` and d = max |k|, takes its extremes on the arc
    at the arc's ends or where g' = 0, that is where z = e(y) is a root of
    sum_k k (c_k + conj(c_-k))/2 z^(k+d).  The roots come from one balanced
    companion-matrix eigensolve (``np.roots``), and g is evaluated once on
    the ends and the angles of the roots that lie on the arc; a root off
    the circle adds only a value between the extremes.  Raises ValueError
    for n < 1 or d past ``_MAX_STRETCH_DEGREE``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = arc[0]
    length = arc_length(arc)
    d = phi.degree_y
    if d > _MAX_STRETCH_DEGREE:
        raise ValueError(f"fiber degree {d} is past 2^9")
    if d == 0:
        return 0.0
    coeffs = fiber_coefficients(f, phi, x, n)
    ks = np.arange(-d, d + 1)
    c = np.array([coeffs.get(k, 0j) for k in ks.tolist()])
    # z^d g'(y) / (2 pi i) as a polynomial in z, highest power first
    deriv = (ks * (c + c[::-1].conj()) / 2)[::-1]
    ys = np.angle(np.roots(deriv)) / (2 * np.pi)
    ys = np.concatenate([ys[(ys - a) % 1.0 <= length], [a, a + length]])
    vals = TrigPoly1D(coeffs).evaluate_complex(ys).real
    return float(vals.max() - vals.min())


class SublevelEstimate(NamedTuple):
    """Grid fraction with |g| < C plus a boundary-cell error estimate."""

    value: float
    error: float
    grid: int


def sublevel_measures(
    blocks: Iterable[np.ndarray], levels: Sequence[float]
) -> List[SublevelEstimate]:
    """Fraction of the torus where |g| < C, midpoint rule, for every C in
    ``levels`` in one pass over the samples of g on a 2-D midpoint grid,
    given as consecutive blocks of whole x-rows (``grid_blocks``).

    The reported error counts grid cells where the indicator flips between
    neighbours along either axis, wrapping around the torus, i.e. cells
    crossed by the level set.  |g| of the first row and of the row above
    each block (the first row itself for the first) is kept across blocks.
    """
    if any(C <= 0 for C in levels):
        raise ValueError("C must be > 0")
    inside = [0] * len(levels)
    flips = [0] * len(levels)
    rows = 0
    for block in blocks:
        mag = np.abs(block)
        if not rows:
            top = above = mag[0].copy()
        for i, C in enumerate(levels):
            ind = mag < C
            inside[i] += int(np.count_nonzero(ind))
            flips[i] += (
                int(np.count_nonzero(ind[:, 1:] != ind[:, :-1]))
                + int(np.count_nonzero(ind[:, 0] != ind[:, -1]))
                + int(np.count_nonzero(ind[1:] != ind[:-1]))
                + int(np.count_nonzero(ind[0] != (above < C)))
            )
        above = mag[-1].copy()
        rows += block.shape[0]
    if not rows:
        raise ValueError("no samples")
    total = rows * above.size
    return [
        SublevelEstimate(
            inside[i] / total,
            (flips[i] + int(np.count_nonzero((top < C) != (above < C)))) / total,
            rows,
        )
        for i, C in enumerate(levels)
    ]


def visit_fraction(
    f: SkewShift, phi: FiberedTrigPoly, p: TorusPoint, C: float, N: int
) -> float:
    """(1/N) #{0 <= n < N : |phi_n(p)| < C} for the oscillating part of Phi.

    One pass over the exact orbit, a cumulative sum per block seeded with
    the running total; phi_0 = 0 always counts.
    """
    if C <= 0:
        raise ValueError("C must be > 0")
    if N < 1:
        raise ValueError("N must be >= 1")
    osc, _ = project(phi)
    count = 0
    acc = 0.0 if osc.real else 0.0j
    for (vals,) in _orbit(f, [osc], p.x, p.y, N):
        # sums[i] = phi_{j0 + i}: the running total, then one term per step
        sums = np.cumsum(np.concatenate(([acc], vals)))
        count += int(np.count_nonzero(np.abs(sums[:-1]) < C))
        acc = sums[-1]
    return count / N


def rotation_transfer(
    phi_perp: TrigPoly1D, alpha: float
) -> Tuple[TrigPoly1D, Union[float, complex]]:
    """Solve g(x + alpha) - g(x) = phi_perp(x) - mean over the circle.

    Fourier solution g_m = c_m / (e^{2 pi i m alpha} - 1) for m != 0;
    the mean (the m = 0 coefficient) is returned separately.  Raises
    SmallDivisor when a divisor in the support falls below
    ``_DIVISOR_FLOOR``, which flags numerically resonant alpha at this
    degree.
    """
    mean = phi_perp.coeff(0)
    ph = PhaseNumerators(alpha, 0.0)
    out: Dict[int, complex] = {}
    for m, c in phi_perp.coeffs.items():
        if m == 0:
            continue
        w = ph.unit_phase(abs(m), 0)
        if m < 0:
            w = w.conjugate()
        div = w - 1.0
        if abs(div) < _DIVISOR_FLOOR:
            raise SmallDivisor(m, abs(div), _DIVISOR_FLOOR)
        out[m] = c / div
    g = TrigPoly1D(out, real=phi_perp.real)
    return g, (mean.real if phi_perp.real else mean)


def skew_coboundary(u: FiberedTrigPoly, f: SkewShift) -> FiberedTrigPoly:
    """u(f(x,y)) - u(x,y)."""
    return u.compose_skew(f.alpha, f.beta) - u


# --------------------------------------------------------------------------
# Roof-file schema
# --------------------------------------------------------------------------

_ROOF_KEYS = {"alpha", "beta", "degree_y", "coeffs", "real"}


def roof_to_dict(f: SkewShift, phi: FiberedTrigPoly) -> dict:
    return {
        "alpha": f.alpha,
        "beta": f.beta,
        "degree_y": phi.degree_y,
        "real": phi.real,
        "coeffs": [
            {"k": k, "m": m, "re": c.real, "im": c.imag}
            for m, k, c in phi.modes()
        ],
    }


def roof_from_dict(d: dict) -> Tuple[SkewShift, FiberedTrigPoly]:
    if not isinstance(d, dict):
        raise InvalidRoofFile("roof document must be a JSON object")
    unknown = set(d) - _ROOF_KEYS
    if unknown:
        raise InvalidRoofFile(f"unknown roof keys: {sorted(unknown)}")
    missing = _ROOF_KEYS - set(d)
    if missing:
        raise InvalidRoofFile(f"missing roof keys: {sorted(missing)}")
    if not isinstance(d["coeffs"], list):
        raise InvalidRoofFile("roof coeffs must be a JSON list")
    modes: Dict[Tuple[int, int], complex] = {}
    for entry in d["coeffs"]:
        if not isinstance(entry, dict) or set(entry) != {"k", "m", "re", "im"}:
            raise InvalidRoofFile(f"bad coefficient entry: {entry}")
        key = (_integer(entry["m"]), _integer(entry["k"]))
        if key in modes:
            raise InvalidRoofFile(f"duplicate mode {key}")
        modes[key] = complex(_number(entry["re"]), _number(entry["im"]))
    degree_y = _integer(d["degree_y"])
    if any(abs(k) > degree_y for _, k in modes):
        raise InvalidRoofFile("coefficient exceeds declared degree_y")
    if not isinstance(d["real"], bool):
        raise InvalidRoofFile(f"roof value {d['real']!r} is not true or false")
    try:
        phi = FiberedTrigPoly.from_modes(modes, real=d["real"])
    except ValueError as exc:
        raise InvalidRoofFile(str(exc)) from exc
    f = SkewShift(_number(d["alpha"]), _number(d["beta"]))
    return f, phi


def _integer(v) -> int:
    """A JSON integer of magnitude below 2^63; anything else, a bool
    included, raises InvalidRoofFile."""
    if isinstance(v, int) and not isinstance(v, bool) and abs(v) < 2 ** 63:
        return v
    raise InvalidRoofFile(f"roof value {v!r} is not an integer below 2^63")


def _number(v) -> float:
    """A finite JSON number as a float; anything else, a bool or a string
    included, raises InvalidRoofFile."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        try:
            if math.isfinite(v):
                return float(v)
        except OverflowError:          # an integer past the float range
            pass
    raise InvalidRoofFile(f"roof value {v!r} is not a finite number")


def load_roof(path) -> Tuple[SkewShift, FiberedTrigPoly]:
    """Read a roof file; an unreadable file raises InvalidRoofFile."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        raise InvalidRoofFile(f"cannot read roof file {path}: {exc}") from exc
    return roof_from_dict(doc)


def save_roof(path, f: SkewShift, phi: FiberedTrigPoly) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(roof_to_dict(f, phi), fh, indent=2, sort_keys=True)
        fh.write("\n")

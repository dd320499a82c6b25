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
(`grid_blocks`), so no G x G array is formed.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from typing import (
    Callable, Dict, Iterable, Iterator, List, NamedTuple, Sequence, Tuple,
    Union,
)

import numpy as np

from .errors import InvalidRoofFile, SmallDivisor
from .phases import PhaseNumerators, frac, vfrac
from .trigpoly import FiberedTrigPoly, TrigPoly1D

# Orbit steps per block of an orbit walk or a grid sweep; bounds their
# memory for any n.  Grid values are formed in blocks of about as many
# values (``grid_blocks``).
_SWEEP_BLOCK = 1 << 16

# Most orbit steps any walk, sweep, flow or hit count may take.  The exact
# orbit phases hold to 2^62 steps, but one lane walks ~1e7 steps/s on one
# core, so 2^40 steps is already more than a day.
_MAX_STEPS = 2 ** 40


def _check_steps(n: float) -> None:
    """Raise ValueError for an orbit length past ``_MAX_STEPS`` or not
    finite."""
    if not n <= _MAX_STEPS:
        raise ValueError(
            f"orbit length {n} is out of range: an orbit takes at most "
            "2^40 steps"
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
    certify; a rational alpha silently degrades the asymptotic
    experiments while all finite formulas remain exact.  Orbit points are
    formed by ``phases.PhaseNumerators``.
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
    blocks of at most ``_SWEEP_BLOCK`` steps: one array per poly, from the
    exact orbit numerators (``FiberedTrigPoly.at``), so every phase rounds
    once at any step count.  Raises ValueError for n past ``_MAX_STEPS``."""
    _check_steps(n)
    phases = PhaseNumerators(f.alpha, f.beta, x, y)
    for j0 in range(0, n, _SWEEP_BLOCK):
        j = np.arange(j0, min(n, j0 + _SWEEP_BLOCK), dtype=np.int64)
        xn, yn = phases.orbit(j)
        yield [phi.at(phases, xn, yn) for phi in polys]


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
    f: SkewShift, phi: FiberedTrigPoly, checkpoints: Sequence[int], grid: int
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield (n, c_{k,n} on the midpoint grid) for every distinct checkpoint
    n in increasing order; the matrix has shape (len(ks), grid).

    Expanding c_k, the term of mode (m, k) at step j is

        c_{m,k} e(theta_j) e((m + k j) x),   theta_j = m j alpha + k s_j,

    with e(t) = exp(2 pi i t) and theta_j exact (``PhaseNumerators``).  On
    x_i = (2i + 1)/(2G), e(N x_i) depends only on r = N mod 2G and changes
    sign under r -> r + G, so the terms fold into 2G bins B by a bincount
    and, with D[r] = (B[r] - B[r + G]) e(r/(2G)),

        c_{k,n}(x_i) = sum_{r<G} D[r] e(r i / G),

    one length-G FFT per k.  The cost is O(n) vector work per mode plus
    O(G log G) per checkpoint, in blocks of at most ``_SWEEP_BLOCK`` steps.
    Raises ValueError for a checkpoint past ``_MAX_STEPS``.
    """
    if grid < 1:
        raise ValueError("grid must be >= 1")
    stops = sorted({int(n) for n in checkpoints})
    if not stops:
        raise ValueError("need at least one checkpoint")
    if stops[0] < 0:
        raise ValueError("checkpoints must be >= 0")
    _check_steps(stops[-1])
    ks = sorted(phi.fiber.keys())
    modes = [sorted(phi.c(k).coeffs.items()) for k in ks]
    two_g = 2 * grid
    phases = PhaseNumerators(f.alpha, f.beta)
    bins_re = np.zeros((len(ks), two_g))
    bins_im = np.zeros((len(ks), two_g))
    twiddle = np.exp(1j * np.pi * np.arange(grid) / grid)
    j0 = 0
    for n in stops:
        while j0 < n:
            j1 = min(n, j0 + _SWEEP_BLOCK)
            j = np.arange(j0, j1, dtype=np.int64)
            ja, s = phases.linear_quadratic(j)
            jmod = j % two_g
            for row, k in enumerate(ks):
                kj = k * jmod
                for m, c in modes[row]:
                    num = phases.mode(ja, s, m, k)
                    theta = 2.0 * np.pi * phases.to_unit(num)
                    cos, sin = np.cos(theta), np.sin(theta)
                    r = (kj + m) % two_g
                    bins_re[row] += np.bincount(
                        r, c.real * cos - c.imag * sin, two_g
                    )
                    bins_im[row] += np.bincount(
                        r, c.real * sin + c.imag * cos, two_g
                    )
            j0 = j1
        bins = bins_re + 1j * bins_im
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
    size and step count.
    """
    return sorted(phi.fiber.keys()), dict(_grid_sweep(f, phi, checkpoints, grid))


def grid_blocks(
    ks: Sequence[int], coeffs: np.ndarray, real: bool
) -> Iterator[np.ndarray]:
    """Phi_n on the grid x grid midpoint lattice from its fiber
    coefficients (``fiber_coefficients_on_grid``), one block of whole
    x-rows at a time: block[i, q] = Phi_n(x_{i0 + i}, y_q), real parts for
    a real roof.

    A block holds about ``_SWEEP_BLOCK`` values, so memory stays O(grid)
    for any grid.  Every block has at least two rows unless the grid has
    one: numpy takes a one-row product through gemv, not gemm, and it
    rounds differently, while products of two or more rows round every
    value as the whole-lattice product does.
    """
    grid = coeffs.shape[1]
    ky = np.exp(2j * np.pi * np.outer(ks, midgrid(grid)))
    step = max(2, _SWEEP_BLOCK // grid)
    i0 = 0
    while i0 < grid:
        i1 = i0 + step
        if i1 >= grid - 1:
            i1 = grid
        vals = coeffs[:, i0:i1].T @ ky
        yield vals.real if real else vals
        i0 = i1


def grid_sup(blocks: Iterable[np.ndarray]) -> float:
    """max |v| over the values of ``blocks``."""
    return max(float(np.max(np.abs(v))) for v in blocks)


# --------------------------------------------------------------------------
# Estimators
# --------------------------------------------------------------------------


def _golden_extremum(
    fn: Callable[[float], float], lo: float, hi: float, iters: int = 72
) -> float:
    """Golden-section maximum of fn on [lo, hi]; pass -fn for minima."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(iters):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    return max(fc, fd)


def _arc_length(a: float, b: float) -> float:
    length = b - a
    if length <= 0.0:
        length += 1.0
    return min(length, 1.0)


def stretch(
    f: SkewShift,
    phi: FiberedTrigPoly,
    x: float,
    arc: Tuple[float, float],
    n: int,
    resolution: int = 256,
) -> float:
    """Oscillation max - min of y -> Phi_n(x, y) on the arc [a, b].

    Grid values at ``resolution`` points refined once around every local
    extremum by golden-section search.  The arc is read as a circle arc
    from a to b; (0, 1) is the full fiber.
    """
    if resolution < 64:
        raise ValueError("resolution must be >= 64")
    if n < 1:
        raise ValueError("n must be >= 1")
    a, b = arc
    length = _arc_length(a, b)
    coeffs = fiber_coefficients(f, phi, x, n)
    if not coeffs:
        return 0.0
    ks = np.array(sorted(coeffs.keys()))
    cs = np.array([coeffs[k] for k in ks])

    def g(y):
        return (cs @ np.exp(2j * np.pi * ks[:, None] * np.atleast_1d(y))).real

    full = length >= 1.0
    denom = resolution if full else resolution - 1
    ys = a + length * np.arange(resolution) / denom
    vals = g(ys)

    def g1(y: float) -> float:
        return float(g(np.array([y]))[0])

    best_max = float(np.max(vals))
    best_min = float(np.min(vals))
    h = length / denom
    for i in range(resolution):
        left = vals[i - 1] if (i > 0 or full) else None
        right = vals[(i + 1) % resolution] if (i < resolution - 1 or full) else None
        is_max = (left is None or vals[i] >= left) and (right is None or vals[i] >= right)
        is_min = (left is None or vals[i] <= left) and (right is None or vals[i] <= right)
        lo, hi = ys[i] - h, ys[i] + h
        if not full:
            lo, hi = max(lo, a), min(hi, a + length)
        if is_max:
            best_max = max(best_max, _golden_extremum(g1, lo, hi))
        if is_min:
            best_min = min(best_min, -_golden_extremum(lambda y: -g1(y), lo, hi))
    return best_max - best_min


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
    crossed by the level set.  The first row and each block's last row are
    kept to compare with the last row and with the next block's first.
    """
    if any(C <= 0 for C in levels):
        raise ValueError("C must be > 0")
    inside = [0] * len(levels)
    flips = [0] * len(levels)
    first: List[np.ndarray] = []
    last: List[np.ndarray] = []
    rows = 0
    for block in blocks:
        mag = np.abs(block)
        for i, C in enumerate(levels):
            ind = mag < C
            inside[i] += int(np.count_nonzero(ind))
            flips[i] += (
                int(np.count_nonzero(ind[:, 1:] != ind[:, :-1]))
                + int(np.count_nonzero(ind[:, 0] != ind[:, -1]))
                + int(np.count_nonzero(ind[1:] != ind[:-1]))
            )
            if rows:
                flips[i] += int(np.count_nonzero(ind[0] != last[i]))
                last[i] = ind[-1].copy()
            else:
                first.append(ind[0].copy())
                last.append(ind[-1].copy())
        rows += block.shape[0]
        cols = block.shape[1]
    if not rows:
        raise ValueError("no samples")
    total = rows * cols
    return [
        SublevelEstimate(
            inside[i] / total,
            (flips[i] + int(np.count_nonzero(first[i] != last[i]))) / total,
            rows,
        )
        for i in range(len(levels))
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
    phi_perp: TrigPoly1D, alpha: float, divisor_floor: float = 1e-12
) -> Tuple[TrigPoly1D, Union[float, complex]]:
    """Solve g(x + alpha) - g(x) = phi_perp(x) - mean over the circle.

    Fourier solution g_m = c_m / (e^{2 pi i m alpha} - 1) for m != 0;
    the mean (the m = 0 coefficient) is returned separately.  Raises
    SmallDivisor when a divisor in the support falls below the floor,
    which flags numerically resonant alpha at this degree.
    """
    mean = phi_perp.coeff(0)
    ph = PhaseNumerators(alpha, 0.0)
    a, b = ph.linear_quadratic(np.array([1]))
    out: Dict[int, complex] = {}
    for m, c in phi_perp.coeffs.items():
        if m == 0:
            continue
        theta = float(ph.to_unit(ph.mode(a, b, abs(m), 0))[0])
        w = cmath.exp(2j * math.pi * theta)
        if m < 0:
            w = w.conjugate()
        div = w - 1.0
        if abs(div) < divisor_floor:
            raise SmallDivisor(m, abs(div), divisor_floor)
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
    """A JSON integer; anything else, a bool included, raises
    InvalidRoofFile."""
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise InvalidRoofFile(f"roof value {v!r} is not an integer")


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

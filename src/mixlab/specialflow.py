"""Special flows over the skew-shift: the unit-speed vertical flow under a
positive roof function, its invariant measure, and the mixing estimators.

A roof Phi > 0 turns the base map f into a flow on {(x, y, z): 0 <= z <
Phi(x, y)} by moving up at unit speed and dropping to (f(x,y), 0) at the
roof.  The number of base steps taken by time t from height z is the
largest n with Phi_n(x, y) < t + z; large oscillation of Phi_n along
y-fibers shears vertical segments across many fundamental domains, which
is the mechanism the estimators here quantify.

Every flow and every hit count of a point, one or many, runs one kernel
(``_climb_lanes``): the lanes walk the exact orbit of their base points
(``phases.PhaseNumerators``) in tiles of steps, the roof is evaluated at
a tile's step indices j from each mode's exact phase, a quadratic in j
(``FiberedTrigPoly.at``), and running sums find each lane's crossing and
the roof value there, all written in place into buffers the call holds.
A lane's result does not depend on the other lanes, so the scalar and
the many-lane paths agree bit for bit, and no position drifts from the
exact orbit at any time.  Time is the kernel's leading axis: targets of
shape (T, L), each row resuming where the one before stopped, from the
exact orbit numerators of f^n of each base point and the running sum
Phi_n, bit for bit a fresh climb.  Every estimator takes all its times
in one call, and the distinct times of each sign are the rows of one
climb, in ascending |t|.  The trivial-roof conjugacy check flows all its
points as lanes and reduces them in the constant suspension on the same
exact orbits.  The hitting measure needs only the least hit count over
each fiber of a grid, which is where the column maximum of Phi_n crosses
t: one grid sweep of the roof finds it for every column and time, at
checkpoints spaced by the gap to the crossing, with no lane and the same
counts.

All Monte-Carlo paths use counter-based streams (one Philox key per
fixed-size sample block), so estimates are bit-identical for any worker
count or scheduling.  The correlation estimator draws only the points
that land in its first cube, which lies below the roof: a binomial count
per block, then that many points uniform in the cube, with no roof value
and no rejection.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .cohomology import coboundary_residual
from .errors import NonPositiveRoof, NotACoboundary
from .phases import PhaseNumerators, circle_distance, frac, vfrac
from .skewshift import (
    _SWEEP_BLOCK,
    SkewShift,
    _check_steps,
    _grid_sweep,
    arc_length,
    grid_blocks,
    midgrid,
    project,
    stretch,
)
from .trigpoly import FiberedTrigPoly

# Fixed Monte-Carlo block size; the per-block Philox key makes sample i
# depend only on (seed, i // _BLOCK, i % _BLOCK).
_BLOCK = 65536

# Fewest steps a climb tile spans, unless the step limit comes first.
_MIN_TILE = 8


@dataclass(frozen=True)
class Roof:
    """A certified-positive roof function with its global bounds.

    certified_min <= Phi <= certified_max everywhere, with certified_min
    > 0; ``slack`` is the width of the certification margin actually
    achieved by the lattice + second-order bound and ``slack_target`` the
    width asked for; ``slack`` exceeds it when the evaluation budget forced
    a coarser lattice.
    """

    phi: FiberedTrigPoly
    certified_min: float
    certified_max: float
    mean: float
    slack: float
    slack_target: Optional[float] = None


# Most points certify_roof's lattice may hold; past it the slack target is
# relaxed.
_CERTIFY_BUDGET = 2.5e8


def certify_roof(phi: FiberedTrigPoly, slack_target: float = 1e-3) -> Roof:
    """Certify global bounds of a real roof by a lattice plus a
    second-order slack.

    On each cell of the G_x x G_y midpoint lattice, which wraps around the
    torus, the bilinear interpolant of Phi lies between its corner values
    and differs from Phi by at most M_x/(8 G_x^2) + M_y/(8 G_y^2), with
    M_x = 4 pi^2 sum m^2 |c| and M_y = 4 pi^2 sum k^2 |c| bounding the
    second derivatives (the tensor-product error of linear interpolation;
    de Boor, A Practical Guide to Splines, rev. ed. 2001).  Each axis is
    sized for half of ``slack_target``, relaxed by doubling when the
    lattice would exceed the budget; the Roof records both the target and
    the slack achieved.  The extrema are those of every lattice value, as
    ``grid_blocks`` evaluates them.  Raises NonPositiveRoof when the
    certified lower bound is not positive, and ValueError when even the
    coarsest lattice the frequencies allow exceeds the budget.
    """
    if not phi.real:
        raise ValueError("roof must be real-flagged")
    curv_x = 4.0 * math.pi ** 2 * sum(m * m * abs(c) for m, _, c in phi.modes())
    curv_y = 4.0 * math.pi ** 2 * sum(k * k * abs(c) for _, k, c in phi.modes())
    floor_x = max(16, 8 * phi.max_freq_x)
    floor_y = max(16, 8 * phi.degree_y)
    if floor_x * floor_y > _CERTIFY_BUDGET:
        raise ValueError(
            f"roof frequencies too high to certify: a {floor_x} x {floor_y} "
            f"grid exceeds {_CERTIFY_BUDGET:g} points"
        )

    def grids(target: float) -> Tuple[int, int]:
        gx = max(floor_x, math.ceil(math.sqrt(curv_x / (4.0 * target))))
        gy = max(floor_y, math.ceil(math.sqrt(curv_y / (4.0 * target))))
        return gx, gy

    target = slack_target
    gx, gy = grids(target)
    while gx * gy > _CERTIFY_BUDGET:
        target *= 2.0
        gx, gy = grids(target)

    coeff = np.array([p.evaluate_complex(midgrid(gx))
                      for p in phi.fiber.values()])
    lo, hi = math.inf, -math.inf
    for vals in grid_blocks(phi, coeff, gy):
        lo, hi = min(lo, float(vals.min())), max(hi, float(vals.max()))
        del vals                  # one block at a time on y-heavy lattices
    slack = curv_x / (8.0 * gx * gx) + curv_y / (8.0 * gy * gy)
    cmin, cmax = lo - slack, hi + slack
    if cmin <= 0.0:
        raise NonPositiveRoof(
            f"certified lower bound {cmin:.6g} is not positive"
        )
    return Roof(phi, cmin, cmax, phi.mean(), slack, slack_target)


@dataclass(frozen=True)
class FlowPoint:
    """Point (x, y, z) with 0 <= z < Phi(x, y) in the suspension domain."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        object.__setattr__(self, "x", frac(self.x))
        object.__setattr__(self, "y", frac(self.y))


@dataclass(frozen=True)
class Cube:
    """[x1, x2] x [y1, y2] x [0, h]; h must stay below the roof minimum."""

    x1: float
    x2: float
    y1: float
    y2: float
    h: float

    def __post_init__(self):
        if not (0.0 <= self.x1 <= self.x2 <= 1.0):
            raise ValueError("x-interval must satisfy 0 <= x1 <= x2 <= 1")
        if not (0.0 <= self.y1 <= self.y2 <= 1.0):
            raise ValueError("y-interval must satisfy 0 <= y1 <= y2 <= 1")
        if self.h <= 0.0:
            raise ValueError("height must be positive")

    @property
    def volume(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1) * self.h

    def contains(self, x, y, z):
        return (
            (self.x1 <= x) & (x <= self.x2)
            & (self.y1 <= y) & (y <= self.y2)
            & (0.0 <= z) & (z <= self.h)
        )


def cube_measure(roof: Roof, cube: Cube) -> float:
    """Invariant measure of the cube: volume / integral of the roof."""
    _require_cube_fits(roof, cube)
    return cube.volume / roof.mean


def _require_cube_fits(roof: Roof, cube: Cube) -> None:
    if cube.h >= roof.certified_min:
        raise ValueError(
            f"cube height {cube.h} must stay below the certified roof "
            f"minimum {roof.certified_min}"
        )


# --------------------------------------------------------------------------
# The flow
# --------------------------------------------------------------------------


def hit_count(roof: Roof, f: SkewShift, p: FlowPoint, t: float) -> int:
    """Largest n with Phi_n(x, y) < t + z (0 for t = z = 0).

    Strict crossing of the running roof sum; a float tie resolves to the
    smaller n.  Raises ValueError for t < 0 and for a time the step bound
    cannot reach.  The one-lane case of ``_hit_count_lanes``.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    return int(_hit_count_lanes(roof, f, [p.x], [p.y], [t + p.z])[0, 0])


def flow_at(roof: Roof, f: SkewShift, p: FlowPoint, t: float) -> FlowPoint:
    """Time-t image of p under the suspension flow; t may be negative.

    The one-lane case of ``_flow_lanes``.
    """
    (x, y, z), = _flow_lanes(roof, f, [p.x], [p.y], [p.z], [t])
    return FlowPoint(float(x[0]), float(y[0]), float(z[0]))


def _climb_lanes(
    roof: Roof,
    phases: PhaseNumerators,
    targets,
    backward: bool = False,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, total, after) of shape (T, L) for the L lanes of ``phases`` and
    targets of shape (T, L): n the largest with Phi_n(x, y) < target, total
    = Phi_n(x, y) and after = Phi(f^n(x, y)), the roof at the step that
    crosses.  The step limit of a lane is int(target / certified_min) + 2:
    every climb stops there even when roundoff, or an overstated minimum,
    would keep it climbing.  Raises ValueError for a target that is not
    finite or whose limit passes 2^40 (``skewshift._check_steps``).

    With ``backward`` the sums run along the backward orbit instead,
    Phi(f^-1 p) + ... + Phi(f^-n p), after is Phi(f^{-n-1} p), and n stops
    one step short of the limit.  In each row the lanes still below their
    limit climb in chunks of ``_SWEEP_BLOCK // _MIN_TILE`` lanes, each
    chunk's lanes walking the exact orbit in lock-step, in tiles of at most
    ``_SWEEP_BLOCK`` lane-steps but of no fewer than ``_MIN_TILE`` steps.
    A tile takes the roof values at a block of step indices
    (``FiberedTrigPoly.at``) and their running sums seeded with the totals,
    in place in buffers the call allocates once (values, sums, and the
    numerators of ``at``), so the loop allocates no tile-sized array.  The
    sums never decrease, so the count of those below the target is the
    strict crossing, ties going to the smaller n.  A tile reaches one step
    past every lane's limit, so a lane leaves it at the step where it
    crossed or stopped, its after read from the tile's values; a lane whose
    limit fell on a tile's last step stops at the first step of the next.
    Each lane's sums are sequential and its own, so its result does not
    depend on the other lanes, the chunks or the tiling: one lane is
    ``hit_count``.

    Each lane's targets must not decrease down the rows.  Row r resumes
    where row r - 1 stopped: each lane's phases move to f^{+-n} of its base
    point (``PhaseNumerators.moved``), the same integers as stepping on
    from n, and its left fold goes on from total.  That total is below the
    previous target (or n is 0) and n within the previous limit, so a fresh
    climb passes through the same (n, total) and every row is bit for bit
    a fresh climb.
    """
    targets = np.asarray(targets, dtype=float)
    _check_steps(float(np.max(targets, initial=0.0)) / roof.certified_min)
    room = (np.maximum(targets, 0.0) / roof.certified_min).astype(np.int64)
    room += 1 if backward else 2
    n = np.zeros(targets.shape, dtype=np.int64)
    total, after = np.zeros((2, *targets.shape))
    chunk = _SWEEP_BLOCK // _MIN_TILE
    # every tile's buffers: values and sums (one row more) in one block
    vals_buf, sums_buf = np.split(
        np.empty(2 * _SWEEP_BLOCK + min(chunk, n.shape[1])), [_SWEEP_BLOCK])
    scratch = (np.empty(_SWEEP_BLOCK, phases.dtype), sums_buf)
    for r, target in enumerate(targets):
        if r:
            n[r], total[r], after[r] = n[r - 1], total[r - 1], after[r - 1]
        nr, tr, ar, limit = n[r], total[r], after[r], room[r]   # views of row r
        waiting = np.flatnonzero(nr < limit)
        for lanes in np.split(waiting, range(chunk, waiting.size, chunk)):
            lane_phases = phases.lanes(lanes).moved(
                -nr[lanes] if backward else nr[lanes]
            )
            done = 0              # steps taken by every lane still climbing
            while lanes.size:
                # no lane can cross in fewer steps than its gap to the target
                # over the roof's maximum: long tiles far from the crossings,
                # short ones near them, which saves evaluations past a crossing
                gap = float(np.min(target[lanes] - tr[lanes])) / roof.certified_max
                left = limit[lanes] - nr[lanes]
                block = min(
                    _SWEEP_BLOCK // lanes.size,
                    max(_MIN_TILE, int(gap)),
                    int(left.max()) + 1,
                )
                j = done + np.arange(block, dtype=np.int64)[:, None]
                vals = vals_buf[: block * lanes.size].reshape(block, -1)
                roof.phi.at(lane_phases, -1 - j if backward else j, vals, scratch)
                sums = sums_buf[: (block + 1) * lanes.size].reshape(block + 1, -1)
                sums[0] = tr[lanes]
                # one sequential sum down each column, in the same order either
                # way; on a Xeon core cumsum is faster on long tiles of few
                # lanes (1024 steps x 64 lanes: 0.20 ms, row by row 0.67 ms),
                # row by row from 256 lanes on (256 x 256: 0.17 ms, 0.23 ms)
                if lanes.size < 64:
                    sums[1:] = vals
                    np.cumsum(sums, axis=0, out=sums)
                else:
                    for i, row in enumerate(vals):
                        np.add(sums[i], row, out=sums[i + 1])
                below = np.minimum(
                    np.count_nonzero(sums[1:] < target[lanes], axis=0), left
                )
                cols = np.arange(lanes.size)
                nr[lanes] += below
                tr[lanes] = sums[below, cols]
                seen = below < block      # crossed or stopped in this tile
                ar[lanes[seen]] = vals[below[seen], cols[seen]]
                done += block
                lanes = lanes[~seen]
                lane_phases = lane_phases.lanes(~seen)
    return n, total, after


def _flow_lanes(
    roof: Roof,
    f: SkewShift,
    xs: np.ndarray,
    ys: np.ndarray,
    zs: np.ndarray,
    times: Sequence[float],
) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Images (x, y, z) of the points (xs, ys, zs) under the suspension
    flow, one per time in ``times``, in their order; times may repeat and
    have either sign, and one lane at one time is ``flow_at``, bit for bit.

    Forward, a lane climbs (``_climb_lanes``) to the largest n with
    Phi_n < t + z and keeps the rest as its height; on a float tie with the
    roof it moves to f^{n+1} p at height 0.  Backward, it descends to the
    smallest n with z + t + Phi(f^-1 p) + ... + Phi(f^-n p) >= 0.  Both
    take at most the step limit of ``_climb_lanes``, and the positions are
    exact orbit points rounded once.  The distinct times of each sign are
    the rows of one climb, in ascending |t|, so each step is taken once.
    """
    zs = np.asarray(zs, dtype=float)
    phases = PhaseNumerators(f.alpha, f.beta, xs, ys)
    images = {}
    for backward in (False, True):
        chain = sorted({float(t) for t in times if (t < 0) == backward}, key=abs)
        w = zs + np.array(chain)[:, None]                          # (T, L)
        if not backward:
            n, total, after = _climb_lanes(roof, phases, w)
            z = w - total
            tie = z >= after
            xn, yn = phases.orbit(n + tie)
            z = np.where(tie, 0.0, z)
        else:
            n, total, last = _climb_lanes(roof, phases, -w, backward=True)
            down = w < 0.0
            n = n + down                 # the step that crosses height 0
            xn, yn = phases.orbit(-n)
            z = np.where(down, w + (total + last), w)
        x, y = phases.to_unit(xn), phases.to_unit(yn)
        images.update((t, (x[r], y[r], z[r])) for r, t in enumerate(chain))
    return [images[float(t)] for t in times]


def _hit_count_lanes(
    roof: Roof,
    f: SkewShift,
    xs: np.ndarray,
    ys: np.ndarray,
    times: Sequence[float],
) -> np.ndarray:
    """Hit counts from height z = 0, of shape (T, L): one row per time in
    ``times``, in their order; one lane at one time is ``hit_count``.  The
    distinct times are the rows of one climb, in ascending order."""
    distinct, row = np.unique(np.asarray(times, dtype=float), return_inverse=True)
    # t + z at z = 0, one row per distinct time
    targets = np.add.outer(distinct, np.zeros(np.shape(xs)))
    n, _, _ = _climb_lanes(roof, PhaseNumerators(f.alpha, f.beta, xs, ys), targets)
    return n[row]


# --------------------------------------------------------------------------
# Invariant-measure sampling
# --------------------------------------------------------------------------


def _stream(seed: int, block_index: int) -> np.random.Generator:
    """The Philox generator keyed by (seed, block_index)."""
    return np.random.Generator(
        np.random.Philox(key=np.array([seed, block_index], dtype=np.uint64))
    )


def _uniform_in(
    rng: np.random.Generator, n: int, cube: Cube
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n points uniform in the cube, one row of ``rng.random`` each, its
    columns mapped affinely onto the cube's sides.

    x and y are rounded up to multiples of 2^-64, which moves only values
    below 2^-12, by less than 2^-64: a base point off that grid would put
    every lane of its block on the Python-integer path of
    ``PhaseNumerators``.
    """
    u = rng.random((n, 3))
    x = cube.x1 + (cube.x2 - cube.x1) * u[:, 0]
    y = cube.y1 + (cube.y2 - cube.y1) * u[:, 1]
    x, y = (np.ldexp(np.ceil(np.ldexp(v, 64)), -64) for v in (x, y))
    return x, y, cube.h * u[:, 2]


def _sample_block(
    roof: Roof, seed: int, block_index: int, count: int, cube: Cube
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The points in the cube of ``count`` draws from the normalised
    invariant measure, from the Philox stream keyed by (seed, block_index).

    The cube lies below the roof (``_require_cube_fits``), so the measure
    conditioned on it is uniform in the box, and the number of the draws
    that land in it is Binomial(count, mu(cube)): the stream draws that
    number, then that many points uniform in the cube.  No roof value is
    evaluated and no draw is rejected.
    """
    rng = _stream(seed, block_index)
    return _uniform_in(rng, rng.binomial(count, cube_measure(roof, cube)), cube)


def _map(fn: Callable, items: Sequence, workers: int) -> list:
    """[fn(i) for i in items], on a pool of ``workers`` threads if more
    than one; the results keep the order of ``items``."""
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items))
    return [fn(i) for i in items]


@dataclass(frozen=True)
class CorrelationEstimate:
    """Monte-Carlo correlation with its standard error and provenance."""

    value: float
    std_error: float
    samples: int
    seed: int


def correlate_cubes(
    roof: Roof,
    f: SkewShift,
    q1: Cube,
    q2: Cube,
    times: Sequence[float],
    samples: int,
    seed: int,
    workers: int = 1,
) -> List[CorrelationEstimate]:
    """Estimate mu(Q1 and flow_{-t} Q2) - mu(Q1) mu(Q2) for every t in
    ``times``, one estimate per time.

    The joint indicator is averaged over ``samples`` invariant-measure
    draws.  Only the draws in Q1 can count, and ``_sample_block`` draws
    just those, block by block; each block's points are flowed to every
    time in one call (``_flow_lanes``).  mu(Q1) mu(Q2) is computed
    analytically.  Block-wise integer counting keeps the result
    independent of the worker count, and of which other times are asked
    for.  The roof's certified bounds enter only through the check that
    the cubes fit below the roof.
    """
    if samples < 1000:
        raise ValueError("samples must be >= 1000")
    product = cube_measure(roof, q1) * cube_measure(roof, q2)
    times = [float(t) for t in times]

    def block_counts(b: int) -> List[int]:
        count = min(_BLOCK, samples - b * _BLOCK)
        xs, ys, zs = _sample_block(roof, seed, b, count, q1)
        images = _flow_lanes(roof, f, xs, ys, zs, times)
        return [int(np.count_nonzero(q2.contains(*im))) for im in images]

    blocks = range((samples + _BLOCK - 1) // _BLOCK)
    counts = _map(block_counts, blocks, workers)
    out = []
    for i in range(len(times)):
        phat = sum(c[i] for c in counts) / samples
        std = math.sqrt(phat * (1.0 - phat) / (samples - 1))
        out.append(CorrelationEstimate(phat - product, std, samples, seed))
    return out


def _arc_points(
    x: float, arc: Tuple[float, float], resolution: int
) -> Tuple[float, np.ndarray, np.ndarray]:
    """(length, xs, ys): the midpoints of ``resolution`` equal cells of the
    fiber arc at x (``arc_length``), and its length."""
    length = arc_length(arc)
    ys = vfrac(arc[0] + length * (np.arange(resolution) + 0.5) / resolution)
    return length, np.full(resolution, frac(x)), ys


def fiber_mixing_profile(
    roof: Roof,
    f: SkewShift,
    x: float,
    arc: Tuple[float, float],
    cube: Cube,
    times: Sequence[float],
    resolution: int = 256,
) -> List[float]:
    """Length of {x} x [y', y''] (at z = 0) carried into the cube at each
    time t in ``times``, one value per time.

    Evaluated as (fraction of a y-grid on the arc whose flow image lies
    in the cube) times the arc length.
    """
    if resolution < 256:
        raise ValueError("resolution must be >= 256")
    _require_cube_fits(roof, cube)
    length, xs, ys = _arc_points(x, arc, resolution)
    zs = np.zeros(resolution)
    return [
        float(np.count_nonzero(cube.contains(*im))) / resolution * length
        for im in _flow_lanes(roof, f, xs, ys, zs, times)
    ]


@dataclass(frozen=True)
class IterationBounds:
    """Spread of hit counts along a fiber arc against the stretch bound."""

    n_lo: int
    n_hi: int
    stretch_at_n_lo: float
    lower: float          # stretch/max - max/min
    upper: float          # stretch/min + max/min
    lower_ok: bool
    upper_ok: bool


def discrete_iteration_bounds(
    roof: Roof,
    f: SkewShift,
    x: float,
    arc: Tuple[float, float],
    t: float,
    resolution: int = 256,
) -> IterationBounds:
    """Check that the hit-count spread on a fiber arc obeys the stretch bounds.

    With n_lo/n_hi the min/max of the z = 0 hit count over a y-grid on
    the arc and S the oscillation of Phi_{n_lo} there,

        S/max(Phi) - max(Phi)/min(Phi) <= n_hi - n_lo
                                       <= S/min(Phi) + max(Phi)/min(Phi).

    S is exact on the whole arc up to rounding (``skewshift.stretch``);
    only n_lo and n_hi come from the ``resolution`` midpoints of the arc,
    so a hit count reached on less than one grid cell may be missed.
    """
    if t <= 0:
        raise ValueError("t must be > 0")
    _, xs, ys = _arc_points(x, arc, resolution)
    counts = _hit_count_lanes(roof, f, xs, ys, [t])[0]
    n_lo, n_hi = int(counts.min()), int(counts.max())
    if n_lo >= 1:
        spread = stretch(f, roof.phi, x, arc, n_lo)
    else:
        spread = 0.0
    top, bot = roof.certified_max, roof.certified_min
    lower = spread / top - top / bot
    upper = spread / bot + top / bot
    gap = n_hi - n_lo
    return IterationBounds(
        n_lo, n_hi, spread, lower, upper, lower <= gap, gap <= upper
    )


def hitting_complement_measures(
    roof: Roof,
    f: SkewShift,
    times: Sequence[float],
    C: float,
    grid: int = 256,
    y_resolution: int = 64,
) -> List[float]:
    """For every t in ``times``, the share of x whose fiber shows no large
    Birkhoff value at the minimal hit count.

    For each grid x: n(x) = min over a y-grid of the z = 0 hit count at
    time t, then x qualifies when the y-grid maximum of
    |phi_{n(x)}(x, .)| exceeds C (phi the zero-fiber-average part of the
    roof).  Returns the fraction that fails to qualify, one per time.
    Since Phi > 0, Phi_n(x, y) grows with n, so n(x) is the largest n with
    max_y Phi_n(x, y) < t, capped at the step limit of ``_climb_lanes``;
    ``_column_stops`` finds it for every x and time in one grid sweep of
    the roof, and ``_coeffs_at_stops`` sweeps phi to the stops.
    """
    times = [float(t) for t in times]
    if any(t < 0 for t in times):
        raise ValueError("t must be >= 0")
    if C <= 1.0:
        raise ValueError("C must be > 1")
    if grid < 256:
        raise ValueError("grid must be >= 256")
    if y_resolution < 1:
        raise ValueError("y_resolution must be >= 1")
    osc, _ = project(roof.phi)
    xs = midgrid(grid)
    distinct, row = np.unique(times, return_inverse=True)
    share = []
    for stops in _column_stops(roof, f, distinct, grid, y_resolution):
        mat = _coeffs_at_stops(f, osc, xs, stops)
        sup = np.concatenate([
            np.abs(v).max(axis=1)
            for v in grid_blocks(osc, mat, y_size=y_resolution)
        ])
        share.append(1.0 - int(np.count_nonzero(sup > C)) / grid)
    return [share[r] for r in row]


def _column_stops(
    roof: Roof, f: SkewShift, times: np.ndarray, grid: int, y_resolution: int
) -> np.ndarray:
    """Stops of shape (T, grid) for ascending distinct times >= 0: at row
    r, column i holds the largest n with Phi_n(x_i, y) < times[r] at every
    y of the midpoint y-grid, capped at int(times[r] / certified_min) + 2,
    as the minimum over y of the hit counts of ``_climb_lanes`` reads.

    One grid sweep of the roof (``_grid_sweep``) takes the column maxima
    M_n of Phi_n on the grid x y-resolution lattice (``grid_blocks``) at
    checkpoints chosen as it goes.  A column's stop is the last checkpoint
    with M_n below the time.  Phi_{n+s} <= Phi_n + s certified_max, so no
    (time, column) pair still below can cross in fewer than g steps, g the
    least (t - M_n) / certified_max over those pairs: the checkpoints start
    at floor(t_min / certified_max) - 1 and advance by max(1, floor(g) - 1),
    one step short of that bound so that rounding cannot carry a pair past
    its crossing unseen.  Every crossing is therefore seen one step after
    the last n below it.  Raises ValueError for a time whose step limit
    passes 2^40 (``skewshift._check_steps``), before any step.
    """
    top = roof.certified_max
    _check_steps(float(np.max(times, initial=0.0)) / roof.certified_min)
    limit = (times / roof.certified_min).astype(np.int64) + 2
    stops = np.zeros((times.size, grid), dtype=np.int64)
    if not times.size:
        return stops
    # below t at every checkpoint so far, and short of the step limit
    climbing = np.ones(stops.shape, dtype=bool)
    # the sweep reads each item after yielding the last, so appends reach it
    upcoming = [min(max(0, int(times[0] / top) - 1), int(limit[0]))]
    for n, coeffs in _grid_sweep(f, roof.phi, upcoming, grid):
        col_max = np.concatenate([
            v.max(axis=1)
            for v in grid_blocks(roof.phi, coeffs, y_size=y_resolution)
        ])
        climbing &= col_max < times[:, None]            # (T, grid)
        stops[climbing] = n
        climbing &= n < limit[:, None]
        if climbing.any():
            g = float(np.min((times[:, None] - col_max)[climbing])) / top
            cap = int(limit[climbing.any(axis=1)].min())
            upcoming.append(min(n + max(1, int(g) - 1), cap))
    return stops


def _coeffs_at_stops(f, phi, cols, stops):
    """Column i holds c_{k,n}(cols[i]) at n = stops[i], one row per fiber.

    ``cols`` is the midpoint grid of size len(cols).  One grid sweep with
    the distinct stops as checkpoints serves every column.
    """
    stops = np.asarray(stops, dtype=np.int64)
    mat = np.zeros((len(phi.fiber), len(cols)), dtype=complex)
    for n, coeffs in _grid_sweep(f, phi, np.unique(stops), len(cols)):
        hit = stops == n
        mat[:, hit] = coeffs[:, hit]
    return mat


# --------------------------------------------------------------------------
# Trivial-roof conjugacy
# --------------------------------------------------------------------------


def _reduce_constant_quotient(
    phases: PhaseNumerators, zs: np.ndarray, height: float, sheets=0
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lanes of ``phases`` at heights zs in the constant suspension of
    the given height, moved to its fundamental domain 0 <= z < height: q =
    floor(z / height) base steps, taken on the exact orbit, and z - q *
    height.  Each sheet k of the column ``sheets`` is one row: q + k steps
    at height z - k * height, all rows from one ``orbit`` call."""
    q = np.floor(zs / height)
    z = zs - q * height
    over, under = z >= height, z < 0.0       # the rounding of the quotient
    z = np.where(over, z - height, z)
    z = np.where(under, z + height, z)
    q = q.astype(np.int64) + over - under
    xn, yn = phases.orbit(q + sheets)
    return phases.to_unit(xn), phases.to_unit(yn), z - sheets * height


def trivial_conjugacy_check(
    roof: Roof,
    f: SkewShift,
    u: FiberedTrigPoly,
    c_phi: float,
    times: Sequence[float],
    points: int = 100,
    seed: int = 0,
) -> List[float]:
    """Max deviation of the shear conjugacy between the roof flow and the
    constant suspension of the same mean height, one per time in ``times``.

    First verifies u o f - u = Phi - c_phi on a 128^2 grid (raising
    NotACoboundary otherwise), then compares, at ``points`` phase points
    uniform in [0, 1)^2 x [0, certified_min) (the Philox stream keyed by
    (seed, 0)), the flow-then-shear image against the
    shear-then-constant-flow image, both reduced in their quotients, the
    latter once per time from each point's exact numerators.  A point's
    deviation is the least over the sheets -1, 0 and +1 of the constant
    suspension's fundamental domain; the result is a max over the points,
    so any points below the roof serve.
    """
    if not u.real:
        raise ValueError("transfer function must be real-flagged")
    residual = coboundary_residual(f, u, roof.phi, c_phi)
    if residual > 1e-9:
        raise NotACoboundary(
            f"u o f - u differs from Phi - {c_phi} by up to {residual:.3e}"
        )
    below = Cube(0.0, 1.0, 0.0, 1.0, roof.certified_min)
    xs, ys, zs = _uniform_in(_stream(seed, 0), points, below)
    start = PhaseNumerators(f.alpha, f.beta, xs, ys)
    sheared = zs + u.evaluate(xs, ys)
    sheets = np.array([[-1], [0], [1]])
    out = []
    for t, (mx, my, mz) in zip(times, _flow_lanes(roof, f, xs, ys, zs, times)):
        ax, ay, az = _reduce_constant_quotient(
            PhaseNumerators(f.alpha, f.beta, mx, my), mz + u.evaluate(mx, my), c_phi
        )
        bx, by, bz = _reduce_constant_quotient(start, sheared + t, c_phi, sheets)
        dist = np.maximum(circle_distance(ax, bx), circle_distance(ay, by))
        dev = np.maximum(dist, np.abs(az - bz)).min(axis=0)      # over sheets
        out.append(float(np.max(dev, initial=0.0)))
    return out

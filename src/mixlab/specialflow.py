"""Special flows over the skew-shift: the unit-speed vertical flow under a
positive roof function, its invariant measure, and the mixing estimators.

A roof Phi > 0 turns the base map f into a flow on {(x, y, z): 0 <= z <
Phi(x, y)} by moving up at unit speed and dropping to (f(x,y), 0) at the
roof.  The number of base steps taken by time t from height z is the
largest n with Phi_n(x, y) < t + z; large oscillation of Phi_n along
y-fibers shears vertical segments across many fundamental domains, which
is the mechanism the estimators here quantify.

Every flow and hit count, of one point or of many, runs one kernel
(``_climb_lanes``): the lanes walk the exact orbit of their base points
(``phases.PhaseNumerators``) in tiles of steps, the roof is evaluated on
the exact orbit numerators (``FiberedTrigPoly.at``), and a cumulative sum
per tile finds each lane's crossing.  A lane's result does not depend on
the other lanes, so the scalar and the many-lane paths agree bit for bit,
and no position drifts from the exact orbit at any time.  The
trivial-roof conjugacy check flows all its points as lanes and reduces
them in the constant suspension on the same exact orbits.

All Monte-Carlo paths use counter-based streams (one Philox key per
fixed-size sample block), so estimates are bit-identical for any worker
count or scheduling.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .cohomology import coboundary_residual
from .errors import NonPositiveRoof, NotACoboundary
from .phases import PhaseNumerators, circle_distance, frac
from .skewshift import (
    _SWEEP_BLOCK,
    SkewShift,
    _check_steps,
    _grid_sweep,
    midgrid,
    project,
    stretch,
    vfrac,
)
from .trigpoly import FiberedTrigPoly

# Fixed Monte-Carlo block size; the per-block Philox key makes sample i
# depend only on (seed, i // _BLOCK, i % _BLOCK).
_BLOCK = 65536

# Lanes climbed together, so that a tile of _SWEEP_BLOCK lane-steps can
# span 16 steps.
_LANE_GROUP = _SWEEP_BLOCK // 16

# Fewest steps a climb tile spans, unless the step limit comes first.
_MIN_TILE = 8


@dataclass(frozen=True)
class Roof:
    """A certified-positive roof function with its global bounds.

    certified_min <= Phi <= certified_max everywhere, with certified_min
    > 0; ``slack`` is the width of the certification margin actually
    achieved by the grid + Lipschitz bound and ``slack_target`` the width
    asked for; ``slack`` exceeds it when the evaluation budget forced a
    coarser grid.
    """

    phi: FiberedTrigPoly
    certified_min: float
    certified_max: float
    mean: float
    slack: float
    slack_target: Optional[float] = None


# Most points certify_roof's grid may hold; past it the slack target is
# relaxed.
_CERTIFY_BUDGET = 2.5e8

# _grid_extrema evaluates every _COARSE_STRIDE-th y-row first, then bounds
# the rows between _COARSE_SPAN coarse rows at a time.  It evaluates about
# _CERTIFY_CHUNK complex grid values per product, in products of a
# multiple of _ALIGN rows or in the tails of blocks of _DENSE_BLOCK values,
# so that every value is rounded as in a whole-grid evaluation in such
# blocks (the certificate, and every sample stream scaled by it, is fixed
# by that evaluation).
_COARSE_STRIDE = 32
_COARSE_SPAN = 2 ** 14
_CERTIFY_CHUNK = 2 ** 18
_ALIGN = 16
_DENSE_BLOCK = 2 ** 22


def certify_roof(phi: FiberedTrigPoly, slack_target: float = 1e-3) -> Roof:
    """Certify global bounds of a real roof by a grid plus Lipschitz slack.

    Per-axis Lipschitz constants come from the coefficients
    (L = 2 pi sum |freq| |c|); the per-axis grid is sized so the combined
    slack meets ``slack_target``, relaxed by doubling when that would
    exceed the grid budget; the Roof records both the target and the
    slack achieved.  The grid's extrema are exact, but only the y-rows
    that can hold them are evaluated: every 32nd row, then the rows whose
    Lipschitz bound from those reaches past their extrema.  Raises
    NonPositiveRoof when the certified lower bound is not positive, and
    ValueError when even the coarsest grid the frequencies allow exceeds
    the budget.
    """
    if not phi.real:
        raise ValueError("roof must be real-flagged")
    lip_x = 2.0 * math.pi * sum(abs(m) * abs(c) for m, _, c in phi.modes())
    lip_y = 2.0 * math.pi * sum(abs(k) * abs(c) for _, k, c in phi.modes())
    floor_x = max(16, 8 * phi.max_freq_x)
    floor_y = max(16, 8 * phi.degree_y)
    if floor_x * floor_y > _CERTIFY_BUDGET:
        raise ValueError(
            f"roof frequencies too high to certify: a {floor_x} x {floor_y} "
            f"grid exceeds {_CERTIFY_BUDGET:g} points"
        )

    def grids(target: float) -> Tuple[int, int]:
        gx = max(floor_x, math.ceil(lip_x / target))
        gy = max(floor_y, math.ceil(lip_y / target))
        return gx, gy

    target = slack_target
    gx, gy = grids(target)
    while gx * gy > _CERTIFY_BUDGET:
        target *= 2.0
        gx, gy = grids(target)

    lo, hi = _grid_extrema(phi, gx, gy, lip_y)
    slack = lip_x / (2.0 * gx) + lip_y / (2.0 * gy)
    cmin, cmax = lo - slack, hi + slack
    if cmin <= 0.0:
        raise NonPositiveRoof(
            f"certified lower bound {cmin:.6g} is not positive"
        )
    return Roof(phi, cmin, cmax, phi.mean(), slack, slack_target)


def _grid_extrema(
    phi: FiberedTrigPoly, gx: int, gy: int, lip_y: float
) -> Tuple[float, float]:
    """Min and max of the real roof over the gx x gy midpoint grid, bit for
    bit as one evaluation of the whole grid gives them, from the y-rows
    that can hold them.

    Every _COARSE_STRIDE-th row is evaluated first.  Along a column the
    roof moves by at most lip_y |y - y'|, so the extrema of every other
    row lie within that of those of the coarse rows on either side (past
    the last coarse row, row 0 one period up); only the rows whose bounds
    reach past the coarse extrema are evaluated.
    """
    xs = midgrid(gx)
    ks = sorted(phi.fiber.keys())
    coeff = np.array([phi.c(k).evaluate_complex(xs) for k in ks])   # (n_k, gx)
    ys = midgrid(gy)
    # Grid values are columns of one matrix product, and BLAS rounds the
    # columns past the last multiple of its kernel width through other
    # kernels.  Each row gets the value a whole-grid evaluation in blocks of
    # `dense` rows gives it: a row among the last (block size mod 16) rows
    # of its block is evaluated with that whole tail, and every other row
    # in a product of a multiple of 16 rows.
    dense = min(gy, _DENSE_BLOCK // gx + 1)
    per = max(_ALIGN, _CERTIFY_CHUNK // gx // _ALIGN * _ALIGN)

    def values(rows: np.ndarray) -> np.ndarray:
        phase = np.exp(2j * np.pi * np.outer(ks, ys[rows]))
        return (coeff.T @ phase).real                       # (gx, rows)

    def row_extrema(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Min and max of the roof over the x-grid on each given y-row."""
        low, high = np.empty(rows.size), np.empty(rows.size)
        start = rows - rows % dense
        end = np.minimum(start + dense, gy)
        tail = start + (end - start) // _ALIGN * _ALIGN
        in_tail = rows >= tail
        for t0, t1 in set(zip(tail[in_tail].tolist(), end[in_tail].tolist())):
            vals = values(np.arange(t0, t1))
            pick = np.flatnonzero(in_tail & (tail == t0))
            low[pick] = vals.min(axis=0)[rows[pick] - t0]
            high[pick] = vals.max(axis=0)[rows[pick] - t0]
        rest = np.flatnonzero(~in_tail)
        for b in range(0, rest.size, per):
            pick = rest[b : b + per]
            # repeat rows up to a multiple of _ALIGN
            padded = np.resize(rows[pick], -(-pick.size // _ALIGN) * _ALIGN)
            vals = values(padded)[:, : pick.size]
            low[pick] = vals.min(axis=0)
            high[pick] = vals.max(axis=0)
        return low, high

    S = _COARSE_STRIDE
    row_lo, row_hi = row_extrema(np.arange(0, gy, S))
    lo, hi = float(row_lo.min()), float(row_hi.max())
    row_lo = np.append(row_lo, row_lo[0])
    row_hi = np.append(row_hi, row_hi[0])
    # a margin far above the rounding of the values and of the bounds
    scale = phi.sup_bound()
    margin = 1e-9 * (1 + phi.max_freq_x + phi.degree_y) * scale + 1e-12
    r = np.arange(S)                  # row offsets past each coarse row
    step = lip_y / gy
    for b0 in range(0, row_lo.size - 1, _COARSE_SPAN):
        b = np.arange(b0, min(b0 + _COARSE_SPAN, row_lo.size - 1))[:, None]
        span = np.minimum(gy - b * S, S)          # rows up to the next one
        up, down = step * r, step * (span - r)
        low = np.maximum(row_lo[b] - up, row_lo[b + 1] - down)
        high = np.minimum(row_hi[b] + up, row_hi[b + 1] + down)
        reach = (low - margin < lo) | (high + margin > hi)
        reach &= (r > 0) & (r < span)
        rows = b0 * S + np.flatnonzero(reach)        # row b * S + r
        if rows.size:
            rmin, rmax = row_extrema(rows)
            lo = min(lo, float(rmin.min()))
            hi = max(hi, float(rmax.max()))
    return lo, hi


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
    cannot reach.  The one-lane case of ``_climb_lanes``.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    return int(_climb_lanes(roof, f, [p.x], [p.y], [t + p.z])[0][0])


def flow_at(roof: Roof, f: SkewShift, p: FlowPoint, t: float) -> FlowPoint:
    """Time-t image of p under the suspension flow; t may be negative.

    The one-lane case of ``_flow_lanes``.
    """
    x, y, z = _flow_lanes(roof, f, [p.x], [p.y], [p.z], t)
    return FlowPoint(float(x[0]), float(y[0]), float(z[0]))


def _climb_lanes(
    roof: Roof,
    f: SkewShift,
    xs,
    ys,
    targets,
    backward: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    """(n, total) per lane: n the largest with Phi_n(x, y) < target, and
    total = Phi_n(x, y).  The step limit of a lane is int(target /
    certified_min) + 2: every climb stops there even when roundoff, or an
    overstated minimum, would keep it climbing.  Raises ValueError for a
    target that is not finite or whose limit passes 2^40
    (``skewshift._check_steps``).

    With ``backward`` the sums run along the backward orbit instead,
    Phi(f^-1 p) + ... + Phi(f^-n p), and n stops one step short of the
    limit.  The lanes walk the exact orbit in lock-step, in tiles of at
    most ``_SWEEP_BLOCK`` lane-steps: a tile takes the orbit numerators of
    one block of steps (``PhaseNumerators.orbit``), their roof values
    (``FiberedTrigPoly.at``) and a cumulative sum seeded with the running
    totals.
    The sums never decrease, so the count of those below the target is the
    strict crossing, ties going to the smaller n; a lane that has crossed
    drops out.  Each lane's sums are sequential and its own, so its result
    does not depend on the other lanes or on the tiling: one lane is
    ``hit_count``.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    targets = np.asarray(targets, dtype=float)
    _check_steps(float(np.max(targets, initial=0.0)) / roof.certified_min)
    room = (np.maximum(targets, 0.0) / roof.certified_min).astype(np.int64)
    room += 1 if backward else 2
    n = np.zeros(targets.shape, dtype=np.int64)
    total = np.zeros(targets.shape)
    for g in range(0, targets.size, _LANE_GROUP):
        lanes = np.arange(g, min(g + _LANE_GROUP, targets.size))
        phases = PhaseNumerators(f.alpha, f.beta, xs[lanes], ys[lanes])
        done = 0                  # steps taken by every lane still climbing
        while lanes.size:
            # no lane can cross in fewer steps than its gap to the target
            # over the roof's maximum: long tiles far from the crossings,
            # short ones near them, which saves evaluations past a crossing
            gap = float(np.min(targets[lanes] - total[lanes])) / roof.certified_max
            block = min(
                _SWEEP_BLOCK // lanes.size,
                max(_MIN_TILE, int(gap)),
                int(room[lanes].max()) - done,
            )
            j = done + np.arange(block, dtype=np.int64)[:, None]
            xn, yn = phases.orbit(-1 - j if backward else j)       # (B, L)
            sums = _running_sums(total[lanes], roof.phi.at(phases, xn, yn))
            left = room[lanes] - done
            below = np.minimum(
                np.count_nonzero(sums[1:] < targets[lanes], axis=0), left
            )
            n[lanes] = done + below
            total[lanes] = sums[below, np.arange(lanes.size)]
            climbing = (below == block) & (left > block)
            lanes = lanes[climbing]
            phases = phases.lanes(climbing)
            done += block
    return n, total


def _running_sums(start: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Rows start, start + vals[0], (start + vals[0]) + vals[1], ...: one
    sequential sum down each column.  Tiles of 64 lanes or more add row by
    row, which numpy does several times faster than a cumulative sum down
    the columns; both add in the same order."""
    if vals.shape[1] < 64:
        return np.cumsum(np.concatenate((start[None], vals)), axis=0)
    sums = np.empty((vals.shape[0] + 1, vals.shape[1]))
    sums[0] = start
    for i, row in enumerate(vals):
        np.add(sums[i], row, out=sums[i + 1])
    return sums


def _flow_lanes(
    roof: Roof,
    f: SkewShift,
    xs: np.ndarray,
    ys: np.ndarray,
    zs: np.ndarray,
    t: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Time-t images of the points (xs, ys, zs) under the suspension flow,
    for one time t of either sign; one lane is ``flow_at``, bit for bit.

    Forward, a lane climbs (``_climb_lanes``) to the largest n with
    Phi_n < t + z and keeps the rest as its height; on a float tie with the
    roof it moves to f^{n+1} p at height 0.  Backward, it descends to the
    smallest n with z + t + Phi(f^-1 p) + ... + Phi(f^-n p) >= 0.  Both
    take at most the step limit of ``_climb_lanes``, and the positions are
    exact orbit points rounded once.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    zs = np.asarray(zs, dtype=float)
    phases = PhaseNumerators(f.alpha, f.beta, xs, ys)
    if t >= 0:
        target = zs + t
        n, total = _climb_lanes(roof, f, xs, ys, target)
        z = target - total
        xn, yn = phases.orbit(n)
        tie = z >= roof.phi.at(phases, xn, yn)[0]
        if np.any(tie):
            xn, yn = phases.orbit(n + tie)
            z = np.where(tie, 0.0, z)
    else:
        w = zs + t
        n, total = _climb_lanes(roof, f, xs, ys, -w, backward=True)
        down = w < 0.0
        n = n + down                     # the step that crosses height 0
        xn, yn = phases.orbit(-n)
        last = roof.phi.at(phases, xn, yn)[0]
        z = np.where(down, w + (total + last), w)
    return phases.to_unit(xn)[0], phases.to_unit(yn)[0], z


def _hit_count_lanes(
    roof: Roof, f: SkewShift, xs: np.ndarray, ys: np.ndarray, t: float
) -> np.ndarray:
    """Hit counts from height z = 0 at time t; one lane is ``hit_count``."""
    target = t + 0.0                      # as hit_count forms t + z at z = 0
    return _climb_lanes(roof, f, xs, ys, np.full(np.shape(xs), target))[0]


# --------------------------------------------------------------------------
# Invariant-measure sampling
# --------------------------------------------------------------------------


def _sample_block(
    roof: Roof, seed: int, block_index: int, count: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` accepted samples from the normalised invariant measure.

    Rejection against the box of height certified_max, with the roof
    values of ``FiberedTrigPoly.at``; the stream is a Philox generator
    keyed by (seed, block_index), so the accepted points are a pure
    function of those two integers.
    """
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, block_index], dtype=np.uint64))
    )
    xs = np.empty(count)
    ys = np.empty(count)
    zs = np.empty(count)
    need = np.arange(count)
    while need.size:
        draw = rng.random((need.size, 3))
        x = draw[:, 0]
        y = draw[:, 1]
        z = draw[:, 2] * roof.certified_max
        # random() draws are multiples of 2^-53: exact numerators over 2^53
        phases = PhaseNumerators(0.0, 0.0, x, y)
        ok = z < roof.phi.at(phases, *phases.orbit(0))[0]
        got = need[ok]
        xs[got] = x[ok]
        ys[got] = y[ok]
        zs[got] = z[ok]
        need = need[~ok]
    return xs, ys, zs


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
    draws; each block of draws is sampled once and its points in Q1 are
    flowed to every time.  mu(Q1) mu(Q2) is computed analytically.
    Block-wise integer counting keeps the result independent of the worker
    count, and of which other times are asked for.
    """
    if samples < 1000:
        raise ValueError("samples must be >= 1000")
    _require_cube_fits(roof, q1)
    _require_cube_fits(roof, q2)
    times = [float(t) for t in times]

    def block_counts(b: int) -> List[int]:
        start = b * _BLOCK
        count = min(_BLOCK, samples - start)
        xs, ys, zs = _sample_block(roof, seed, b, count)
        in1 = q1.contains(xs, ys, zs)
        xs, ys, zs = xs[in1], ys[in1], zs[in1]
        return [
            int(np.count_nonzero(q2.contains(*_flow_lanes(roof, f, xs, ys, zs, t))))
            for t in times
        ]

    blocks = range((samples + _BLOCK - 1) // _BLOCK)
    counts = _map(block_counts, blocks, workers)
    product = cube_measure(roof, q1) * cube_measure(roof, q2)
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
    fiber arc from y1 to y2 (read as a circle arc) at x, and its length."""
    y1, y2 = arc
    length = y2 - y1 if y2 > y1 else y2 - y1 + 1.0
    ys = vfrac(y1 + length * (np.arange(resolution) + 0.5) / resolution)
    return length, np.full(resolution, frac(x)), ys


def fiber_mixing_profile(
    roof: Roof,
    f: SkewShift,
    x: float,
    arc: Tuple[float, float],
    cube: Cube,
    t: float,
    resolution: int = 256,
) -> float:
    """Length of {x} x [y', y''] (at z = 0) carried into the cube at time t.

    Evaluated as (fraction of a y-grid on the arc whose flow image lies
    in the cube) times the arc length.
    """
    if resolution < 256:
        raise ValueError("resolution must be >= 256")
    _require_cube_fits(roof, cube)
    length, xs, ys = _arc_points(x, arc, resolution)
    zs = np.zeros(resolution)
    fx, fy, fz = _flow_lanes(roof, f, xs, ys, zs, t)
    inside = cube.contains(fx, fy, fz)
    return float(np.count_nonzero(inside)) / resolution * length


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

    The grid is a proxy for the fiber extrema; its error is about one
    grid cell of Phi_{n_lo} variation.
    """
    if t <= 0:
        raise ValueError("t must be > 0")
    _, xs, ys = _arc_points(x, arc, resolution)
    counts = _hit_count_lanes(roof, f, xs, ys, t)
    n_lo, n_hi = int(counts.min()), int(counts.max())
    if n_lo >= 1:
        spread = stretch(f, roof.phi, x, arc, n_lo, max(64, resolution))
    else:
        spread = 0.0
    top, bot = roof.certified_max, roof.certified_min
    lower = spread / top - top / bot
    upper = spread / bot + top / bot
    gap = n_hi - n_lo
    return IterationBounds(
        n_lo, n_hi, spread, lower, upper, lower <= gap, gap <= upper
    )


def hitting_complement_measure(
    roof: Roof,
    f: SkewShift,
    t: float,
    C: float,
    grid: int = 256,
    y_resolution: int = 64,
    workers: int = 1,
) -> float:
    """The share of x whose fiber shows no large Birkhoff value at the
    minimal hit count.

    For each grid x: n(x) = min over a y-grid of the z = 0 hit count at
    time t, then x qualifies when the y-grid maximum of
    |phi_{n(x)}(x, .)| exceeds C (phi the zero-fiber-average part of the
    roof).  Returns the fraction that fails to qualify.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if C <= 1.0:
        raise ValueError("C must be > 1")
    if grid < 256:
        raise ValueError("grid must be >= 256")
    osc, _ = project(roof.phi)
    xs = midgrid(grid)
    ys = midgrid(y_resolution)

    span = 32

    def column_stops(i0: int) -> np.ndarray:
        cols = xs[i0 : i0 + span]
        nc = cols.shape[0]
        X = np.repeat(cols, y_resolution)
        Y = np.tile(ys, nc)
        counts = _hit_count_lanes(roof, f, X, Y, t).reshape(nc, y_resolution)
        return counts.min(axis=1)

    stops = np.concatenate(_map(column_stops, range(0, grid, span), workers))
    ks, mat = _coeffs_at_stops(f, osc, xs, stops)
    ky = np.exp(2j * np.pi * np.outer(ks, ys))
    sup = np.abs(mat.T @ ky).max(axis=1)
    return 1.0 - int(np.count_nonzero(sup > C)) / grid


def _coeffs_at_stops(f, phi, cols, stops):
    """(ks, matrix) with column i holding c_{k,n}(cols[i]) at n = stops[i].

    ``cols`` is the midpoint grid of size len(cols).  One grid sweep with
    the distinct stops as checkpoints serves every column.
    """
    stops = np.asarray(stops, dtype=np.int64)
    mat = np.zeros((len(phi.fiber), len(cols)), dtype=complex)
    for n, coeffs in _grid_sweep(f, phi, np.unique(stops), len(cols)):
        hit = stops == n
        mat[:, hit] = coeffs[:, hit]
    return np.array(sorted(phi.fiber.keys())), mat


# --------------------------------------------------------------------------
# Trivial-roof conjugacy
# --------------------------------------------------------------------------


def _reduce_constant_quotient(
    f: SkewShift, xs: np.ndarray, ys: np.ndarray, zs: np.ndarray, height: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The points (xs, ys, zs) of the constant suspension of the given
    height, moved to its fundamental domain 0 <= z < height: q = floor(z /
    height) base steps, taken on the exact orbit, and z - q * height."""
    q = np.floor(zs / height)
    z = zs - q * height
    over, under = z >= height, z < 0.0       # the rounding of the quotient
    z = np.where(over, z - height, z)
    z = np.where(under, z + height, z)
    q = q.astype(np.int64) + over - under
    phases = PhaseNumerators(f.alpha, f.beta, xs, ys)
    xn, yn = phases.orbit(q)
    return phases.to_unit(xn)[0], phases.to_unit(yn)[0], z


def trivial_conjugacy_check(
    roof: Roof,
    f: SkewShift,
    u: FiberedTrigPoly,
    c_phi: float,
    t: float,
    points: int = 100,
    seed: int = 0,
) -> float:
    """Max deviation of the shear conjugacy between the roof flow and the
    constant suspension of the same mean height.

    First verifies u o f - u = Phi - c_phi on a 128^2 grid (raising
    NotACoboundary otherwise), then compares, at ``points`` sampled
    phase points, the flow-then-shear image against the
    shear-then-constant-flow image, both reduced in their quotients.
    The returned deviation is measured up to the fundamental-domain
    identification of the constant suspension.
    """
    if not u.real:
        raise ValueError("transfer function must be real-flagged")
    residual = coboundary_residual(f, u, roof.phi, c_phi)
    if residual > 1e-9:
        raise NotACoboundary(
            f"u o f - u differs from Phi - {c_phi} by up to {residual:.3e}"
        )
    xs, ys, zs = _sample_block(roof, seed, 0, points)
    mx, my, mz = _flow_lanes(roof, f, xs, ys, zs, t)
    lhs = _reduce_constant_quotient(f, mx, my, mz + u.evaluate(mx, my), c_phi)
    sx, sy, sz = _reduce_constant_quotient(
        f, xs, ys, zs + u.evaluate(xs, ys), c_phi
    )
    rhs = _reduce_constant_quotient(f, sx, sy, sz + t, c_phi)
    return float(np.max(_quotient_distance(f, lhs, rhs, c_phi), initial=0.0))


def _quotient_distance(f, a, b, height) -> np.ndarray:
    """Distance of two sets of constant-suspension points across sheet
    choices: b is also compared one base step up and down."""
    phases = PhaseNumerators(f.alpha, f.beta, b[0], b[1])
    best = np.full(np.shape(b[2]), math.inf)
    for k in (-1, 0, 1):
        xn, yn = phases.orbit(np.full(np.shape(b[2]), k))
        x, y = phases.to_unit(xn)[0], phases.to_unit(yn)[0]
        dist = np.maximum(
            np.maximum(circle_distance(a[0], x), circle_distance(a[1], y)),
            np.abs(a[2] - (b[2] - k * height)),
        )
        best = np.minimum(best, dist)
    return best

"""Fourier analysis of the skew-shift acting on L^2 of the 2-torus.

The matrix [[1, 1], [0, 1]] acting on frequency space splits L^2 into
invariant blocks: the modes (m, 0) (functions of x alone, handled by the
circle-rotation solver in ``skewshift``) and, for every n != 0 and
residue m in [0, |n|), the block spanned by {e_{m+jn, n} : j in Z}.

On each block a single linear functional obstructs solving the
difference equation u o f - u = Phi: with the quadratic phases

    theta_j = (alpha m + beta n) j + alpha n binom(j, 2),

it is D(Phi) = sum_j Phi_j e^{-2 pi i theta_j}.  When D vanishes the
transfer function has the explicit one-sided-sum solution implemented in
``solve_component`` (``solve_roof`` solves a whole roof, the fiber
average through the circle rotation); the same phases give an exact
closed-form window sum for the L^2 norm of Birkhoff sums, an effective
test of the N^{1/2} growth along continued-fraction denominators of
alpha, and the mixing/trivial classification of roof functions.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

from .errors import NonzeroFiberAverage, ObstructionNonzero, RationalAlpha
from .phases import PhaseNumerators
from .skewshift import (
    SkewShift,
    fiber_coefficients_on_grid,
    grid_blocks,
    grid_sup,
    midgrid,
    project,
    rotation_transfer,
    skew_coboundary,
)
from .trigpoly import FiberedTrigPoly, TrigPoly1D


@dataclass(frozen=True)
class OrbitLabel:
    """Canonical label (m, n) of the frequency block {(m + j n, n)}."""

    m: int
    n: int

    def __post_init__(self):
        if self.n == 0:
            raise ValueError("n must be nonzero")
        if not 0 <= self.m < abs(self.n):
            raise ValueError("m must lie in [0, |n|)")

    def index_of(self, a: int) -> int:
        """j with (a, n) = (m + j n, n); raises if a is not on the orbit."""
        j, r = divmod(a - self.m, self.n)
        if r != 0:
            raise ValueError(f"frequency ({a}, {self.n}) not in block {self}")
        return j


@dataclass(frozen=True)
class ComponentSpectrum:
    """Finitely supported coefficients {j: Phi_j} of one frequency block."""

    label: OrbitLabel
    coeffs: Dict[int, complex] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(
            self,
            "coeffs",
            {j: complex(c) for j, c in sorted(self.coeffs.items()) if c != 0},
        )

    def l2_norm(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for c in self.coeffs.values()))

    def support(self) -> Tuple[int, int]:
        """(min j, max j); raises on the empty spectrum."""
        keys = list(self.coeffs)
        if not keys:
            raise ValueError("empty spectrum has no support")
        return min(keys), max(keys)

    def is_zero(self) -> bool:
        return not self.coeffs

    def as_fibered(self) -> FiberedTrigPoly:
        """The block element as a function on the torus (complex-valued)."""
        n = self.label.n
        return FiberedTrigPoly.from_modes(
            {(self.label.m + j * n, n): c for j, c in self.coeffs.items()}
        )

    def compose_map(self, f: SkewShift) -> "ComponentSpectrum":
        """Spectrum of Phi o f: index shift j -> j + 1 with a unit phase."""
        n = self.label.n
        ph = PhaseNumerators(f.alpha, f.beta)
        a, b = ph.linear_quadratic(np.array([1]))
        out: Dict[int, complex] = {}
        for j, c in self.coeffs.items():
            theta = float(ph.to_unit(ph.mode(a, b, self.label.m + j * n, n))[0])
            out[j + 1] = c * cmath.exp(2j * math.pi * theta)
        return ComponentSpectrum(self.label, out)


@dataclass(frozen=True)
class DistributionValue:
    """Value of the invariant functional on one frequency block."""

    label: OrbitLabel
    value: complex

    @property
    def magnitude(self) -> float:
        return abs(self.value)


def _theta_phases(label: OrbitLabel, f: SkewShift, js) -> List[float]:
    """theta_j mod 1 for every j in ``js``, each reduced exactly before its
    one rounding: theta_j = m (j alpha) + n s_j, with s_j = j beta +
    binom(j, 2) alpha (``PhaseNumerators``)."""
    ph = PhaseNumerators(f.alpha, f.beta)
    lin, quad = ph.linear_quadratic(np.array(js, dtype=np.int64))
    return ph.to_unit(ph.mode(lin, quad, label.m, label.n)).tolist()


def decompose_components(
    phi: FiberedTrigPoly,
) -> Tuple[TrigPoly1D, List[ComponentSpectrum]]:
    """Route every 2-D Fourier mode to its invariant block.

    Modes (a, 0) collect into the returned circle polynomial; a mode
    (a, b) with b != 0 lands in block (a mod |b|, b) at index
    j = (a - m)/b.  Reconstruction from the output is exact.
    """
    h0 = dict(phi.c(0).coeffs)
    blocks: Dict[Tuple[int, int], Dict[int, complex]] = {}
    for m, k, c in phi.modes():
        if k == 0:
            continue
        res = m % abs(k)
        j = (m - res) // k
        blocks.setdefault((res, k), {})[j] = c
    components = [
        ComponentSpectrum(OrbitLabel(res, k), coeffs)
        for (res, k), coeffs in sorted(
            blocks.items(), key=lambda kv: (kv[0][1], kv[0][0])
        )
    ]
    return TrigPoly1D(h0, real=phi.real), components


def evaluate_distribution(f: SkewShift, S: ComponentSpectrum) -> DistributionValue:
    """D(Phi) = sum_j Phi_j e^{-2 pi i theta_j}, phases reduced exactly."""
    total = 0.0 + 0.0j
    thetas = _theta_phases(S.label, f, list(S.coeffs))
    for c, theta in zip(S.coeffs.values(), thetas):
        total += c * cmath.exp(-2j * math.pi * theta)
    return DistributionValue(S.label, total)


def solve_component(
    f: SkewShift, S: ComponentSpectrum, tol: float = 1e-9
) -> ComponentSpectrum:
    """Transfer function u with u o f - u = Phi on one frequency block.

    Requires |D(Phi)| <= tol * ||Phi||_2 (raises ObstructionNonzero
    otherwise).  Uses the left partial sums

        u_j = -e^{2 pi i theta_j} sum_{k <= j} Phi_k e^{-2 pi i theta_k},

    truncated to [min support, max support - 1]; the value there is
    exactly -D times a unit phase, so truncation is consistent with the
    precondition.  The right-sided sums differ from the left-sided ones
    by exactly D on each index and are evaluated as a consistency check.
    """
    if S.is_zero():
        return ComponentSpectrum(S.label, {})
    D = evaluate_distribution(f, S)
    norm = S.l2_norm()
    if D.magnitude > tol * norm:
        raise ObstructionNonzero(S.label, D.value, tol * norm)
    lo, hi = S.support()
    js = range(lo, hi + 1)
    phases = dict(zip(js, _theta_phases(S.label, f, js)))
    reduced = {
        j: S.coeffs.get(j, 0.0) * cmath.exp(-2j * math.pi * phases[j])
        for j in range(lo, hi + 1)
    }
    out: Dict[int, complex] = {}
    partial = 0.0 + 0.0j
    for j in range(lo, hi):
        partial += reduced[j]
        out[j] = -cmath.exp(2j * math.pi * phases[j]) * partial
    # right-sided form; exact identity: left - right = -e^{i theta} D
    tail = 0.0 + 0.0j
    worst = 0.0
    for j in range(hi - 1, lo - 1, -1):
        tail += reduced[j + 1]
        right = cmath.exp(2j * math.pi * phases[j]) * tail
        worst = max(worst, abs(out[j] - right))
    if worst > tol * norm + 64 * np.finfo(float).eps * (norm + 1.0):
        raise ObstructionNonzero(S.label, D.value, tol * norm)
    return ComponentSpectrum(S.label, out)


@dataclass(frozen=True)
class ClassifierReport:
    """Outcome of the mixing/trivial decision with all block values."""

    verdict: str                       # "mixing" | "trivial"
    entries: Tuple[DistributionValue, ...]
    phi_l2: float
    tol: float

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "phi_l2": self.phi_l2,
            "tol": self.tol,
            "distributions": [
                {
                    "m": d.label.m,
                    "n": d.label.n,
                    "re": d.value.real,
                    "im": d.value.imag,
                    "abs": d.magnitude,
                }
                for d in self.entries
            ],
            # blocks whose functional cancelled to an exact float zero,
            # as opposed to merely falling below the tolerance
            "exact_zeros": [
                {"m": d.label.m, "n": d.label.n}
                for d in self.entries
                if d.magnitude == 0.0
            ],
        }


def classify_roof(
    f: SkewShift, phi: FiberedTrigPoly, tol: float = 1e-9
) -> ClassifierReport:
    """Mixing iff some block functional exceeds tol * ||phi||_2.

    Only the zero-fiber-average part phi of the input enters; adding
    functions of x alone or rescaling by a positive constant cannot
    change the verdict.  Positivity of the input is NOT required here:
    the classification is a formal Fourier evaluation.
    """
    osc, _ = project(phi)
    _, components = decompose_components(osc)
    entries = tuple(evaluate_distribution(f, S) for S in components)
    norm = osc.l2_norm()
    mixing = any(d.magnitude > tol * norm for d in entries)
    return ClassifierReport(
        "mixing" if mixing else "trivial", entries, norm, tol
    )


def ergodic_sum_l2(f: SkewShift, S: ComponentSpectrum, N: int) -> float:
    """Exact squared L^2 norm of the N-th Birkhoff sum of a block element.

    With r_j = Phi_j e^{-2 pi i theta_j}, it equals the sum over l of the
    windows |sum_{j=l-N+1}^{l} r_j|^2; each pair j, j' of the support
    shares max(0, N - |j - j'|) windows, so the total is

        sum_{j, j'} r_j conj(r_j') max(0, N - |j - j'|),

    O(|S|^2) work for any N.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if S.is_zero():
        return 0.0
    js = np.array(list(S.coeffs))
    r = np.array([
        c * cmath.exp(-2j * math.pi * theta)
        for c, theta in zip(S.coeffs.values(), _theta_phases(S.label, f, js))
    ])
    shared = np.maximum(0.0, float(N) - np.abs(js[:, None] - js[None, :]))
    return float((r @ shared @ r.conj()).real)


def solve_roof(
    f: SkewShift, phi: FiberedTrigPoly, tol: float = 1e-9
) -> Tuple[FiberedTrigPoly, float]:
    """Full transfer u and mean with u o f - u = Phi - mean.

    Solves block by block on the zero-fiber-average part
    (``solve_component``) and through the circle-rotation divisors on the
    fiber average.  Raises ObstructionNonzero on a block with a large
    invariant functional and SmallDivisor on a resonant circle frequency.
    A real Phi gives a real-flagged u.
    """
    osc, perp = project(phi)
    _, components = decompose_components(osc)
    modes: Dict[Tuple[int, int], complex] = {}
    for S in components:
        u = solve_component(f, S, tol=tol)
        n = u.label.n
        for j, c in u.coeffs.items():
            key = (u.label.m + j * n, n)
            modes[key] = modes.get(key, 0.0) + c
    g, mean = rotation_transfer(perp, f.alpha)
    for m, c in g.coeffs.items():
        modes[(m, 0)] = modes.get((m, 0), 0.0) + c
    u_total = FiberedTrigPoly.from_modes(modes, real=False)
    if phi.real:
        # conjugate symmetry holds to rounding; rebuild with the flag
        sym = {}
        for (m, k), c in modes.items():
            sym[(m, k)] = 0.5 * (c + modes.get((-m, -k), 0.0).conjugate())
        u_total = FiberedTrigPoly.from_modes(sym, real=True)
    return u_total, float(np.real(mean))


def coboundary_residual(
    f: SkewShift, u: FiberedTrigPoly, phi: FiberedTrigPoly, mean: float
) -> float:
    """sup |u o f - u - (Phi - mean)| on the 128^2 midpoint grid."""
    residual = skew_coboundary(u, f) - (phi + FiberedTrigPoly.constant(-mean))
    xs = midgrid(128)
    return float(np.max(np.abs(residual.evaluate(xs[:, None], xs[None, :]))))


@dataclass(frozen=True)
class ConvergentTimes:
    """Continued-fraction data of alpha: partial quotients and denominators.

    The denominators satisfy q_{l+1} = a_{l+1} q_l + q_{l-1} and are the
    renormalisation return times of the rotation by alpha; they serve as
    the sparse time sequence along which sup-norm growth of Birkhoff
    sums is tested at rate N^{1/2}.
    """

    alpha: float
    partial_quotients: Tuple[int, ...]
    denominators: Tuple[int, ...]


def convergent_times(alpha: float, L: int) -> ConvergentTimes:
    """First L continued-fraction denominators of alpha.

    The expansion is taken of the exact rational value of the float
    ``alpha``; if it terminates before L terms the input is a float-exact
    rational and RationalAlpha is raised.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if L < 1:
        raise ValueError("L must be >= 1")
    x = Fraction(alpha)
    quotients: List[int] = []
    while len(quotients) < L and x != 0:
        inv = 1 / x
        a = math.floor(inv)
        quotients.append(a)
        x = inv - a
    if len(quotients) < L:
        raise RationalAlpha(
            f"expansion of {alpha!r} terminated after {len(quotients)} terms"
        )
    q_prev, q = 0, 1
    denominators: List[int] = []
    for a in quotients:
        q_prev, q = q, a * q + q_prev
        denominators.append(q)
    return ConvergentTimes(alpha, tuple(quotients), tuple(denominators))


def uniform_bound_scan(
    f: SkewShift,
    phi: FiberedTrigPoly,
    N: int,
    grid: int = 256,
) -> float:
    """max over a grid x grid lattice of |Phi_N(x, y)| / sqrt(N).

    Requires zero fiber average (c_0 = 0).  The grid maximum is a lower
    bound for the true sup and is reported as such.
    """
    if grid < 128:
        raise ValueError("grid must be >= 128")
    if not phi.c(0).is_zero():
        raise NonzeroFiberAverage("the scan requires c_0 = 0; project first")
    if phi.is_zero():
        return 0.0
    ks, mats = fiber_coefficients_on_grid(f, phi, [N], grid=grid)
    # the modulus of the complex values, a real roof's rounding-level
    # imaginary parts included
    return grid_sup(grid_blocks(ks, mats[N], real=False)) / math.sqrt(N)

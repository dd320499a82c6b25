"""Finite Fourier series on the circle and on the 2-torus.

Two immutable value types:

* ``TrigPoly1D``   g(x)   = sum_m  c_m e^{2 pi i m x}
* ``FiberedTrigPoly``  Phi(x,y) = sum_k c_k(x) e^{2 pi i k y},  each c_k a
  ``TrigPoly1D``.

A poly flagged ``real`` stores both coefficient halves and must satisfy
c_{-m} = conj(c_m) (coefficientwise across both indices for the fibered
type); evaluation then returns the real part.  Violations raise at
construction time, so downstream code can trust the flag.

``FiberedTrigPoly.at`` is the one evaluator on torus points: at step
indices j of the lanes of a ``phases.PhaseNumerators``, it reduces every
phase m x_j + k y_j of the orbit points f^j exactly mod 1 before its one
rounding; ``evaluate`` is ``at`` at j = 0 on float points.  Lattices, the
Birkhoff-sum grids and the roof certification grid alike, go through
``skewshift.grid_blocks``, and circle points through
``TrigPoly1D.evaluate_complex``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Iterator, Mapping, Tuple

import numpy as np

from .phases import PhaseNumerators

_CONJ_TOL = 1e-12


def _clean(coeffs: Mapping[int, complex]) -> Dict[int, complex]:
    """Sorted copy with exact zeros dropped."""
    return {m: complex(c) for m, c in sorted(coeffs.items()) if c != 0}


@dataclass(frozen=True)
class TrigPoly1D:
    """Trigonometric polynomial on the circle, frequency -> coefficient."""

    coeffs: Dict[int, complex] = field(default_factory=dict)
    real: bool = False

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _clean(self.coeffs))
        if self.real:
            for m, c in self.coeffs.items():
                d = self.coeffs.get(-m, 0.0)
                if abs(d - c.conjugate()) > _CONJ_TOL * (1.0 + abs(c)):
                    raise ValueError(
                        f"real-flagged poly has c_{-m} != conj(c_{m})"
                    )

    # ---- construction helpers -------------------------------------------

    @staticmethod
    def constant(c: float) -> "TrigPoly1D":
        return TrigPoly1D({0: complex(c)}, real=True)

    @staticmethod
    def zero() -> "TrigPoly1D":
        return TrigPoly1D({}, real=True)

    # ---- queries ---------------------------------------------------------

    def coeff(self, m: int) -> complex:
        return self.coeffs.get(m, 0.0 + 0.0j)

    @property
    def max_freq(self) -> int:
        return max((abs(m) for m in self.coeffs), default=0)

    def is_zero(self) -> bool:
        return not self.coeffs

    # ---- evaluation ------------------------------------------------------

    def evaluate_complex(self, x):
        """Complex value(s) at x; a scalar x gives a numpy scalar."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape, dtype=complex)
        for m, c in self.coeffs.items():
            out += c * np.exp(2j * np.pi * m * x)
        return out[()]

    def evaluate(self, x):
        v = self.evaluate_complex(x)
        return v.real if self.real else v

    # ---- algebra ---------------------------------------------------------

    def __add__(self, other: "TrigPoly1D") -> "TrigPoly1D":
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, 0.0) + c
        return TrigPoly1D(out, real=self.real and other.real)

    def scale(self, s: complex) -> "TrigPoly1D":
        keep_real = self.real and complex(s).imag == 0.0
        return TrigPoly1D({m: s * c for m, c in self.coeffs.items()}, real=keep_real)



@dataclass(frozen=True)
class FiberedTrigPoly:
    """Function on the 2-torus, trigonometric polynomial in both variables.

    Stored fiber-major: ``fiber[k]`` is the x-coefficient polynomial of
    e^{2 pi i k y}.
    """

    fiber: Dict[int, TrigPoly1D] = field(default_factory=dict)
    real: bool = False

    def __post_init__(self):
        cleaned = {
            k: p for k, p in sorted(self.fiber.items()) if not p.is_zero()
        }
        object.__setattr__(self, "fiber", cleaned)
        if self.real:
            for k, p in cleaned.items():
                q = cleaned.get(-k, TrigPoly1D.zero())
                for m, c in p.coeffs.items():
                    d = q.coeff(-m)
                    if abs(d - c.conjugate()) > _CONJ_TOL * (1.0 + abs(c)):
                        raise ValueError(
                            f"real-flagged poly has c_({-m},{-k}) != "
                            f"conj(c_({m},{k}))"
                        )

    # ---- construction ------------------------------------------------------

    @staticmethod
    def from_modes(modes: Mapping[Tuple[int, int], complex], real: bool = False
                   ) -> "FiberedTrigPoly":
        """Build from a flat {(m, k): coefficient} map, m the x-frequency."""
        by_k: Dict[int, Dict[int, complex]] = {}
        for (m, k), c in modes.items():
            by_k.setdefault(k, {})[m] = by_k.setdefault(k, {}).get(m, 0.0) + c
        fiber = {k: TrigPoly1D(cs) for k, cs in by_k.items()}
        return FiberedTrigPoly(fiber, real=real)

    @staticmethod
    def constant(c: float) -> "FiberedTrigPoly":
        return FiberedTrigPoly({0: TrigPoly1D.constant(c)}, real=True)

    # ---- queries -------------------------------------------------------------

    def c(self, k: int) -> TrigPoly1D:
        """The coefficient polynomial of e^{2 pi i k y}."""
        return self.fiber.get(k, TrigPoly1D.zero())

    def modes(self) -> Iterator[Tuple[int, int, complex]]:
        """Iterate (m, k, coefficient) over the support, sorted."""
        for k, p in self.fiber.items():
            for m, c in p.coeffs.items():
                yield m, k, c

    @property
    def degree_y(self) -> int:
        return max((abs(k) for k in self.fiber), default=0)

    @property
    def max_freq_x(self) -> int:
        return max((p.max_freq for p in self.fiber.values()), default=0)

    def mean(self) -> float:
        """Integral over the torus (the (0,0) coefficient)."""
        return self.c(0).coeff(0).real

    def l2_norm(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for _, _, c in self.modes()))

    def is_zero(self) -> bool:
        return not self.fiber

    # ---- evaluation ------------------------------------------------------------

    def evaluate(self, x, y):
        """Values at the float points (x, y), broadcast: ``at`` on their
        exact numerators.  A real poly gives floats; a scalar point gives
        a numpy scalar."""
        shape = np.broadcast_shapes(np.shape(x), np.shape(y))
        ph = PhaseNumerators(0.0, 0.0, np.atleast_1d(x), np.atleast_1d(y))
        return self.at(ph, 0)[0].reshape(shape)[()]

    @cached_property
    def independent_modes(self) -> tuple:
        """(const, terms), computed once per polynomial.

        A real poly pairs every mode with its conjugate: one (m, k) of each
        pair, with c = c_{m,k} + conj(c_{-m,-k}), so that Phi = const +
        sum Re(c e(m x + k y)), e(t) = exp(2 pi i t), and const is real.
        A complex poly keeps every mode but (0, 0), which is const.
        """
        if not self.real:
            terms = tuple(
                (m, k, c) for m, k, c in self.modes() if (m, k) != (0, 0)
            )
            return self.c(0).coeff(0), terms
        pairs: Dict[Tuple[int, int], complex] = {}
        for m, k, c in self.modes():
            if (k, m) > (0, 0):
                pairs[(m, k)] = pairs.get((m, k), 0.0) + c
            elif (k, m) < (0, 0):
                pairs[(-m, -k)] = pairs.get((-m, -k), 0.0) + c.conjugate()
        terms = tuple(
            (m, k, c) for (m, k), c in sorted(pairs.items()) if c != 0
        )
        return self.c(0).coeff(0).real, terms

    def at(self, phases: PhaseNumerators, j, out=None, scratch=None) -> np.ndarray:
        """Values at the orbit points f^j of the lanes of ``phases``, of
        shape ``phases.shape(j)``: j is an integer step index of either
        sign, a (B, 1) block shared by the lanes or one index per lane.

        Each phase m x_j + k y_j is reduced exactly mod 1 before its one
        rounding (``PhaseNumerators.orbit_mode``).  A real poly costs one
        cos or sin per conjugate pair (both for a complex pair coefficient)
        and returns floats; a complex one costs one e(theta) per mode.
        Every orbit path evaluates here, so one point always gets one
        value.  The values go to ``out`` if given, the numerators and the
        terms to ``scratch``: two flat arrays, as long at least, of the
        numerator dtype and float, which a caller can hold.
        """
        const, terms = self.independent_modes
        shape = phases.shape(j)
        size = math.prod(shape)
        if scratch is None:
            scratch = (np.empty(size, phases.dtype), np.empty(size))
        num, term = (a[:size].reshape(shape) for a in scratch)
        if out is None:
            out = np.empty(shape, float if self.real else complex)
        out[...] = const
        for m, k, c in terms:
            phases.orbit_mode(j, m, k, out=num)
            if not self.real:
                out += c * np.exp(1j * (2.0 * np.pi * phases.to_unit(num)))
                continue
            # out - c.imag * sin is out + (-c.imag) * sin, bit for bit
            for part, wave in ((c.real, np.cos), (-c.imag, np.sin)):
                if part:
                    theta = phases.to_unit(num, out=term)
                    theta *= 2.0 * np.pi
                    out += np.multiply(wave(theta, out=theta), part, out=theta)
        return out

    # ---- algebra -----------------------------------------------------------------

    def __add__(self, other: "FiberedTrigPoly") -> "FiberedTrigPoly":
        ks = set(self.fiber) | set(other.fiber)
        fiber = {k: self.c(k) + other.c(k) for k in ks}
        return FiberedTrigPoly(fiber, real=self.real and other.real)

    def __sub__(self, other: "FiberedTrigPoly") -> "FiberedTrigPoly":
        return self + other.scale(-1.0)

    def scale(self, s: complex) -> "FiberedTrigPoly":
        keep_real = self.real and complex(s).imag == 0.0
        return FiberedTrigPoly(
            {k: p.scale(s) for k, p in self.fiber.items()}, real=keep_real
        )

    def compose_skew(self, alpha: float, beta: float) -> "FiberedTrigPoly":
        """Phi(x + alpha, y + x + beta): mode (m, k) -> (m + k, k) with phase.

        The phase e^{2 pi i (m alpha + k beta)} is computed from the exact
        dyadic reduction of m*alpha + k*beta (``PhaseNumerators.unit_phase``),
        with conjugate modes phased by explicit conjugation so realness
        survives bit-for-bit.
        """
        ph = PhaseNumerators(alpha, beta)
        out: Dict[Tuple[int, int], complex] = {}
        for m, k, c in self.modes():
            if (k, m) < (0, 0):
                w = ph.unit_phase(-m, -k).conjugate()
            else:
                w = ph.unit_phase(m, k)
            key = (m + k, k)
            out[key] = out.get(key, 0.0) + c * w
        return FiberedTrigPoly.from_modes(out, real=self.real)

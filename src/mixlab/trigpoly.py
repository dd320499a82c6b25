"""Finite Fourier series on the circle and on the 2-torus.

Two immutable value types:

* ``TrigPoly1D``   g(x)   = sum_m  c_m e^{2 pi i m x}
* ``FiberedTrigPoly``  Phi(x,y) = sum_k c_k(x) e^{2 pi i k y},  each c_k a
  ``TrigPoly1D``.

A poly flagged ``real`` stores both coefficient halves and must satisfy
c_{-m} = conj(c_m) (coefficientwise across both indices for the fibered
type); evaluation then returns the real part.  Violations raise at
construction time, so downstream code can trust the flag.

``FiberedTrigPoly.at`` is the one evaluator on orbit points: it takes the
exact numerators of ``phases.PhaseNumerators`` and reduces every phase
m x + k y mod 1 before its single rounding.  ``evaluate`` and
``evaluate_complex`` take float points and serve grids and algebra.
"""

from __future__ import annotations

import cmath
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

    def __sub__(self, other: "TrigPoly1D") -> "TrigPoly1D":
        return self + other.scale(-1.0)

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

    def sup_bound(self) -> float:
        return sum(abs(c) for _, _, c in self.modes())

    def l2_norm(self) -> float:
        return math.sqrt(sum(abs(c) ** 2 for _, _, c in self.modes()))

    def is_zero(self) -> bool:
        return not self.fiber

    # ---- evaluation ------------------------------------------------------------

    def evaluate_complex(self, x, y):
        """Complex values at the points (x, y), broadcast; scalars give a
        numpy scalar."""
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        out = np.zeros(x.shape, dtype=complex)
        for k, p in self.fiber.items():
            out += p.evaluate_complex(x) * np.exp(2j * np.pi * k * y)
        return out[()]

    def evaluate(self, x, y):
        v = self.evaluate_complex(x, y)
        return v.real if self.real else v

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

    def at(self, phases: PhaseNumerators, xn, yn) -> np.ndarray:
        """Values at the points with numerators (xn, yn) over 2^K.

        Each phase m x + k y is reduced exactly mod 1 before its one
        rounding.  A real poly costs one cos or sin per conjugate pair (both
        for a complex pair coefficient) and returns floats; a complex one
        costs one e(theta) per mode.  Every orbit path evaluates here, so
        one point always gets one value.
        """
        const, terms = self.independent_modes
        shape = np.broadcast(xn, yn).shape
        if not self.real:
            vals = np.full(shape, const, dtype=complex)
            for m, k, c in terms:
                theta = 2.0 * np.pi * phases.to_unit(phases.mode(xn, yn, m, k))
                vals += c * np.exp(1j * theta)
            return vals
        vals = np.full(shape, const)
        for m, k, c in terms:
            theta = 2.0 * np.pi * phases.to_unit(phases.mode(xn, yn, m, k))
            if c.real:
                vals += c.real * np.cos(theta)
            if c.imag:
                vals -= c.imag * np.sin(theta)
        return vals

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
        dyadic reduction of m*alpha + k*beta (``PhaseNumerators``), with
        conjugate modes phased by explicit conjugation so realness
        survives bit-for-bit.
        """
        ph = PhaseNumerators(alpha, beta)
        a, b = ph.linear_quadratic(np.array([1]))
        out: Dict[Tuple[int, int], complex] = {}
        for m, k, c in self.modes():
            neg = False
            mm, kk = m, k
            if k < 0 or (k == 0 and m < 0):
                neg, mm, kk = True, -m, -k
            theta = float(ph.to_unit(ph.mode(a, b, mm, kk))[0])
            w = cmath.exp(2j * math.pi * theta)
            if neg:
                w = w.conjugate()
            key = (m + k, k)
            out[key] = out.get(key, 0.0) + c * w
        return FiberedTrigPoly.from_modes(out, real=self.real)

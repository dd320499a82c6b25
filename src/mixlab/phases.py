"""Exact mod-1 arithmetic for dyadic floats.

Orbit phases of the skew-shift are linear-plus-quadratic integer
combinations j*x + j*beta + binom(j,2)*alpha reduced mod 1.  Formed as a
single float product, the fractional part is lost once the integer part
passes 2^52; the helpers here instead treat every float input as the
exact dyadic rational it is and reduce mod 1 in integer arithmetic, so a
phase is correct to one rounding of the final conversion no matter how
large the step index gets.  ``QuadraticPhase`` steps one orbit at a time;
``PhaseNumerators`` forms the phases of whole arrays of step indices.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Tuple

import numpy as np


def frac(x: float) -> float:
    """x mod 1 in [0, 1).  Guards the `x % 1.0 == 1.0` rounding corner."""
    r = x % 1.0
    return 0.0 if r >= 1.0 else r


def frac_exact(terms: Iterable[Tuple[int, float]]) -> float:
    """(sum of k*v) mod 1 for integer k and float v, exact before one rounding."""
    total = Fraction(0)
    for k, v in terms:
        if k:
            total += k * Fraction(v)
    return float(total % 1)


def binom2(j: int) -> int:
    """j*(j-1)/2 for any integer j, negative indices included."""
    return j * (j - 1) // 2


def _dyadic(v: float) -> Tuple[int, int]:
    """Return (num, k) with v == num / 2^k exactly."""
    num, den = float(v).as_integer_ratio()
    return num, den.bit_length() - 1


class QuadraticPhase:
    """Exact integer state for the skew-shift orbit phases at base point x.

    Tracks, at step j,

        x_j     = x + j*alpha                      (mod 1)
        phase_j = j*x + j*beta + binom(j,2)*alpha  (mod 1)

    via the recursions x_{j+1} = x_j + alpha and
    phase_{j+1} = phase_j + x + beta + j*alpha, carried out on integer
    numerators over a common power-of-two denominator.  Both outputs are
    exact up to the single rounding of the int -> float conversion, for
    any step count.
    """

    __slots__ = ("_j", "_k", "_mod", "_a", "_xb", "_aj", "_xj", "_p")

    def __init__(self, x: float, alpha: float, beta: float):
        nx, kx = _dyadic(frac(x))
        na, ka = _dyadic(frac(alpha))
        nb, kb = _dyadic(frac(beta))
        k = max(kx, ka, kb)
        self._k = k
        self._mod = 1 << k
        self._a = na << (k - ka)         # alpha numerator
        x0 = nx << (k - kx)
        self._xb = (x0 + (nb << (k - kb))) % self._mod   # x + beta
        self._aj = 0                     # j*alpha numerator mod 2^k
        self._xj = x0                    # x + j*alpha numerator
        self._p = 0                      # phase numerator
        self._j = 0

    @property
    def j(self) -> int:
        return self._j

    @property
    def x(self) -> float:
        """x + j*alpha mod 1."""
        return self._to_float(self._xj)

    @property
    def phase(self) -> float:
        """j*x + j*beta + binom(j,2)*alpha mod 1."""
        return self._to_float(self._p)

    def advance(self) -> None:
        """Step j -> j+1."""
        mod = self._mod
        self._p = (self._p + self._xb + self._aj) % mod
        self._aj = (self._aj + self._a) % mod
        self._xj = (self._xj + self._a) % mod
        self._j += 1

    def _to_float(self, num: int) -> float:
        if self._k <= 1000:
            return math.ldexp(num, -self._k)
        return float(Fraction(num, self._mod))   # subnormal inputs only


class PhaseNumerators:
    """Exact phases  m*j*alpha + k*s_j (mod 1)  for arrays of step indices j,
    with s_j = j*beta + binom(j,2)*alpha the quadratic phase at x = 0.

    alpha and beta are read as the dyadic rationals A/2^K and B/2^K they
    are, and the phases are formed as integer numerators over 2^K.  For
    K <= 64 the numerators are uint64 arrays: wrap-around is reduction mod
    2^64, hence exact mod 2^K, and binom(j,2) is formed as (j/2)*(j-1) or
    j*((j-1)/2) so that the halving loses no bit.  For K > 64 the same
    expressions run on object arrays of Python integers.
    """

    def __init__(self, alpha: float, beta: float):
        na, ka = _dyadic(frac(alpha))
        nb, kb = _dyadic(frac(beta))
        k = max(ka, kb)
        self.k = k
        self.dtype = np.dtype(np.uint64) if k <= 64 else np.dtype(object)
        self._mask = self._int((1 << k) - 1)
        self._a = self._int(na << (k - ka))
        self._b = self._int(nb << (k - kb))
        # uint64 / float(2^K) rounds once, in the conversion to float; a
        # Python int / int is correctly rounded and cannot overflow.
        self._scale = float(1 << k) if k <= 64 else 1 << k

    def _int(self, v: int):
        """v as a scalar of the numerator dtype (mod 2^64 for uint64)."""
        return np.uint64(v % (1 << 64)) if self.dtype == np.uint64 else v

    def linear_quadratic(self, j: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Numerators of (j*alpha, s_j) mod 1 for nonnegative integer j."""
        j = np.asarray(j).astype(self.dtype)
        one = self._int(1)
        c2 = np.where(j & one, j * ((j - one) >> one), (j >> one) * (j - one))
        return (j * self._a) & self._mask, (j * self._b + c2 * self._a) & self._mask

    def mode(self, ja: np.ndarray, s: np.ndarray, m: int, k: int) -> np.ndarray:
        """Numerators of m*j*alpha + k*s_j mod 1 from ``linear_quadratic``."""
        return (self._int(m) * ja + self._int(k) * s) & self._mask

    def to_unit(self, num: np.ndarray) -> np.ndarray:
        """num / 2^K as floats in [0, 1], each with a single rounding."""
        return np.asarray(num / self._scale, dtype=float)

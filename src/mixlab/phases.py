"""Exact mod-1 arithmetic for dyadic floats.

Orbit phases of the skew-shift are linear-plus-quadratic integer
combinations j*x + j*beta + binom(j,2)*alpha reduced mod 1.  Formed as a
single float product, the fractional part is lost once the integer part
passes 2^52; the helpers here instead treat every float input as the
exact dyadic rational it is and reduce mod 1 in integer arithmetic, so a
phase is correct to one rounding of the final conversion no matter how
large the step index gets.  ``PhaseNumerators`` forms the phases, and the
orbit points of one base point, for whole arrays of step indices.
"""

from __future__ import annotations

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


class PhaseNumerators:
    """Exact phases  m*j*alpha + k*s_j (mod 1)  for arrays of step indices j,
    with s_j = j*beta + binom(j,2)*alpha the quadratic phase at x = 0, and
    the orbit f^j(x, y) of one base point.

    alpha, beta, x and y are read as the dyadic rationals A/2^K, B/2^K,
    X/2^K and Y/2^K they are, and the phases are formed as integer
    numerators over 2^K.  For K <= 64 the numerators are uint64 arrays:
    wrap-around is reduction mod 2^64, hence exact mod 2^K, and binom(j,2)
    is formed as (j/2)*(j-1) or j*((j-1)/2) so that the halving loses no
    bit.  For K > 64 the same expressions run on object arrays of Python
    integers.
    """

    def __init__(
        self, alpha: float, beta: float, x: float = 0.0, y: float = 0.0
    ):
        parts = [_dyadic(frac(v)) for v in (alpha, beta, x, y)]
        k = max(kv for _, kv in parts)
        self.k = k
        self.dtype = np.dtype(np.uint64) if k <= 64 else np.dtype(object)
        self._mask = self._int((1 << k) - 1)
        self._a, self._b, self._x, self._y = (
            self._int(num << (k - kv)) for num, kv in parts
        )
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

    def orbit(self, j: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Numerators of f^j(x, y) = (x + j*alpha, y + j*x + s_j) mod 1 for
        nonnegative integer j."""
        j = np.asarray(j).astype(self.dtype)
        ja, s = self.linear_quadratic(j)
        mask = self._mask
        return (self._x + ja) & mask, (self._y + j * self._x + s) & mask

    def mode(self, ja: np.ndarray, s: np.ndarray, m: int, k: int) -> np.ndarray:
        """Numerators of m*j*alpha + k*s_j mod 1 from ``linear_quadratic``."""
        return (self._int(m) * ja + self._int(k) * s) & self._mask

    def to_unit(self, num: np.ndarray) -> np.ndarray:
        """num / 2^K as floats in [0, 1], each with a single rounding."""
        return np.asarray(num / self._scale, dtype=float)

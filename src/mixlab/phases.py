"""Exact mod-1 arithmetic for dyadic floats.

Orbit phases of the skew-shift are linear-plus-quadratic integer
combinations j*x + j*beta + binom(j,2)*alpha reduced mod 1.  Formed as a
single float product, the fractional part is lost once the integer part
passes 2^52; the helpers here instead treat every float input as the
exact dyadic rational it is and reduce mod 1 in integer arithmetic, so a
phase is correct to one rounding of the final conversion no matter how
large the step index gets.  ``PhaseNumerators`` forms the phases, and the
orbit points of one base point or of many, for whole arrays of step
indices of either sign.
"""

from __future__ import annotations

import copy
from typing import Tuple

import numpy as np


def frac(x: float) -> float:
    """x mod 1 in [0, 1).  Guards the `x % 1.0 == 1.0` rounding corner."""
    r = x % 1.0
    return 0.0 if r >= 1.0 else r


def vfrac(a: np.ndarray) -> np.ndarray:
    """Elementwise mod 1 into [0, 1) with the == 1.0 rounding guard."""
    out = a - np.floor(a)
    return np.where(out >= 1.0, out - 1.0, out)


def circle_distance(a, b):
    """Distance on R/Z, elementwise."""
    d = np.abs(a - b) % 1.0
    return np.minimum(d, 1.0 - d)


def _dyadic(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(num, k) with v == num / 2^k exactly, elementwise, for v in [0, 1).

    num is odd (or 0, with k = 0): the 53-bit mantissa of v with its
    trailing zeros shifted out.
    """
    mant, e = np.frexp(v)
    m = np.ldexp(mant, 53).astype(np.int64)
    tz = np.maximum(np.frexp((m & -m).astype(float))[1] - 1, 0)
    return m >> tz, np.where(m == 0, 0, 53 - e - tz)


# The denominator exponent used whenever it covers every input; floats in
# [0, 1) with at most 62 fraction bits (every random() draw, every bundled
# roof) need no per-value scan.
_K_COMMON = 62


class PhaseNumerators:
    """Exact phases  m*j*alpha + k*s_j (mod 1)  for arrays of step indices j,
    with s_j = j*beta + binom(j,2)*alpha the quadratic phase at x = 0, and
    the orbits f^j(x, y) of one base point or of many (lanes).

    alpha, beta and every x and y are read as the dyadic rationals A/2^K,
    B/2^K, X/2^K and Y/2^K they are, one K for all of them (62 when that
    suffices, else the largest exponent any of them needs), and the phases
    are formed as integer numerators over 2^K.  For K <= 64 the numerators
    are uint64 arrays: wrap-around is reduction mod 2^64, hence exact mod
    2^K, and binom(j,2) is a product of two int64 factors, one of them
    halved by an arithmetic shift, so that negative j and j past 2^32 lose
    no bit.  For K > 64 the same expressions run on object arrays of Python
    integers.

    The base points are L lanes (L = 1 for scalar x and y), stored as a
    row of shape (1, L).  ``orbit`` of a block of steps shared by all
    lanes, a column j of shape (B, 1), then has shape (B, L), each row one
    step of every lane; ``orbit`` of one index per lane, j of shape (L,),
    or of a scalar j, has shape (1, L).  A non-finite alpha, beta, x or y
    raises ValueError.
    """

    def __init__(self, alpha: float, beta: float, x=0.0, y=0.0):
        x, y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        vals = np.concatenate(([alpha, beta], x.ravel(), y.ravel()))
        if not np.all(np.isfinite(vals)):
            raise ValueError("alpha, beta, x and y must be finite")
        vals = vfrac(vals)
        scaled = np.ldexp(vals, _K_COMMON)
        if np.array_equal(scaled, np.floor(scaled)):
            # every value is a multiple of 2^-62: no need for each one's K
            k = _K_COMMON
            nums = scaled.astype(np.int64).astype(np.uint64)
        else:
            num, kv = _dyadic(vals)
            k = int(kv.max())
            shift = np.where(num == 0, 0, k - kv)
            if k <= 64:
                nums = num.astype(np.uint64) << shift.astype(np.uint64)
            else:
                nums = np.array(
                    [int(a) << int(b) for a, b in zip(num, shift)], dtype=object
                )
        self.k = k
        self.dtype = np.dtype(np.uint64) if k <= 64 else np.dtype(object)
        self._mask = self._int((1 << k) - 1)
        # numerators are arrays, never numpy scalars: scalar uint64
        # arithmetic warns on the wrap that arrays take silently
        self._a, self._b = nums[:1], nums[1:2]
        lanes = x.size
        self._x = nums[2 : 2 + lanes].reshape(1, lanes)
        self._y = nums[2 + lanes :].reshape(1, lanes)
        # uint64 / float(2^K) rounds once, in the conversion to float; a
        # Python int / int is correctly rounded and cannot overflow.
        self._scale = float(1 << k) if k <= 64 else 1 << k

    def _int(self, v: int):
        """v as a scalar of the numerator dtype (mod 2^64 for uint64)."""
        return np.uint64(v % (1 << 64)) if self.dtype == np.uint64 else v

    def lanes(self, idx: np.ndarray) -> "PhaseNumerators":
        """The same phases for the lanes ``idx`` only."""
        out = copy.copy(self)
        out._x, out._y = self._x[:, idx], self._y[:, idx]
        return out

    def moved(self, n: np.ndarray) -> "PhaseNumerators":
        """The same phases with each lane's base point moved to its f^n, n
        one index per lane: the exact numerators ``orbit(n)``, so the orbit
        from there is this one shifted by n, in the same integers."""
        out = copy.copy(self)
        out._x, out._y = self.orbit(n)
        return out

    def _j(self, j) -> np.ndarray:
        """Integer step indices as numerator-dtype values (mod 2^64)."""
        j = np.asarray(j, dtype=np.int64)
        return j.astype(np.uint64) if self.k <= 64 else j.astype(object)

    def linear_quadratic(self, j: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Numerators of (j*alpha, s_j) mod 1 for integer j of either sign."""
        j = np.asarray(j, dtype=np.int64)
        if self.k <= 64:
            # binom(j, 2) = j * (j - 1) / 2: halve the even factor in int64
            # (an arithmetic shift, exact for either sign), then wrap
            odd = (j & 1).astype(bool)
            a = np.where(odd, j, j >> 1).astype(np.uint64)
            b = np.where(odd, (j - 1) >> 1, j - 1).astype(np.uint64)
            c2 = a * b
        else:
            c2 = (j.astype(object) * (j - 1).astype(object)) // 2
        ju = self._j(j)
        return (ju * self._a) & self._mask, (ju * self._b + c2 * self._a) & self._mask

    def orbit(self, j: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Numerators of f^j(x, y) = (x + j*alpha, y + j*x + s_j) mod 1 for
        integer j of either sign; negative j is the backward orbit.  The
        shape is that of j broadcast against the base points."""
        ja, s = self.linear_quadratic(j)
        ju, mask = self._j(j), self._mask
        return (self._x + ja) & mask, (self._y + ju * self._x + s) & mask

    def mode(self, ja: np.ndarray, s: np.ndarray, m: int, k: int) -> np.ndarray:
        """Numerators of m*a + k*b mod 1 for numerators a, b: the mode (m, k)
        of the phase pair from ``linear_quadratic``, or of a point."""
        if m == 0:
            return (self._int(k) * s) & self._mask
        if k == 0:
            return (self._int(m) * ja) & self._mask
        return (self._int(m) * ja + self._int(k) * s) & self._mask

    def to_unit(self, num: np.ndarray) -> np.ndarray:
        """num / 2^K as floats in [0, 1], each with a single rounding."""
        return np.asarray(num / self._scale, dtype=float)

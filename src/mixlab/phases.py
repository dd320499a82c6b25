"""Exact mod-1 arithmetic for dyadic floats.

Orbit phases of the skew-shift are linear-plus-quadratic integer
combinations j*x + j*beta + binom(j,2)*alpha reduced mod 1.  Formed as a
single float product, the fractional part is lost once the integer part
passes 2^52; the helpers here instead treat every float input as the
exact dyadic rational it is and reduce mod 1 in integer arithmetic, so a
phase is correct to one rounding of the final conversion no matter how
large the step index gets.  ``PhaseNumerators`` forms the phases, and the
orbit points of one base point or of many and their mode phases, for
whole arrays of step indices of either sign, as integer numerators over
2^64, or over the exact 2^K of inputs with more than 64 fraction bits.
"""

from __future__ import annotations

import cmath
import copy
import math
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


class PhaseNumerators:
    """Exact phases  m*j*alpha + k*s_j (mod 1)  for arrays of step indices j,
    with s_j = j*beta + binom(j,2)*alpha the quadratic phase at x = 0, and
    the orbits f^j(x, y) of one base point or of many (lanes).

    alpha, beta and every x and y are read as the dyadic rationals A/2^K,
    B/2^K, X/2^K and Y/2^K they are, one K for all of them, and the phases
    are formed as integer numerators over 2^K.  When every input is a
    multiple of 2^-64 (every float in [2^-12, 1), every random() draw), K
    is 64 and the numerators are uint64 arrays: wrap-around is reduction
    mod 2^64, and binom(j,2) is a product of two int64 factors, one of them
    halved by an arithmetic shift, so that negative j and j past 2^32 lose
    no bit.  Otherwise K is the largest denominator exponent of any input,
    past 64, and the same expressions run on object arrays of Python
    integers, several times slower.  K is shared by all lanes, so one base
    coordinate off the 2^-64 grid sends every lane of the call there,
    which is why ``specialflow._uniform_in`` rounds its draws.

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
        # residues in [-1/2, 1/2): a signed cast is far faster than a uint64 one
        scaled = np.ldexp(vals - (vals >= 0.5), 64)
        if np.array_equal(scaled, np.floor(scaled)):
            k = 64
            nums = scaled.astype(np.int64).view(np.uint64)
        else:
            ratios = [v.as_integer_ratio() for v in vals.tolist()]
            k = max(d.bit_length() - 1 for _, d in ratios)
            nums = np.array([(n << k) // d for n, d in ratios], dtype=object)
        self.k = k
        self.dtype = nums.dtype
        self._mask = (1 << k) - 1
        # numerators are arrays, never numpy scalars: scalar uint64
        # arithmetic warns on the wrap that arrays take silently
        self._a, self._b = nums[:1], nums[1:2]
        self._x, self._y = nums[2:].reshape(2, 1, x.size)

    def _int(self, v: int):
        """v as a scalar of the numerator dtype (mod 2^64 for uint64)."""
        return np.uint64(v % (1 << 64)) if self.dtype == np.uint64 else v

    def _mod(self, v: np.ndarray) -> np.ndarray:
        """v mod 2^K in place; uint64 arithmetic has wrapped mod 2^64 = 2^K."""
        return v if self.dtype == np.uint64 else np.bitwise_and(v, self._mask, out=v)

    def shape(self, j) -> Tuple[int, ...]:
        """The shape of ``orbit(j)``: j broadcast against the (1, L) lanes."""
        return np.broadcast_shapes(np.shape(j), self._x.shape)

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

    def linear_quadratic(self, j: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Numerators of (j*alpha, s_j) mod 1 for integer j of either sign."""
        j = np.asarray(j, dtype=np.int64)
        if self.dtype == np.uint64:
            # binom(j, 2) = j * (j - 1) / 2: halve the even factor in int64
            # (an arithmetic shift, exact for either sign), then wrap
            odd = (j & 1).astype(bool)
            a = np.where(odd, j, j >> 1).astype(np.uint64)
            b = np.where(odd, (j - 1) >> 1, j - 1).astype(np.uint64)
            c2 = a * b
        else:
            c2 = (j.astype(object) * (j - 1).astype(object)) // 2
        ju = j.astype(self.dtype)                  # mod 2^64 for uint64
        return self._mod(ju * self._a), self._mod(ju * self._b + c2 * self._a)

    def orbit(self, j: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Numerators of f^j(x, y) = (x + j*alpha, y + j*x + s_j) mod 1 for
        integer j of either sign; negative j is the backward orbit.  The
        shape is that of j broadcast against the base points."""
        ja, s = self.linear_quadratic(j)
        ju = np.asarray(j, dtype=np.int64).astype(self.dtype)
        return self._mod(self._x + ja), self._mod(self._y + ju * self._x + s)

    def mode(self, ja: np.ndarray, s: np.ndarray, m: int, k: int) -> np.ndarray:
        """Numerators of m*a + k*b mod 1 for numerators a, b: the mode (m, k)
        of the phase pair from ``linear_quadratic``, or of a point."""
        return self._mod(self._int(m) * ja + self._int(k) * s)

    def orbit_mode(self, j: np.ndarray, m: int, k: int, out=None) -> np.ndarray:
        """``mode(*orbit(j), m, k)``, the numerators of m*x_j + k*y_j mod 1,
        formed with no orbit point as j*k*x + (m*x + k*y) + (m*j*alpha +
        k*s_j): one product and two sums of the full shape; into ``out`` if
        given."""
        j = np.asarray(j, dtype=np.int64)
        out = np.empty(self.shape(j), self.dtype) if out is None else out
        np.multiply(j.astype(self.dtype), self._int(k) * self._x, out=out)
        out += self.mode(self._x, self._y, m, k)
        out += self.mode(*self.linear_quadratic(j), m, k)
        return self._mod(out)

    def unit_phase(self, m: int, k: int) -> complex:
        """e(m alpha + k beta) = exp(2 pi i (m alpha + k beta)), the phase
        reduced exactly mod 1 before its one rounding: the mode (m, k) of
        the phase pair at j = 1, which is (alpha, beta)."""
        theta = float(self.to_unit(self.mode(self._a, self._b, m, k))[0])
        return cmath.exp(2j * math.pi * theta)

    def to_unit(self, num: np.ndarray, out=None) -> np.ndarray:
        """num / 2^K as floats in [0, 1], each with a single rounding; into
        ``out`` if given."""
        out = np.empty(np.shape(num)) if out is None else out
        if self.dtype != np.uint64:
            out[...] = num / (1 << self.k)                       # int / int
            return out
        # hi * 2^32 + lo rounds once; numpy's uint64 cast is slow past 2^63
        half = np.ascontiguousarray(num, "<u8").view("<u4")
        np.multiply(half[..., 1::2], 2.0 ** 32, out=out)
        out += half[..., 0::2]
        out *= 2.0 ** -64
        return out

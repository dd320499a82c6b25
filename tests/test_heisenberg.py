"""Group arithmetic, lattice reduction, nilflow, and the section return map."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    NonPositiveTimeChange,
    bisect_return_per_point,
    circle_dist,
    group_inverse,
    group_log,
    heisenberg_matrix,
    orbit_exact,
    timechange_return_time,
)
from mixlab.errors import DegenerateSection
from mixlab.heisenberg import (
    AlgebraVector,
    HeisenbergElement,
    Lattice,
    group_exp,
    nilflow_at,
    poincare_return,
    poincare_return_numeric,
    reduce_mod_lattice,
    section_point,
)
from mixlab.skewshift import SkewShift, TorusPoint


def matrix_product_oracle(a: HeisenbergElement, b: HeisenbergElement):
    """3x3 float matrix product, the independent reference for the group law."""
    return heisenberg_matrix(a) @ heisenberg_matrix(b)


def test_identity_and_examples():
    e = HeisenbergElement(0.0, 0.0, 0.0)
    g = HeisenbergElement(0.3, -1.2, 0.77)
    assert e * g == g
    assert g * e == g
    ab = HeisenbergElement(1, 0, 0) * HeisenbergElement(0, 1, 0)
    ba = HeisenbergElement(0, 1, 0) * HeisenbergElement(1, 0, 0)
    assert (ab.x, ab.y, ab.z) == (1, 1, 1)
    assert (ba.x, ba.y, ba.z) == (1, 1, 0)
    sq = HeisenbergElement(0.5, 0.5, 0) * HeisenbergElement(0.5, 0.5, 0)
    assert (sq.x, sq.y, sq.z) == (1.0, 1.0, 0.25)


def test_group_law_matches_matrix_product():
    rng = np.random.default_rng(1)
    for _ in range(500):
        a = HeisenbergElement(*rng.normal(scale=3.0, size=3))
        b = HeisenbergElement(*rng.normal(scale=3.0, size=3))
        want = matrix_product_oracle(a, b)
        got = heisenberg_matrix(a * b)
        assert np.max(np.abs(got - want)) <= 4 * np.spacing(np.max(np.abs(want)) + 1)


def test_associativity_random_triples():
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(10_000):
        a = HeisenbergElement(*rng.normal(size=3))
        b = HeisenbergElement(*rng.normal(size=3))
        c = HeisenbergElement(*rng.normal(size=3))
        lhs = (a * b) * c
        rhs = a * (b * c)
        scale = max(abs(lhs.x), abs(lhs.y), abs(lhs.z), 1.0)
        worst = max(
            worst,
            max(abs(lhs.x - rhs.x), abs(lhs.y - rhs.y), abs(lhs.z - rhs.z)) / scale,
        )
    assert worst <= 4 * 2.220446049250313e-16


def test_inverse():
    rng = np.random.default_rng(3)
    for _ in range(100):
        g = HeisenbergElement(*rng.normal(size=3))
        e = g * group_inverse(g)
        assert max(abs(e.x), abs(e.y), abs(e.z)) < 1e-15


def exp_series_oracle(w: AlgebraVector, t: float):
    """Terminating matrix exponential I + tM + (tM)^2/2 of the nilpotent
    generator matrix."""
    M = np.array([[0.0, w.w_x, w.w_z], [0.0, 0.0, w.w_y], [0.0, 0.0, 0.0]])
    tM = t * M
    return np.eye(3) + tM + tM @ tM / 2.0


def test_group_exp_examples_and_oracle():
    assert group_exp(AlgebraVector(1, 1, 0), 0.0) == HeisenbergElement(0, 0, 0)
    g = group_exp(AlgebraVector(1, 1, 0), 1.0)
    assert (g.x, g.y, g.z) == (1.0, 1.0, 0.5)
    g = group_exp(AlgebraVector(0, 0, 1), 2.0)
    assert (g.x, g.y, g.z) == (0.0, 0.0, 2.0)
    rng = np.random.default_rng(4)
    for _ in range(100):
        w = AlgebraVector(*rng.normal(size=3))
        t = float(rng.normal())
        want = exp_series_oracle(w, t)
        got = heisenberg_matrix(group_exp(w, t))
        assert np.max(np.abs(got - want)) < 1e-13


def test_exp_log_round_trip_and_one_parameter_law():
    rng = np.random.default_rng(5)
    for _ in range(100):
        w = AlgebraVector(*rng.normal(size=3))
        t = float(rng.normal(scale=2.0))
        back = group_log(group_exp(w, t))
        assert abs(back.w_x - t * w.w_x) <= 1e-12
        assert abs(back.w_y - t * w.w_y) <= 1e-12
        assert abs(back.w_z - t * w.w_z) <= 1e-12
        s = float(rng.normal(scale=2.0))
        lhs = group_exp(w, s) * group_exp(w, t)
        rhs = group_exp(w, s + t)
        assert max(abs(lhs.x - rhs.x), abs(lhs.y - rhs.y), abs(lhs.z - rhs.z)) < 1e-12


def test_reduce_examples():
    p, lam = reduce_mod_lattice(HeisenbergElement(0.25, 0.0, 0.5))
    assert (p.g.x, p.g.y, p.g.z) == (0.25, 0.0, 0.5)
    assert (lam.x, lam.y, lam.z) == (0.0, 0.0, 0.0)

    p, lam = reduce_mod_lattice(HeisenbergElement(1.2, 0.5, 0.1))
    assert abs(p.g.x - 0.2) < 1e-15
    assert p.g.y == 0.5
    assert abs(p.g.z - 0.6) < 1e-15

    p, _ = reduce_mod_lattice(HeisenbergElement(0.5, 1.5, 0.2))
    assert (p.g.x, p.g.y) == (0.5, 0.5)
    assert abs(p.g.z - 0.2) < 1e-15


def test_reduce_round_trip_and_idempotence():
    rng = np.random.default_rng(6)
    for E in (1, 2, 3):
        lat = Lattice(E)
        for _ in range(200):
            g = HeisenbergElement(*rng.normal(scale=5.0, size=3))
            p, lam = reduce_mod_lattice(g, lat)
            assert 0 <= p.g.x < 1 and 0 <= p.g.y < 1 and 0 <= p.g.z < 1.0 / E
            back = lam * p.g
            # the working magnitude includes the x*y cross term
            scale = max(1.0, abs(g.x), abs(g.y), abs(g.z), abs(g.x * g.y))
            assert max(abs(back.x - g.x), abs(back.y - g.y), abs(back.z - g.z)) \
                <= 4 * np.spacing(scale)
            again, lam2 = reduce_mod_lattice(p.g, lat)
            assert again.g == p.g
            assert (lam2.x, lam2.y, lam2.z) == (0.0, 0.0, 0.0)


def test_lattice_equivalent_elements_reduce_together():
    rng = np.random.default_rng(7)
    lat = Lattice(1)
    for _ in range(100):
        g = HeisenbergElement(*rng.normal(scale=2.0, size=3))
        gamma = HeisenbergElement(
            float(rng.integers(-3, 4)), float(rng.integers(-3, 4)),
            float(rng.integers(-3, 4)),
        )
        p1, _ = reduce_mod_lattice(g, lat)
        p2, _ = reduce_mod_lattice(gamma * g, lat)
        assert circle_dist(p1.g.x, p2.g.x) < 1e-12
        assert circle_dist(p1.g.y, p2.g.y) < 1e-12
        assert circle_dist(p1.g.z, p2.g.z) < 1e-12


def _in_cell(g: HeisenbergElement, E: int) -> bool:
    return 0 <= g.x < 1 and 0 <= g.y < 1 and 0 <= g.z < 1.0 / E


def test_nilflow_lands_inside_the_cell_at_its_end():
    # the exact endpoints lie within 2^-53 of the end of the cell, where
    # the nearest float is 1.0
    start = section_point(0.0, 0.0)
    t = 2 - 2 ** -51
    q = nilflow_at(start, AlgebraVector(1 + 2 ** -52, 0.7, 0.0), t)
    assert _in_cell(q.g, 1)
    q = nilflow_at(start, AlgebraVector(0.3, 1 + 2 ** -52, 0.0), t)
    assert _in_cell(q.g, 1)


# an integer moved by a few units of 2^-51 .. 2^-60: next to a cell edge
_NEAR_EDGE = st.builds(
    lambda n, d, s: n + d * 2.0 ** s,
    st.integers(-3, 3), st.integers(-4, 4), st.sampled_from([-51, -52, -53, -60]),
)


@settings(max_examples=300)
@given(
    E=st.sampled_from([1, 2, 3]),
    g=st.tuples(_NEAR_EDGE, _NEAR_EDGE, _NEAR_EDGE),
    w=st.tuples(_NEAR_EDGE, _NEAR_EDGE, _NEAR_EDGE),
    t=_NEAR_EDGE,
)
def test_reductions_land_inside_the_cell_near_its_edges(E, g, w, t):
    g = HeisenbergElement(g[0], g[1], g[2] / E)
    p, lam = reduce_mod_lattice(g, Lattice(E))
    assert _in_cell(p.g, E)
    back = lam * p.g
    scale = max(1.0, abs(g.x), abs(g.y), abs(g.z), abs(g.x * g.y))
    assert max(abs(back.x - g.x), abs(back.y - g.y), abs(back.z - g.z)) \
        <= 4 * np.spacing(scale)
    assert _in_cell(nilflow_at(p, AlgebraVector(*w), t).g, E)


def test_lattice_validation():
    with pytest.raises(ValueError):
        Lattice(0)


def test_nilflow_identity_and_examples():
    p = section_point(0.3, 0.8)
    w = AlgebraVector(0.2, 1.0, -0.4)
    assert nilflow_at(p, w, 0.0).g == p.g

    q = nilflow_at(section_point(0.0, 0.0), AlgebraVector(0, 1, 0), 0.5)
    assert (q.g.x, q.g.y, q.g.z) == (0.0, 0.5, 0.0)

    # time 1/w_y returns to the section y = 0
    q = nilflow_at(p, w, 1.0 / w.w_y)
    assert circle_dist(q.g.y, 0.0) < 1e-12


def test_nilflow_group_property():
    rng = np.random.default_rng(8)
    for _ in range(50):
        w = AlgebraVector(*rng.normal(size=3))
        p = section_point(rng.random(), rng.random())
        s, t = float(rng.uniform(-1e3, 1e3)), float(rng.uniform(-1e3, 1e3))
        one = nilflow_at(nilflow_at(p, w, s), w, t)
        two = nilflow_at(p, w, s + t)
        assert circle_dist(one.g.x, two.g.x) < 1e-10
        assert circle_dist(one.g.y, two.g.y) < 1e-10
        assert circle_dist(one.g.z, two.g.z) < 1e-10


def test_poincare_return_examples():
    # pure-Y generator: (x, z) -> (x, z + x)
    x1, z1 = poincare_return(AlgebraVector(0, 1, 0), 0.2, 0.1)
    assert abs(x1 - 0.2) < 1e-15 and abs(z1 - 0.3) < 1e-15
    x1, z1 = poincare_return(AlgebraVector(0.3, 1, 0), 0.2, 0.1)
    assert abs(x1 - 0.5) < 1e-15 and abs(z1 - 0.45) < 1e-15
    with pytest.raises(DegenerateSection):
        poincare_return(AlgebraVector(1.0, 0.0, 0.0), 0.2, 0.1)


def test_poincare_numeric_examples():
    res = poincare_return_numeric(AlgebraVector(0, 1, 0), 0.2, 0.1)
    assert circle_dist(res.x, 0.2) < 1e-9
    assert circle_dist(res.z, 0.3) < 1e-9
    assert abs(res.time - 1.0) < 1e-10
    with pytest.raises(DegenerateSection):
        poincare_return_numeric(AlgebraVector(1.0, 0.0, 0.0), 0.2, 0.1)


def test_poincare_numeric_matches_closed_form():
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        wy = float(rng.uniform(0.1, 2.0)) * (1 if rng.random() < 0.5 else -1)
        w = AlgebraVector(float(rng.normal()), wy, float(rng.normal()))
        x, z = float(rng.random()), float(rng.random())
        want = poincare_return(w, x, z)
        got = poincare_return_numeric(w, x, z)
        worst = max(worst, circle_dist(got.x, want[0]), circle_dist(got.z, want[1]))
        assert abs(got.time - 1.0 / w.w_y) <= 1e-10
    assert worst <= 1e-9


@pytest.mark.parametrize("wy", [1e-20, -1e-20, 1e-300])
def test_poincare_numeric_bisection_stops_at_adjacent_floats(wy):
    # one ulp of t ~ 1/w_y is far above time_tol: the bracket stops
    # shrinking before it reaches the tolerance
    res = poincare_return_numeric(AlgebraVector(0.3, wy, -0.2), 0.1, 0.2)
    assert math.isclose(res.time, 1.0 / wy, rel_tol=1e-15)


def test_nilflow_and_returns_past_the_float_range():
    # the lattice element of this flow is past the float range: the result
    # is still the exact-Fraction representative; reduce_mod_lattice, which
    # returns the lattice element as floats, raises ValueError on such a
    # point; and the section returns reject a ratio w_x/w_y that overflows
    w, t = AlgebraVector(1e300, 1.0, 0.0), 1e300
    T, wx, x0, z0 = Fraction(t), Fraction(w.w_x), Fraction(0.3), Fraction(0.2)
    X, Y, Z = x0 + T * wx, T, z0 + T * T * wx / 2 + x0 * T
    Y -= math.floor(Y)
    bx = math.floor(X)
    X -= bx
    Z -= bx * Y
    Z -= math.floor(Z)
    got = nilflow_at(section_point(0.3, 0.2), w, t).g
    assert got == HeisenbergElement(float(X), float(Y), float(Z))
    with pytest.raises(ValueError, match="past the float range"):
        reduce_mod_lattice(HeisenbergElement(-1.7e308, 0.9, 1.7e308))
    for fn in (poincare_return, poincare_return_numeric):
        with pytest.raises(DegenerateSection):
            fn(AlgebraVector(1e300, 1e-300, 0.0), 0.3, 0.2)


def test_poincare_numeric_overflowing_return_time():
    with pytest.raises(DegenerateSection):
        poincare_return_numeric(AlgebraVector(0.3, 1e-320, -0.2), 0.1, 0.2)


@pytest.mark.parametrize("E", [1, 2])
@pytest.mark.parametrize("wy", [1.1, -0.7, 0.013, -0.013, 1e-20, -1e-20])
def test_poincare_numeric_matches_per_point_bisection(wy, E):
    # one crossing time for all points, and each point landed as the
    # point-by-point bisection lands it
    lat = Lattice(E)
    w = AlgebraVector(0.415926, wy, -0.23)
    rng = np.random.default_rng(17)
    xs, zs = rng.random(6), rng.random(6) / E
    got = poincare_return_numeric(w, xs, zs, lat)
    assert got.x.shape == got.z.shape == (6,)
    for i, (x, z) in enumerate(zip(xs.tolist(), zs.tolist())):
        want = bisect_return_per_point(w, x, z, lat)
        one = poincare_return_numeric(w, x, z, lat)
        assert (one.x, one.z, one.time) == want
        assert (float(got.x[i]), float(got.z[i]), got.time) == want


def test_section_iterates_match_skewshift_orbit():
    w = AlgebraVector(0.415926, 1.1, -0.23)
    alpha = w.w_x / w.w_y
    beta = w.w_z / w.w_y + w.w_x / (2 * w.w_y)
    f = SkewShift(alpha, beta)
    x, z = 0.123, 0.456
    p = TorusPoint(x, z)
    cx, cz = x, z
    for n in range(1, 1001):
        cx, cz = poincare_return(w, cx, cz)
        if n % 100 == 0 or n <= 3:
            q = orbit_exact(f, p, n)
            assert circle_dist(cx, q.x) <= 1e-8
            assert circle_dist(cz, q.y) <= 1e-8


def test_poincare_return_with_larger_euler_number():
    # with E = 2 the section's z-coordinate lives in [0, 1/2); the return
    # time is unchanged and the numeric crossing agrees with the formula
    lat = Lattice(2)
    w = AlgebraVector(0.37, 1.2, -0.11)
    for x, z in [(0.1, 0.4), (0.9, 0.05), (0.5, 0.49)]:
        want = poincare_return(w, x, z, lat)
        assert 0 <= want[1] < 0.5
        got = poincare_return_numeric(w, x, z, lat)
        assert circle_dist(got.x, want[0]) < 1e-9
        assert min(abs(got.z - want[1]), abs(abs(got.z - want[1]) - 0.5)) < 1e-9
        assert abs(got.time - 1.0 / w.w_y) < 1e-10


def test_timechange_return_time():
    w = AlgebraVector(0.3, 1.0, 0.1)
    assert abs(timechange_return_time(lambda p: 1.0, w, 0.2, 0.7) - 1.0) < 1e-10
    assert abs(timechange_return_time(lambda p: 2.5, w, 0.2, 0.7) - 2.5) < 1e-10

    # density depending on the y coordinate: 2 + cos(2 pi y) integrates the
    # cosine away over one full winding (w_y = 1)
    w = AlgebraVector(0.77, 1.0, -0.3)
    val = timechange_return_time(
        lambda p: 2.0 + math.cos(2 * math.pi * p.g.y), w, 0.1, 0.9, tol=1e-11
    )
    assert abs(val - 2.0) < 1e-9

    with pytest.raises(NonPositiveTimeChange):
        timechange_return_time(
            lambda p: math.cos(2 * math.pi * p.g.y), w, 0.0, 0.0
        )
    with pytest.raises(DegenerateSection):
        timechange_return_time(lambda p: 1.0, AlgebraVector(1, 0, 0), 0.0, 0.0)


def test_timechange_against_analytic_antiderivative():
    # alpha depending only on the base torus coordinate x: along the orbit
    # x(t) = x0 + t*w_x, so the integral has a closed form.
    w = AlgebraVector(0.6, 1.25, 0.05)
    x0 = 0.3
    k = 2 * math.pi

    def density(p):
        return 1.5 + math.sin(k * p.g.x)

    # integral of 1.5 + sin(k(x0 + t w_x)) over [0, 1/w_y]
    T = 1.0 / w.w_y
    exact = 1.5 * T + (-math.cos(k * (x0 + T * w.w_x)) + math.cos(k * x0)) / (
        k * w.w_x
    )
    val = timechange_return_time(density, w, x0, 0.4, tol=1e-11)
    assert abs(val - exact) < 1e-9

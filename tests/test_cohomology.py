"""Frequency blocks, invariant functionals, the transfer-function solver,
window-sum identities, and the mixing classifier."""

import cmath
import math

import numpy as np
import pytest

from conftest import (
    GOLDEN,
    birkhoff_grid,
    coboundary_roof,
    mixing_example_roof,
    theta_exact,
)
from mixlab.cohomology import (
    ClassifierReport,
    ComponentSpectrum,
    ConvergentTimes,
    OrbitLabel,
    classify_roof,
    convergent_times,
    decompose_components,
    ergodic_sum_l2,
    evaluate_distribution,
    solve_component,
    uniform_bound_scan,
)
from mixlab.errors import NonzeroFiberAverage, ObstructionNonzero, RationalAlpha
from mixlab.skewshift import (
    SkewShift,
    TorusPoint,
    midgrid,
    project,
)
from mixlab.trigpoly import FiberedTrigPoly


def spectrum_of_coboundary(f, label, u_coeffs):
    """phi = u o f - u on one block, built directly from the index-shift
    action; independent of solve_component."""
    u = ComponentSpectrum(label, u_coeffs)
    shifted = u.compose_map(f)
    out = dict(shifted.coeffs)
    for j, c in u.coeffs.items():
        out[j] = out.get(j, 0.0) - c
    return ComponentSpectrum(label, out), u


# ----------------------------------------------------------------- labels


def test_orbit_label_validation_and_index():
    lbl = OrbitLabel(1, 2)
    assert lbl.index_of(3) == 1
    assert lbl.index_of(1) == 0
    with pytest.raises(ValueError):
        OrbitLabel(2, 2)
    with pytest.raises(ValueError):
        OrbitLabel(0, 0)
    with pytest.raises(ValueError):
        lbl.index_of(2)


# ------------------------------------------------------------- decomposition


def test_decompose_examples():
    # a pure x-mode goes to the circle part
    only_x = FiberedTrigPoly.from_modes({(5, 0): 1.0})
    h0, comps = decompose_components(only_x)
    assert h0.coeffs == {5: 1.0 + 0j}
    assert comps == []

    # e_{3,2} -> block (1,2), index 1
    one = FiberedTrigPoly.from_modes({(3, 2): 1.0})
    h0, comps = decompose_components(one)
    assert h0.is_zero()
    assert len(comps) == 1
    assert comps[0].label == OrbitLabel(1, 2)
    assert comps[0].coeffs == {1: 1.0 + 0j}

    # sin(2 pi y) splits into (0,1) and (0,-1) with +-1/(2i)
    sin_y = FiberedTrigPoly.from_modes({(0, 1): -0.5j, (0, -1): 0.5j}, real=True)
    _, comps = decompose_components(sin_y)
    by_label = {c.label: c for c in comps}
    assert by_label[OrbitLabel(0, 1)].coeffs == {0: -0.5j}
    assert by_label[OrbitLabel(0, -1)].coeffs == {0: 0.5j}


def test_decompose_round_trip():
    rng = np.random.default_rng(1)
    modes = {}
    for _ in range(20):
        m = int(rng.integers(-6, 7))
        k = int(rng.integers(-4, 5))
        modes[(m, k)] = complex(rng.normal(), rng.normal())
    phi = FiberedTrigPoly.from_modes(modes)
    h0, comps = decompose_components(phi)
    back = {}
    for m, c in h0.coeffs.items():
        back[(m, 0)] = c
    for S in comps:
        n = S.label.n
        for j, c in S.coeffs.items():
            back[(S.label.m + j * n, n)] = c
    want = {(m, k): c for (m, k), c in modes.items() if c != 0}
    assert set(back) == set(want)
    for key in want:
        assert back[key] == want[key]


# ------------------------------------------------------------ distributions


def test_distribution_examples():
    f = SkewShift(0.0, 0.0)
    S = ComponentSpectrum(OrbitLabel(0, 1), {2: 1.0})
    assert evaluate_distribution(f, S).value == 1.0 + 0j

    f = SkewShift(GOLDEN, 0.377)
    S = ComponentSpectrum(OrbitLabel(0, 1), {0: 1.0 / 2j})
    d = evaluate_distribution(f, S)
    assert abs(d.value - (-0.5j)) < 1e-15
    assert abs(d.magnitude - 0.5) < 1e-15


def test_distribution_example_family_sum():
    # block (0,1) spectrum {j: a_j} evaluates to sum a_j e^{-2 pi i (beta j + alpha C(j,2))}
    f = SkewShift(0.31, 0.17)
    coeffs = {0: 1.0, 1: 0.5 - 0.25j, 3: -0.7j}
    S = ComponentSpectrum(OrbitLabel(0, 1), coeffs)
    want = sum(
        c * cmath.exp(-2j * math.pi * (f.beta * j + f.alpha * (j * (j - 1) // 2)))
        for j, c in coeffs.items()
    )
    got = evaluate_distribution(f, S).value
    assert abs(got - want) < 1e-12


def test_distribution_invariance_under_composition():
    rng = np.random.default_rng(2)
    f = SkewShift(GOLDEN, 0.29)
    for _ in range(25):
        n = int(rng.integers(1, 5)) * (1 if rng.random() < 0.5 else -1)
        m = int(rng.integers(0, abs(n)))
        coeffs = {
            int(j): complex(rng.normal(), rng.normal())
            for j in rng.integers(-6, 7, size=5)
        }
        S = ComponentSpectrum(OrbitLabel(m, n), coeffs)
        a = evaluate_distribution(f, S).value
        b = evaluate_distribution(f, S.compose_map(f)).value
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_distribution_annihilates_coboundaries():
    rng = np.random.default_rng(3)
    f = SkewShift(GOLDEN, 0.71)
    for _ in range(25):
        n = int(rng.integers(1, 5)) * (1 if rng.random() < 0.5 else -1)
        m = int(rng.integers(0, abs(n)))
        u_coeffs = {
            int(j): complex(rng.normal(), rng.normal())
            for j in rng.integers(-5, 6, size=4)
        }
        phi, _ = spectrum_of_coboundary(f, OrbitLabel(m, n), u_coeffs)
        d = evaluate_distribution(f, phi)
        assert d.magnitude <= 1e-12 * max(1.0, ComponentSpectrum(
            OrbitLabel(m, n), u_coeffs).l2_norm())


# ------------------------------------------------------------------ solver


def test_solve_zero_spectrum():
    f = SkewShift(GOLDEN, 0.0)
    S = ComponentSpectrum(OrbitLabel(0, 1), {})
    assert solve_component(f, S).is_zero()


def test_solve_explicit_coboundary_example():
    beta = 0.37
    f = SkewShift(GOLDEN, beta)
    w = cmath.exp(2j * math.pi * beta)
    S = ComponentSpectrum(OrbitLabel(0, 1), {0: -1.0, 1: w})
    u = solve_component(f, S)
    assert set(u.coeffs) == {0}
    assert abs(u.coeffs[0] - 1.0) < 1e-14


def test_solve_rejects_nonzero_obstruction():
    f = SkewShift(GOLDEN, 0.0)
    S = ComponentSpectrum(OrbitLabel(0, 1), {0: -0.5j})    # |D| = 0.5
    with pytest.raises(ObstructionNonzero) as exc:
        solve_component(f, S)
    assert abs(exc.value.value - (-0.5j)) < 1e-15


def test_solve_round_trip_recovers_u():
    rng = np.random.default_rng(4)
    f = SkewShift(GOLDEN, 0.456)
    for _ in range(30):
        n = int(rng.integers(1, 5)) * (1 if rng.random() < 0.5 else -1)
        m = int(rng.integers(0, abs(n)))
        span = int(rng.integers(1, 8))
        base = int(rng.integers(-6, 6))
        u_coeffs = {
            base + t: complex(rng.normal(), rng.normal()) for t in range(span)
        }
        phi, u_in = spectrum_of_coboundary(f, OrbitLabel(m, n), u_coeffs)
        u_out = solve_component(f, phi)
        for j in set(u_in.coeffs) | set(u_out.coeffs):
            assert abs(u_out.coeffs.get(j, 0.0) - u_in.coeffs.get(j, 0.0)) <= 1e-9


def test_solver_output_satisfies_difference_equation_pointwise():
    f = SkewShift(GOLDEN, 0.456)
    label = OrbitLabel(1, 3)
    u_coeffs = {-2: 0.3 + 1j, -1: -0.25, 0: 0.8j, 1: 1.0 - 0.5j}
    phi, _ = spectrum_of_coboundary(f, label, u_coeffs)
    u = solve_component(f, phi)
    G = 128
    xs = midgrid(G)
    fu = u.as_fibered()
    fphi = phi.as_fibered()
    X, Y = xs[:, None], xs[None, :]
    lhs = fu.evaluate(
        (X + f.alpha) % 1.0, (Y + X + f.beta) % 1.0
    ) - fu.evaluate(X, Y)
    rhs = fphi.evaluate(X, Y)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


# ---------------------------------------------------------------- classifier


def test_classifier_fixture_roofs(golden):
    f = SkewShift(golden, 0.0)
    rep = classify_roof(f, mixing_example_roof())
    assert rep.verdict == "mixing"
    assert all(abs(d.magnitude - 0.5) < 1e-12 for d in rep.entries)

    rep = classify_roof(f, FiberedTrigPoly.constant(1.0))
    assert rep.verdict == "trivial"
    assert rep.entries == ()

    beta = 0.25
    f2 = SkewShift(golden, beta)
    rep = classify_roof(f2, coboundary_roof(beta, const=2.0))
    assert rep.verdict == "trivial"
    assert len(rep.entries) == 2
    assert all(d.magnitude <= 1e-12 for d in rep.entries)


def test_classifier_scale_and_coboundary_invariance(golden):
    f = SkewShift(golden, 0.25)
    phi = mixing_example_roof()
    rep1 = classify_roof(f, phi)
    rep2 = classify_roof(f, phi.scale(7.5))
    assert rep1.verdict == rep2.verdict == "mixing"
    # adding a smooth coboundary does not change the verdict
    from mixlab.skewshift import skew_coboundary

    u = FiberedTrigPoly.from_modes(
        {(1, 1): 0.3, (-1, -1): 0.3, (0, 2): 0.2j, (0, -2): -0.2j}, real=True
    )
    rep3 = classify_roof(f, phi + skew_coboundary(u, f))
    assert rep3.verdict == "mixing"

    trivial = coboundary_roof(0.25, const=2.0)
    rep4 = classify_roof(f, trivial + skew_coboundary(u, f))
    assert rep4.verdict == "trivial"


def test_classifier_formal_boundary_case(golden):
    # the two-mode family cos(2 pi y) + cos(2 pi (x+y)) + c has block value
    # (1 + e^{-2 pi i beta})/2 on (0, 1): beta = 1/2 cancels it exactly,
    # so the verdict flips to trivial as a formal evaluation
    phi = FiberedTrigPoly.from_modes(
        {(0, 1): 0.5, (0, -1): 0.5, (1, 1): 0.5, (-1, -1): 0.5, (0, 0): 3.0},
        real=True,
    )
    assert classify_roof(SkewShift(golden, 0.0), phi).verdict == "mixing"
    rep = classify_roof(SkewShift(golden, 0.5), phi)
    assert rep.verdict == "trivial"
    assert all(d.magnitude <= 1e-12 for d in rep.entries)


def test_ergodic_sum_l2_matches_quadrature_general_block():
    # |n| = 2 block with nonzero residue, complex coefficients
    f = SkewShift(GOLDEN, 0.37)
    S = ComponentSpectrum(
        OrbitLabel(1, -2), {-1: 0.4 - 0.3j, 0: -0.8j, 2: 0.25}
    )
    N = 16
    total = ergodic_sum_l2(f, S, N)
    # independent oracle: iterate the composition in mode space and
    # integrate |sum|^2 exactly on a grid finer than twice the max frequency
    fib = S.as_fibered()
    G = 256
    vals = birkhoff_grid(f, fib, N, G)
    quad = float(np.mean(np.abs(vals) ** 2))
    assert abs(total - quad) <= 1e-9 * max(1.0, quad)


def test_classifier_report_serialization(golden):
    f = SkewShift(golden, 0.0)
    rep = classify_roof(f, mixing_example_roof())
    doc = rep.to_json_dict()
    assert doc["verdict"] == "mixing"
    assert {e["n"] for e in doc["distributions"]} == {1, -1}
    for e in doc["distributions"]:
        assert set(e) == {"m", "n", "re", "im", "abs"}


# ----------------------------------------------------------- exact L2 sums


def window_sum_l2(f, S, N):
    """The sum over l of |sum_{j=l-N+1}^{l} r_j|^2, one window per l:
    the oracle of the closed form in ergodic_sum_l2."""
    reduced = {
        j: c * cmath.exp(-2j * math.pi * theta_exact(S.label, f, j))
        for j, c in S.coeffs.items()
    }
    lo, hi = S.support()
    total = 0.0
    window = 0.0 + 0.0j
    # slide l from lo to hi + N - 1; enter j = l, leave j = l - N
    for ell in range(lo, hi + N):
        window += reduced.get(ell, 0.0)
        window -= reduced.get(ell - N, 0.0)
        total += abs(window) ** 2
    return total


def test_ergodic_sum_l2_single_mode_is_linear():
    f = SkewShift(GOLDEN, 0.0)
    S = ComponentSpectrum(OrbitLabel(0, 1), {0: -0.5j})
    for N in (1, 10, 100, 10_000):
        val = ergodic_sum_l2(f, S, N)
        assert abs(val - 0.25 * N) <= 1e-12 * 0.25 * N
    # the closed form costs nothing per window
    assert ergodic_sum_l2(f, S, 10 ** 12) == 0.25 * 10 ** 12


def test_ergodic_sum_l2_matches_window_loop():
    rng = np.random.default_rng(13)
    f = SkewShift(GOLDEN, 0.37)
    js = rng.choice(np.arange(-20, 21), size=13, replace=False)
    coeffs = {int(j): complex(rng.normal(), rng.normal()) for j in js}
    S = ComponentSpectrum(OrbitLabel(1, -3), coeffs)
    for N in (1, 2, 7, 40, 41, 1000, 100_000):
        want = window_sum_l2(f, S, N)
        assert abs(ergodic_sum_l2(f, S, N) - want) <= 1e-11 * want


def test_ergodic_sum_l2_n1_is_l2_norm():
    rng = np.random.default_rng(5)
    f = SkewShift(GOLDEN, 0.123)
    coeffs = {int(j): complex(rng.normal(), rng.normal()) for j in range(-3, 4)}
    S = ComponentSpectrum(OrbitLabel(0, 2), coeffs)
    assert abs(ergodic_sum_l2(f, S, 1) - S.l2_norm() ** 2) < 1e-12


def test_ergodic_sum_l2_coboundary_is_bounded():
    beta = 0.41
    f = SkewShift(GOLDEN, beta)
    w = cmath.exp(2j * math.pi * beta)
    S = ComponentSpectrum(OrbitLabel(0, 1), {0: -1.0, 1: w})
    for N in (2, 5, 50, 1000):
        assert abs(ergodic_sum_l2(f, S, N) - 2.0) <= 1e-10


def test_ergodic_sum_l2_matches_grid_quadrature():
    f = SkewShift(GOLDEN, 0.0)
    sin_y = FiberedTrigPoly.from_modes({(0, 1): -0.5j, (0, -1): 0.5j}, real=True)
    _, comps = decompose_components(sin_y)
    N = 40
    total = sum(ergodic_sum_l2(f, S, N) for S in comps)
    G = 128      # > 2 * max frequency of the Birkhoff sum (N)
    vals = birkhoff_grid(f, sin_y, N, G)
    quad = float(np.mean(vals ** 2))
    assert abs(total - quad) <= 1e-9 * max(1.0, quad)


def test_ergodic_sum_l2_sandwich_constant_excess():
    # for support width w and N > w, total - N |D|^2 does not depend on N
    rng = np.random.default_rng(6)
    f = SkewShift(GOLDEN, 0.77)
    coeffs = {int(j): complex(rng.normal(), rng.normal()) for j in range(0, 4)}
    S = ComponentSpectrum(OrbitLabel(0, 1), coeffs)
    w = 4
    D = evaluate_distribution(f, S).magnitude
    excesses = [
        ergodic_sum_l2(f, S, N) - N * D * D for N in (w + 1, 10 * w, 100 * w)
    ]
    assert max(excesses) - min(excesses) <= 1e-9 * max(1.0, abs(excesses[0]))


# ------------------------------------------------------- convergent times


def test_convergent_times_golden_is_fibonacci():
    ct = convergent_times(GOLDEN, 8)
    assert ct.partial_quotients == (1,) * 8
    assert ct.denominators == (1, 2, 3, 5, 8, 13, 21, 34)


def test_convergent_times_rational_and_validation():
    with pytest.raises(RationalAlpha):
        convergent_times(0.5, 2)
    with pytest.raises(ValueError):
        convergent_times(1.5, 3)
    ct = convergent_times(math.pi - 3.0, 5)
    assert ct.partial_quotients[0] == 7
    qs = ct.denominators
    assert all(qs[i + 1] > qs[i] for i in range(len(qs) - 1))
    # recurrence q_{l+1} = a_{l+1} q_l + q_{l-1}
    for i in range(2, len(qs)):
        assert qs[i] == ct.partial_quotients[i] * qs[i - 1] + qs[i - 2]


# ------------------------------------------------------------- uniform scan


def test_uniform_bound_scan_trivial_cases():
    f = SkewShift(GOLDEN, 0.0)
    zero = FiberedTrigPoly({})
    assert uniform_bound_scan(f, zero, 5, grid=128) == 0.0

    sin_y = FiberedTrigPoly.from_modes({(0, 1): -0.5j, (0, -1): 0.5j}, real=True)
    val = uniform_bound_scan(f, sin_y, 1, grid=128)
    assert abs(val - 1.0) < 1e-3      # grid max of |sin| at N = 1

    with pytest.raises(NonzeroFiberAverage):
        uniform_bound_scan(f, mixing_example_roof(), 3, grid=128)
    with pytest.raises(ValueError):
        uniform_bound_scan(f, sin_y, 3, grid=64)


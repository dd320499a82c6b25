"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Each criterion runs at its stated size and tolerance; frozen constants
were produced by the same code at development time and guard against
regressions.  Run with ``pytest tests/test_acceptance.py -v -s`` to see
the per-criterion lines live.
"""

import cmath
import math

import numpy as np

from conftest import (
    GOLDEN,
    birkhoff_grid,
    block_as_fibered,
    circle_dist,
    dense_evaluate_complex,
    sublevel_measure,
)
from mixlab import cohomology
from mixlab.cli import bundled_roof_path, main
from mixlab.cohomology import (
    ComponentSpectrum,
    OrbitLabel,
    classify_roof,
    convergent_times,
    ergodic_sum_l2,
    evaluate_distribution,
    solve_component,
    uniform_bound_scan,
)
from mixlab.heisenberg import (
    AlgebraVector,
    poincare_return,
    poincare_return_numeric,
)
from mixlab.skewshift import (
    SkewShift,
    fiber_coefficients_on_grid,
    load_roof,
    midgrid,
    project,
)
from mixlab.specialflow import (
    Cube,
    certify_roof,
    correlate_cubes,
    discrete_iteration_bounds,
    trivial_conjugacy_check,
)
from mixlab.trigpoly import FiberedTrigPoly


def report(num: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {name}: {detail} -> {status}")
    assert ok, f"criterion {num}: {detail}"


# Frozen regression values (produced by this code at development time).
FROZEN_SUBLEVEL = {
    100: 0.18252086639404297,
    10_000: 0.01765918731689453,
    100_000: 0.005985736846923828,
}
FROZEN_WEYL_M10 = 2.0791476056392995


def test_c01_return_map_identity():
    rng = np.random.default_rng(101)
    worst_xy = worst_t = 0.0
    for _ in range(100):
        wy = float(rng.uniform(0.1, 2.5)) * (1.0 if rng.random() < 0.5 else -1.0)
        w = AlgebraVector(float(rng.normal()), wy, float(rng.normal()))
        x, z = float(rng.random()), float(rng.random())
        want = poincare_return(w, x, z)
        got = poincare_return_numeric(w, x, z)
        worst_xy = max(worst_xy, circle_dist(got.x, want[0]),
                       circle_dist(got.z, want[1]))
        worst_t = max(worst_t, abs(got.time - 1.0 / w.w_y))
    report(
        1, "return-map identity",
        worst_xy <= 1e-9 and worst_t <= 1e-10,
        f"coord err {worst_xy:.2e} (<=1e-9), time err {worst_t:.2e} (<=1e-10)",
    )


def test_c02_coboundary_round_trip():
    rng = np.random.default_rng(102)
    f = SkewShift(GOLDEN, 0.3777)
    xs = midgrid(128)
    X, Y = xs[:, None], xs[None, :]
    worst_d = worst_u = worst_pw = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 5)) * (1 if rng.random() < 0.5 else -1)
        m = int(rng.integers(0, abs(n)))
        width = int(rng.integers(1, 9))
        base = int(rng.integers(-6, 6))
        label = OrbitLabel(m, n)
        u_in = ComponentSpectrum(
            label,
            {base + i: complex(rng.normal(), rng.normal()) for i in range(width)},
        )
        shifted = u_in.compose_map(f)
        phi = ComponentSpectrum(
            label,
            {
                j: shifted.coeffs.get(j, 0.0) - u_in.coeffs.get(j, 0.0)
                for j in set(shifted.coeffs) | set(u_in.coeffs)
            },
        )
        d = evaluate_distribution(f, phi).magnitude
        worst_d = max(worst_d, d / phi.l2_norm())
        u_out = solve_component(f, phi)
        for j in set(u_in.coeffs) | set(u_out.coeffs):
            worst_u = max(
                worst_u,
                abs(u_out.coeffs.get(j, 0.0) - u_in.coeffs.get(j, 0.0)),
            )
        fu = block_as_fibered(u_out)
        residual = dense_evaluate_complex(
            fu, (X + f.alpha) % 1.0, (Y + X + f.beta) % 1.0
        ) - dense_evaluate_complex(fu, X, Y) - dense_evaluate_complex(
            block_as_fibered(phi), X, Y
        )
        worst_pw = max(worst_pw, float(np.max(np.abs(residual))))
    report(
        2, "coboundary round-trip",
        worst_d <= 1e-10 and worst_u <= 1e-9 and worst_pw <= 1e-9,
        f"|D|/norm {worst_d:.2e} (<=1e-10), coeff err {worst_u:.2e} (<=1e-9), "
        f"pointwise {worst_pw:.2e} (<=1e-9)",
    )


def test_c03_exact_l2_identity():
    f = SkewShift(GOLDEN, 0.0)
    sin_y = FiberedTrigPoly.from_modes({(0, 1): -0.5j, (0, -1): 0.5j},
                                       real=True)
    _, comps = cohomology.decompose_components(sin_y)
    worst_rel = 0.0
    for N in (1, 10, 100, 10_000):
        total = sum(ergodic_sum_l2(f, S, N) for S in comps)
        worst_rel = max(worst_rel, abs(total - N / 2.0) / (N / 2.0))
    # quadrature cross-check at N = 100 on a 512^2 grid
    N = 100
    vals = birkhoff_grid(f, sin_y, N, 512)
    quad = float(np.mean(vals ** 2))
    quad_rel = abs(quad - N / 2.0) / (N / 2.0)
    # explicit coboundary spectrum: 2 per component for all N >= 2
    beta = 0.377
    f2 = SkewShift(GOLDEN, beta)
    S = ComponentSpectrum(
        OrbitLabel(0, 1), {0: -1.0, 1: cmath.exp(2j * math.pi * beta)}
    )
    Sc = ComponentSpectrum(
        OrbitLabel(0, -1), {0: -1.0, 1: cmath.exp(-2j * math.pi * beta)}
    )
    worst_cb = max(
        abs(ergodic_sum_l2(f2, block, N) - 2.0)
        for block in (S, Sc)
        for N in (2, 3, 10, 100, 10_000)
    )
    report(
        3, "exact L2 window identity",
        worst_rel <= 1e-12 and quad_rel <= 1e-6 and worst_cb <= 1e-9,
        f"N/2 rel err {worst_rel:.2e} (<=1e-12), quadrature rel "
        f"{quad_rel:.2e} (<=1e-6), coboundary dev {worst_cb:.2e}",
    )


def test_c04_birkhoff_stretch_sublevel_decay():
    f, phi = load_roof(bundled_roof_path("example1"))
    assert f.alpha == GOLDEN and f.beta == 0.0
    osc, _ = project(phi)
    ns = [100, 10_000, 100_000]
    ks, mats = fiber_coefficients_on_grid(f, osc, ns, grid=2048)
    ys = midgrid(2048)
    ky = np.exp(2j * np.pi * np.outer(ks, ys))
    measures = {}
    for n in ns:
        vals = (mats[n].T @ ky).real
        measures[n] = sublevel_measure(vals, 2.0).value
    frozen_ok = all(
        abs(measures[n] - FROZEN_SUBLEVEL[n]) <= 1e-3 * FROZEN_SUBLEVEL[n]
        for n in ns
    )
    report(
        4, "Birkhoff-sum stretch (sublevel decay)",
        measures[10_000] < 0.5 * measures[100]
        and measures[100_000] < 0.1
        and frozen_ok,
        f"measure(1e2)={measures[100]:.5f}, measure(1e4)={measures[10_000]:.5f}"
        f" (<half), measure(1e5)={measures[100_000]:.5f} (<0.1), frozen ok"
        f"={frozen_ok}",
    )


def test_c05_anti_stretch_coboundary_bound():
    f, phi = load_roof(bundled_roof_path("coboundary"))
    osc, _ = project(phi)            # u o f - u for u = cos(2 pi y)
    u_sup_bound = 1.0                # sum |u coefficients|
    C = 2.0 * u_sup_bound + 1.0
    ns = [100, 10_000, 1_000_000]
    ks, mats = fiber_coefficients_on_grid(f, osc, ns, grid=256)
    ys = midgrid(256)
    ky = np.exp(2j * np.pi * np.outer(ks, ys))
    measures = {}
    sup = 0.0
    for n in ns:
        vals = (mats[n].T @ ky).real
        sup = max(sup, float(np.max(np.abs(vals))))
        measures[n] = sublevel_measure(vals, C).value
    report(
        5, "anti-stretch control (coboundary)",
        all(measures[n] == 1.0 for n in ns) and sup <= 2.0 * u_sup_bound,
        f"measures {[measures[n] for n in ns]} (all 1.0), sup|phi_n| "
        f"{sup:.6f} <= {2.0 * u_sup_bound}",
    )


def test_c06_mixing_correlation():
    f, phi = load_roof(bundled_roof_path("example1"))
    roof = certify_roof(phi)
    q = Cube(0.0, 0.5, 0.0, 0.5, 0.5)
    ratios = {}
    times = (100.0, 200.0)
    for t, est in zip(times, correlate_cubes(roof, f, q, q, times, 1_000_000, seed=0)):
        ratios[t] = abs(est.value) / est.std_error
    mixing_ok = all(r <= 5.0 for r in ratios.values())

    f2, const = load_roof(bundled_roof_path("constant"))
    roof2 = certify_roof(const)
    # full-base slab: base-aligned sets recur exactly at multiples of the
    # constant roof height
    slab = Cube(0.0, 1.0, 0.0, 1.0, 0.5)
    a, b = correlate_cubes(roof2, f2, slab, slab, [0.0, 2.0], 1_000_000, seed=1)
    const_gap = abs(a.value - b.value)
    const_ok = const_gap <= 3.0 * math.hypot(a.std_error, b.std_error)
    report(
        6, "mixing correlation",
        mixing_ok and const_ok,
        f"|corr|/sigma t=100: {ratios[100.0]:.2f}, t=200: {ratios[200.0]:.2f} "
        f"(<=5); constant-roof gap {const_gap:.2e} (<=3 sigma)",
    )


def test_c07_weyl_boundedness():
    f, phi = load_roof(bundled_roof_path("example1"))
    osc, _ = project(phi)
    ct = convergent_times(f.alpha, 24)
    fib = {}
    a, b = 1, 1
    for ell in range(2, 26):
        fib[ell] = b
        a, b = b, a + b
    # the golden convergent denominators are the Fibonacci numbers
    assert all(ct.denominators[i] == fib[i + 2] for i in range(23))
    vals = {}
    for ell in range(5, 26):
        vals[ell] = uniform_bound_scan(f, osc, fib[ell], grid=256)
    ref = vals[10]
    ratio_ok = all(ref / 4.0 <= v <= 4.0 * ref for v in vals.values())
    frozen_ok = abs(ref - FROZEN_WEYL_M10) <= 1e-7 * FROZEN_WEYL_M10
    report(
        7, "sqrt(N) sup bounds along denominators",
        ratio_ok and frozen_ok,
        f"M_10={ref:.6f} (frozen ok={frozen_ok}), "
        f"spread [{min(vals.values()) / ref:.3f}, {max(vals.values()) / ref:.3f}]"
        " within factor 4",
    )


def test_c08_sublevel_power_law():
    rng = np.random.default_rng(108)
    G = 1 << 20
    xs = midgrid(G)
    slopes = []
    for _ in range(10):
        coeffs = {}
        for m in range(1, 4):
            c = complex(rng.normal(), rng.normal())
            coeffs[m] = c
            coeffs[-m] = c.conjugate()
        sup = max(abs(c) for c in coeffs.values())
        g = np.zeros(G)
        for m, c in coeffs.items():
            g = g + (c / sup * np.exp(2j * np.pi * m * xs)).real
        av = np.abs(g)
        pts = []
        for delta in (1e-1, 1e-2, 1e-3, 1e-4):
            frac = np.count_nonzero(av < delta) / G
            if frac > 0:
                pts.append((math.log(delta), math.log(frac)))
        A = np.array([p[0] for p in pts])
        B = np.array([p[1] for p in pts])
        slopes.append(float(np.polyfit(A, B, 1)[0]))
    report(
        8, "sublevel power law",
        min(slopes) >= 0.2,
        f"min log-log slope {min(slopes):.3f} (>=0.2) over 10 random "
        "degree-3 polynomials",
    )


def test_c09_classifier_fixtures():
    verdicts = {}
    for name in ("example1", "example2", "example3", "constant", "coboundary"):
        f, phi = load_roof(bundled_roof_path(name))
        verdicts[name] = classify_roof(f, phi).verdict
    want = {
        "example1": "mixing",
        "example2": "mixing",
        "example3": "mixing",
        "constant": "trivial",
        "coboundary": "trivial",
    }
    report(
        9, "classifier fixtures",
        verdicts == want,
        ", ".join(f"{k}={v}" for k, v in verdicts.items()),
    )


def test_c10_trivial_conjugacy():
    f, phi = load_roof(bundled_roof_path("coboundary"))
    roof = certify_roof(phi)
    u = FiberedTrigPoly.from_modes({(0, 1): 0.5, (0, -1): 0.5}, real=True)
    worst = 0.0
    for t in (0.7, 3.3, 10.1):
        worst = max(
            worst,
            trivial_conjugacy_check(roof, f, u, 3.0, [t], points=100, seed=10)[0],
        )
    report(
        10, "trivial-roof conjugacy",
        worst <= 1e-8,
        f"max deviation {worst:.2e} (<=1e-8) over t in {{0.7, 3.3, 10.1}}",
    )


def test_c11_iteration_count_bounds():
    f, phi = load_roof(bundled_roof_path("example1"))
    roof = certify_roof(phi)
    rng = np.random.default_rng(111)
    all_ok = True
    checked = 0
    for _ in range(20):
        x = float(rng.random())
        a = float(rng.random())
        length = float(rng.uniform(0.05, 0.95))
        arc = (a, (a + length) % 1.0)
        for t in (100.0, 1000.0, 10_000.0):
            out = discrete_iteration_bounds(roof, f, x, arc, t)
            all_ok &= out.lower_ok and out.upper_ok
            checked += 1
    report(
        11, "hit-count spread bounds",
        all_ok and checked == 60,
        f"{checked} (x, arc, t) cases, all bound flags true",
    )


def test_c12_determinism_across_workers(tmp_path):
    roof = bundled_roof_path("example1")
    corr = {}
    weyl = {}
    for workers in (1, 4, 16):
        out = tmp_path / f"w{workers}"
        code = main([
            "correlate", "--roof", roof, "--cube", "0,0.5,0,0.5,0.5",
            "--t", "100,200", "--samples", "1000000", "--seed", "0",
            "--workers", str(workers), "--out", str(out),
        ])
        assert code == 0
        corr[workers] = (out / "correlate.csv").read_bytes()
        code = main([
            "weyl", "--roof", roof, "--levels", "15", "--grid", "256",
            "--workers", str(workers), "--out", str(out),
        ])
        assert code == 0
        weyl[workers] = (out / "weyl.csv").read_bytes()
    same_corr = corr[1] == corr[4] == corr[16]
    same_weyl = weyl[1] == weyl[4] == weyl[16]
    report(
        12, "worker-count determinism",
        same_corr and same_weyl,
        f"correlate.csv identical={same_corr}, weyl.csv identical={same_weyl} "
        "across workers {1, 4, 16}",
    )

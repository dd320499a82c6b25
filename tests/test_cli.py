"""CLI behaviour: outputs, exit codes, determinism."""

import argparse
import contextlib
import importlib.util
import io
import json
import math
import pathlib
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOLDEN, coboundary_roof
from mixlab import specialflow
from mixlab.cli import _all_finite, build_parser, bundled_roof_path, main
from mixlab.cohomology import (
    ComponentSpectrum,
    OrbitLabel,
    convergent_times,
    ergodic_sum_l2,
)
from mixlab.skewshift import (
    SkewShift,
    TorusPoint,
    birkhoff_sum,
    fiber_coefficients,
    fiber_coefficients_on_grid,
    load_roof,
    stretch,
    visit_fraction,
)
from mixlab.trigpoly import FiberedTrigPoly


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    return code, out


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture
def roofs():
    return {
        name: bundled_roof_path(name)
        for name in ("example1", "example2", "example3", "constant",
                     "coboundary")
    }


def test_classify_examples(tmp_path, capsys, roofs):
    verdicts = {}
    for name, path in roofs.items():
        code, out = run(tmp_path / name, "classify", "--roof", path)
        assert code == 0
        verdicts[name] = capsys.readouterr().out.strip()
        doc = json.loads(read(out / "classify_report.json"))
        assert doc["verdict"] == verdicts[name]
    assert verdicts["example1"] == "mixing"
    assert verdicts["example2"] == "mixing"
    assert verdicts["example3"] == "mixing"
    assert verdicts["constant"] == "trivial"
    assert verdicts["coboundary"] == "trivial"


def test_summary_embeds_config_and_version(tmp_path, roofs):
    code, out = run(tmp_path, "classify", "--roof", roofs["example1"])
    assert code == 0
    doc = json.loads(read(out / "classify_summary.json"))
    assert doc["experiment"] == "classify"
    assert doc["config"]["roof"] == roofs["example1"]
    assert doc["config"]["tol"] == 1e-9
    assert "version" in doc and "wall_time_s" in doc
    assert "classify_report.json" in doc["outputs"]


def test_solve_emits_transfer(tmp_path, roofs):
    code, out = run(tmp_path, "solve", "--roof", roofs["coboundary"])
    assert code == 0
    rep = json.loads(read(out / "solve_report.json"))
    assert rep["mean"] == 3.0
    assert rep["residual_sup_128"] <= 1e-9
    from mixlab.skewshift import load_roof

    f, u = load_roof(out / "transfer_u.json")
    assert u.real
    # cos(2 pi y): modes (0, +-1) with coefficient 1/2
    assert abs(u.c(1).coeff(0) - 0.5) < 1e-12
    assert abs(u.c(-1).coeff(0) - 0.5) < 1e-12


def test_solve_mixing_roof_exits_3(tmp_path, roofs, capsys):
    code, _ = run(tmp_path, "solve", "--roof", roofs["example1"])
    assert code == 3
    assert "ObstructionNonzero" in capsys.readouterr().err


def test_stretch_csv_format(tmp_path, roofs):
    code, out = run(
        tmp_path, "stretch", "--roof", roofs["example1"], "--C", "2",
        "--n", "10,100", "--grid", "256",
    )
    assert code == 0
    lines = read(out / "stretch.csv").decode().splitlines()
    assert lines[0] == "n,measure"
    assert len(lines) == 3
    n10 = float(lines[1].split(",")[1])
    n100 = float(lines[2].split(",")[1])
    assert n100 < n10


def test_visits_and_l2(tmp_path, roofs):
    code, out = run(
        tmp_path / "a", "visits", "--roof", roofs["example1"], "--C", "2",
        "--N", "10,100",
    )
    assert code == 0
    lines = read(out / "visits.csv").decode().splitlines()
    assert lines[0] == "n,measure"

    code, out = run(
        tmp_path / "b", "l2", "--roof", roofs["example1"], "--N", "1,10,100"
    )
    assert code == 0
    lines = read(out / "l2.csv").decode().splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == ["0.5", "5", "50"]


def test_correlate_determinism_across_workers(tmp_path, roofs):
    argv = [
        "correlate", "--roof", roofs["example1"],
        "--cube", "0,0.5,0,0.5,0.5", "--t", "0,2", "--samples", "100000",
        "--seed", "7",
    ]
    outs = []
    for workers in ("1", "4"):
        code, out = run(tmp_path / workers, *argv, "--workers", workers)
        assert code == 0
        outs.append(read(out / "correlate.csv"))
    assert outs[0] == outs[1]
    header = outs[0].decode().splitlines()[0]
    assert header == "t,value,stderr,samples,seed"


def test_workers_env_default(tmp_path, roofs, monkeypatch):
    monkeypatch.setenv("MIXLAB_WORKERS", "3")
    code, out = run(tmp_path, "classify", "--roof", roofs["example1"])
    assert code == 0
    doc = json.loads(read(out / "classify_summary.json"))
    assert doc["config"]["workers"] == 3


def test_workers_env_not_an_integer_exits_2(tmp_path, roofs, monkeypatch,
                                            capsys):
    monkeypatch.setenv("MIXLAB_WORKERS", "abc")
    code = exit_code(tmp_path, "classify", "--roof", roofs["example1"])
    assert code == 2
    assert "MIXLAB_WORKERS" in capsys.readouterr().err


def test_weyl_and_hitting_run(tmp_path, roofs):
    code, out = run(
        tmp_path / "w", "weyl", "--roof", roofs["example1"], "--levels", "5",
        "--grid", "128",
    )
    assert code == 0
    lines = read(out / "weyl.csv").decode().splitlines()
    assert lines[0] == "ell,N,value"
    assert len(lines) == 6

    code, out = run(
        tmp_path / "h", "hitting", "--roof", roofs["example1"], "--C", "2",
        "--t", "20",
    )
    assert code == 0
    assert (out / "hitting.csv").exists()


def test_benchmark_tracer_counts_the_lanes(tmp_path, roofs, capsys):
    # perfbench/tracer.py finds the lane kernels by name and counts their
    # points from the argument at position 2; hitting runs for its stop
    # sweep, the iteration bounds for the hit-count lanes, which no command
    # calls
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        codes = []
        tracer.root(lambda: codes.append(run(
            tmp_path / "c", "correlate", "--roof", roofs["example1"],
            "--cube", "0,0.5,0,0.5,0.5", "--t", "2,0,2", "--samples", "5000",
        )[0]))
        tracer.root(lambda: codes.append(run(
            tmp_path / "h", "hitting", "--roof", roofs["example1"], "--C", "2",
            "--t", "20,5",
        )[0]))
        tracer.root(lambda: specialflow.discrete_iteration_bounds(
            _ROOF, _F, 0.1, _ARC, 5.0
        ))
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    assert "mixlab.specialflow." not in capsys.readouterr().err   # all found
    assert tracer.counts["specialflow.flow_lanes.points"] > 0
    assert tracer.counts["specialflow.hit_lanes.points"] > 0
    assert tracer.counts["skewshift.stop_sweep.lane_steps"] > 0


def test_fiber_profile_runs(tmp_path, roofs):
    code, out = run(
        tmp_path, "fiber-profile", "--roof", roofs["example1"],
        "--x", "0.3", "--arc", "0.2,0.6", "--cube", "0.2,0.6,0.1,0.7,0.5",
        "--t", "0",
    )
    assert code == 0
    lines = read(out / "fiber_profile.csv").decode().splitlines()
    assert float(lines[1].split(",")[1]) == pytest.approx(0.4, abs=1e-12)


def test_fiber_profile_wrapping_arc(tmp_path, roofs):
    # the arc from 0.85 to 0.15 wraps past 1: it is 0.3 long, and its
    # cells in [0.1, 0.15) start inside the cube
    code, out = run(
        tmp_path, "fiber-profile", "--roof", roofs["example1"],
        "--x", "0.3", "--arc", "0.85,0.15", "--cube", "0.2,0.6,0.1,0.7,0.5",
        "--t", "0",
    )
    assert code == 0
    lines = read(out / "fiber_profile.csv").decode().splitlines()
    assert float(lines[1].split(",")[1]) == pytest.approx(0.05, abs=0.3 / 256)
    doc = json.loads(read(out / "fiber-profile_summary.json"))
    _, phi = load_roof(roofs["example1"])
    mu = 0.4 * 0.6 * 0.5 / phi.mean()
    assert doc["target"] == pytest.approx(0.3 * mu, rel=1e-12)


def test_fiber_profile_arc_outside_the_fiber_exits_2(tmp_path, roofs, capsys):
    code = exit_code(
        tmp_path, "fiber-profile", "--roof", roofs["example1"], "--x", "0.3",
        "--arc=-0.5,0.9", "--cube", "0.2,0.6,0.1,0.7,0.5", "--t", "1",
    )
    assert code == 2
    assert "arc endpoints must lie in [0, 1]" in capsys.readouterr().err


def test_conjugacy_cli(tmp_path, roofs):
    code, out = run(
        tmp_path, "conjugacy", "--roof", roofs["coboundary"],
        "--t", "0.7,3.3", "--points", "20",
    )
    assert code == 0
    lines = read(out / "conjugacy.csv").decode().splitlines()
    assert all(float(line.split(",")[1]) <= 1e-8 for line in lines[1:])


def test_conjugacy_mixing_roof_exits_3(tmp_path, roofs):
    code, _ = run(
        tmp_path, "conjugacy", "--roof", roofs["example1"], "--t", "1.0"
    )
    assert code == 3


def test_return_check_cli(tmp_path):
    code, out = run(
        tmp_path, "return-check", "--wx", "0.3", "--wy", "1.1", "--wz",
        "-0.2", "--count", "5",
    )
    assert code == 0
    doc = json.loads(read(out / "return-check_summary.json"))
    assert doc["max_coord_err"] <= 1e-9
    assert doc["max_time_err"] <= 1e-10


def test_return_check_overflowing_ratio_exits_3(tmp_path, capsys):
    for wx, wy, wz, count in [
        ("1e300", "1e-300", "0", "1"),
        # every ratio is finite, but the closed form's z-shift overflows
        ("1.7e308", "1", "1.7e308", "3"),
    ]:
        code, _ = run(tmp_path, "return-check", "--wx", wx, "--wy", wy,
                      "--wz", wz, "--count", count)
        assert code == 3
        assert "DegenerateSection" in capsys.readouterr().err


def test_sublevel_deduplicates_thresholds(tmp_path, roofs):
    argv = ["sublevel", "--roof", roofs["example3"], "--n", "50",
            "--grid", "256"]
    code, out = run(tmp_path / "a", *argv, "--deltas", "0.1,0.2,0.1")
    assert code == 0
    code, want = run(tmp_path / "b", *argv, "--deltas", "0.2,0.1")
    assert code == 0
    assert read(out / "sublevel.csv") == read(want / "sublevel.csv")
    code, out = run(tmp_path / "c", *argv, "--deltas", "0.2,0.2")
    assert code == 0
    assert len(read(out / "sublevel.csv").decode().splitlines()) == 2
    assert json.loads(read(out / "sublevel_summary.json"))["slope"] is None


def test_invalid_inputs_exit_2(tmp_path, roofs, capsys):
    code, _ = run(tmp_path / "a", "classify", "--roof", "/nonexistent.json")
    assert code == 2

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "alpha": 0.5, "beta": 0.0, "degree_y": 1, "real": True,
        "coeffs": [{"k": 1, "m": 0, "re": 1.0, "im": 0.0}],
    }))
    code, _ = run(tmp_path / "b", "classify", "--roof", str(bad))
    assert code == 2
    assert "realness" in capsys.readouterr().err or True

    code = exit_code(
        tmp_path / "c", "stretch", "--roof", roofs["example1"], "--C", "-1",
        "--n", "10",
    )
    assert code == 2

    code = exit_code(
        tmp_path / "d", "correlate", "--roof", roofs["example1"],
        "--cube", "0,0.5,0,0.5", "--t", "1", "--samples", "2000",
    )
    assert code == 2

    code = exit_code(
        tmp_path / "e", "sublevel", "--roof", roofs["example3"], "--n", "0",
    )
    assert code == 2


_F = SkewShift(GOLDEN, 0.3)
_PHI = coboundary_roof(0.3)
_P = TorusPoint(0.1, 0.2)
_ARC = (0.0, 1.0)
_ROOF = specialflow.certify_roof(FiberedTrigPoly.constant(2.0))
_CUBE = specialflow.Cube(0.0, 0.5, 0.0, 0.5, 1.0)

# The library's own input guards, called directly, each with the message
# it raises: the CLI's option types reject most of these inputs first.
LIBRARY_GUARDS = {
    "birkhoff_sum-n": (
        lambda: birkhoff_sum(_F, _PHI, _P, -1), "n must be >= 0"),
    "fiber_coefficients-n": (
        lambda: fiber_coefficients(_F, _PHI, 0.1, 0), "n must be >= 1"),
    "fiber_coefficients_on_grid-grid": (
        lambda: fiber_coefficients_on_grid(_F, _PHI, [1], 0),
        "grid must be >= 1"),
    "stretch-degree": (
        lambda: stretch(_F, FiberedTrigPoly.from_modes(
            {(0, 2**9 + 1): 0.5, (0, -2**9 - 1): 0.5}, real=True),
            0.1, _ARC, 5),
        "fiber degree 513 is past 2"),
    "stretch-n": (
        lambda: stretch(_F, _PHI, 0.1, _ARC, 0), "n must be >= 1"),
    "visit_fraction-C": (
        lambda: visit_fraction(_F, _PHI, _P, 0.0, 10), "C must be > 0"),
    "visit_fraction-N": (
        lambda: visit_fraction(_F, _PHI, _P, 1.0, 0), "N must be >= 1"),
    "ergodic_sum_l2-N": (
        lambda: ergodic_sum_l2(
            _F, ComponentSpectrum(OrbitLabel(0, 1), {0: 1.0}), 0),
        "N must be >= 1"),
    "convergent_times-L": (
        lambda: convergent_times(GOLDEN, 0), "L must be >= 1"),
    "certify_roof-not-real": (
        lambda: specialflow.certify_roof(
            FiberedTrigPoly.from_modes({(0, 0): 2.0})),
        "roof must be real-flagged"),
    "Cube-y-interval": (
        lambda: specialflow.Cube(0.0, 1.0, 0.6, 0.2, 0.5), "y-interval"),
    "Cube-height": (
        lambda: specialflow.Cube(0.0, 1.0, 0.0, 1.0, 0.0),
        "height must be positive"),
    "hit_count-t": (
        lambda: specialflow.hit_count(
            _ROOF, _F, specialflow.FlowPoint(0.1, 0.2, 0.0), -1.0),
        "t must be >= 0"),
    "correlate_cubes-samples": (
        lambda: specialflow.correlate_cubes(
            _ROOF, _F, _CUBE, _CUBE, [1.0], 999, 0),
        "samples must be >= 1000"),
    "fiber_mixing_profile-resolution": (
        lambda: specialflow.fiber_mixing_profile(
            _ROOF, _F, 0.1, _ARC, _CUBE, [1.0], resolution=255),
        "resolution must be >= 256"),
    "discrete_iteration_bounds-t": (
        lambda: specialflow.discrete_iteration_bounds(
            _ROOF, _F, 0.1, _ARC, 0.0),
        "t must be > 0"),
    "hitting_complement_measures-C": (
        lambda: specialflow.hitting_complement_measures(
            _ROOF, _F, [1.0], 1.0),
        "C must be > 1"),
    "hitting_complement_measures-grid": (
        lambda: specialflow.hitting_complement_measures(
            _ROOF, _F, [1.0], 2.0, grid=255),
        "grid must be >= 256"),
    "hitting_complement_measures-y_resolution": (
        lambda: specialflow.hitting_complement_measures(
            _ROOF, _F, [1.0], 2.0, y_resolution=0),
        "y_resolution must be >= 1"),
    "trivial_conjugacy_check-u-not-real": (
        lambda: specialflow.trivial_conjugacy_check(
            _ROOF, _F, FiberedTrigPoly.from_modes({(1, 0): 1.0}), 2.0, [1.0]),
        "transfer function must be real-flagged"),
    "ComponentSpectrum.support-empty": (
        lambda: ComponentSpectrum(OrbitLabel(0, 1), {}).support(),
        "empty spectrum has no support"),
}


@pytest.mark.parametrize(
    "call, message", LIBRARY_GUARDS.values(), ids=LIBRARY_GUARDS.keys()
)
def test_library_guards_raise(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def exit_code(tmp_path, *argv):
    """Exit code of one run, argparse's own exit on a bad option included."""
    try:
        return run(tmp_path, *argv)[0]
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv", [
    ["visits", "--roof", "example1", "--C", "nan", "--N", "10"],
    ["stretch", "--roof", "example1", "--C", "inf", "--n", "10"],
    ["correlate", "--roof", "example1", "--alpha", "nan",
     "--cube", "0,0.5,0,0.5,0.5", "--t", "1", "--samples", "2000"],
    ["correlate", "--roof", "example1", "--cube", "0,0.5,0,0.5,0.5",
     "--t", "inf", "--samples", "2000"],
    ["correlate", "--roof", "example1", "--cube", "0,nan,0,0.5,0.5",
     "--t", "1", "--samples", "2000"],
    ["hitting", "--roof", "example1", "--C", "2", "--t", "inf"],
    ["fiber-profile", "--roof", "example1", "--x", "0.3", "--arc", "0.2,0.6",
     "--cube", "0.2,0.6,0.1,0.7,0.5", "--t", "inf"],
    ["conjugacy", "--roof", "coboundary", "--t", "inf"],
    ["conjugacy", "--roof", "coboundary", "--t=-inf"],
    ["sublevel", "--roof", "example3", "--deltas", "0.1,inf"],
    ["classify", "--roof", "example1", "--tol", "nan"],
    ["return-check", "--wx", "0.3", "--wy=-inf", "--wz", "0"],
])
def test_non_finite_floats_exit_2(tmp_path, roofs, capsys, argv):
    argv = [roofs.get(a, a) for a in argv]
    assert exit_code(tmp_path, *argv) == 2
    assert "not a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["conjugacy", "--roof", "coboundary", "--t", "1e300"],
    ["conjugacy", "--roof", "coboundary", "--t=-1e300"],
    ["correlate", "--roof", "example1", "--cube", "0,0.5,0,0.5,0.5",
     "--t", "1e300", "--samples", "2000"],
    ["hitting", "--roof", "example1", "--C", "2", "--t", "1e300"],
    ["fiber-profile", "--roof", "example1", "--x", "0.3", "--arc", "0.2,0.6",
     "--cube", "0.2,0.6,0.1,0.7,0.5", "--t", "1e300"],
    ["conjugacy", "--roof", "coboundary", "--t", "1e18", "--points", "10"],
    ["visits", "--roof", "example1", "--C", "2", "--N", "9223372036854775807"],
    ["stretch", "--roof", "example1", "--C", "2", "--n", "99999999999999999999"],
    ["sublevel", "--roof", "example3", "--n", "99999999999999999999"],
])
def test_unreachable_times_exit_2(tmp_path, roofs, capsys, argv):
    argv = [roofs.get(a, a) for a in argv]
    assert exit_code(tmp_path, *argv) == 2
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["weyl", "--roof", "example1", "--alpha", "1e-300", "--levels", "2"],
    # a first denominator near 1e310, past the largest float
    ["weyl", "--roof", "example1", "--alpha", "1e-310", "--levels", "1"],
    ["sublevel", "--roof", "example3", "--n", "9" * 400],
    ["stretch", "--roof", "example1", "--C", "2", "--n", "9" * 400],
])
def test_out_of_range_orbit_length_prints_short(tmp_path, roofs, capsys,
                                                argv):
    code = exit_code(tmp_path, *[roofs.get(a, a) for a in argv])
    assert code == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert "out of range" in line and len(line) < 200


@pytest.mark.parametrize("command, roof", [
    ("classify", "example1"), ("solve", "coboundary"),
    ("conjugacy", "coboundary"),
])
@pytest.mark.parametrize("alpha", ["0", "0.25", "0.5"])
def test_rational_alpha_has_no_verdict_exit_3(tmp_path, roofs, capsys,
                                              command, roof, alpha):
    extra = ["--t", "1"] if command == "conjugacy" else []
    code, out = run(tmp_path, command, "--roof", roofs[roof],
                    "--alpha", alpha, *extra)
    assert code == 3 and not out.exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("mixlab: numeric failure: RationalAlpha")


def test_sublevel_constant_roof_exits_3(tmp_path, roofs, capsys):
    code, _ = run(tmp_path, "sublevel", "--roof", roofs["constant"])
    assert code == 3
    assert "oscillating part is identically zero" in capsys.readouterr().err


def test_out_of_memory_exits_3(tmp_path, roofs, capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 14.9 GiB for an array")

    monkeypatch.setattr(specialflow, "fiber_mixing_profile", exhausted)
    code, _ = run(
        tmp_path, "fiber-profile", "--roof", roofs["example1"], "--x", "0.3",
        "--arc", "0.2,0.6", "--cube", "0.2,0.6,0.1,0.7,0.5", "--t", "1",
    )
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "out of memory" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["stretch", "--roof", "example1", "--C", "2", "--n", "100,10000",
     "--grid", "2048"],
    ["weyl", "--roof", "example1", "--grid", "2048"],
])
def test_grid_experiments_stream_the_lattice(tmp_path, roofs, argv):
    # the 2048^2 lattice of complex values alone would take 64 MiB
    argv = [roofs.get(a, a) for a in argv]
    tracemalloc.start()
    try:
        code, _ = run(tmp_path, *argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616", "1.5"])
@pytest.mark.parametrize("argv", [
    ["correlate", "--roof", "example1", "--cube", "0,0.5,0,0.5,0.5",
     "--t", "1", "--samples", "2000"],
    ["conjugacy", "--roof", "coboundary", "--t", "1"],
    ["return-check", "--wx", "0.3", "--wy", "1.1", "--wz", "0", "--count", "2"],
])
def test_bad_seed_exits_2(tmp_path, roofs, capsys, argv, seed):
    argv = [roofs.get(a, a) for a in argv]
    assert exit_code(tmp_path, *argv, "--seed", seed) == 2
    err = capsys.readouterr().err
    assert "seed" in err and "Traceback" not in err


def test_largest_seed_runs(tmp_path, roofs):
    code, out = run(
        tmp_path, "correlate", "--roof", roofs["example1"],
        "--cube", "0,0.5,0,0.5,0.5", "--t", "1", "--samples", "2000",
        "--seed", str(2 ** 64 - 1),
    )
    assert code == 0
    row = read(out / "correlate.csv").decode().splitlines()[1]
    assert row.endswith(f",2000,{2 ** 64 - 1}")


def test_summaries_report_the_roof_certificate(tmp_path, roofs):
    keys = {"certified_min", "certified_max", "slack", "slack_target"}
    runs = {
        "correlate": ["--roof", roofs["example1"], "--cube", "0,0.5,0,0.5,0.5",
                      "--t", "0,1", "--samples", "2000"],
        "hitting": ["--roof", roofs["example1"], "--C", "2", "--t", "10"],
        "fiber-profile": ["--roof", roofs["example1"], "--x", "0.3",
                          "--arc", "0.2,0.6", "--cube", "0.2,0.6,0.1,0.7,0.5",
                          "--t", "5"],
        "conjugacy": ["--roof", roofs["coboundary"], "--t", "1", "--points", "5"],
    }
    for command, argv in runs.items():
        code, out = run(tmp_path / command, command, *argv)
        assert code == 0
        doc = json.loads(read(out / f"{command}_summary.json"))
        assert keys <= set(doc)
        assert doc["slack_target"] == 1e-3
        assert 0.0 < doc["certified_min"] <= doc["certified_max"]
        assert 0.0 < doc["slack"] <= doc["slack_target"]
        for name in doc["outputs"]:
            header = read(out / name).decode().splitlines()[0].split(",")
            assert not keys & set(header)


def test_negative_hitting_time_exits_2(tmp_path, roofs, capsys):
    code = exit_code(
        tmp_path, "hitting", "--roof", roofs["example1"], "--C", "2",
        "--t=-5",
    )
    assert code == 2
    assert "t must be >= 0" in capsys.readouterr().err


def test_rational_alpha_small_divisor_exit_3(tmp_path, capsys):
    # rational alpha hits the resonant frequency m = 2 during solve
    roof = tmp_path / "xonly.json"
    roof.write_text(json.dumps({
        "alpha": 0.5, "beta": 0.0, "degree_y": 0, "real": True,
        "coeffs": [
            {"k": 0, "m": 0, "re": 2.0, "im": 0.0},
            {"k": 0, "m": 2, "re": 0.5, "im": 0.0},
            {"k": 0, "m": -2, "re": 0.5, "im": 0.0},
        ],
    }))
    code, _ = run(tmp_path, "solve", "--roof", str(roof))
    assert code == 3
    assert "SmallDivisor" in capsys.readouterr().err


def test_unknown_roof_keys_rejected(tmp_path):
    bad = tmp_path / "extra.json"
    bad.write_text(json.dumps({
        "alpha": 0.3, "beta": 0.0, "degree_y": 0, "real": True,
        "coeffs": [{"k": 0, "m": 0, "re": 2.0, "im": 0.0}],
        "surprise": 1,
    }))
    code, _ = run(tmp_path, "classify", "--roof", str(bad))
    assert code == 2


def _roof_doc(**changes):
    doc = {
        "alpha": 0.3, "beta": 0.0, "degree_y": 0, "real": True,
        "coeffs": [{"k": 0, "m": 0, "re": 2.0, "im": 0.0}],
    }
    doc.update(changes)
    return doc


def _wide_roof_doc(m, k):
    """2 + 0.2 cos(2 pi (m x + k y)), a real roof with the integers m, k."""
    return _roof_doc(alpha=GOLDEN, degree_y=max(1, k), coeffs=[
        {"k": 0, "m": 0, "re": 2.0, "im": 0.0},
        {"k": k, "m": m, "re": 0.1, "im": 0.0},
        {"k": -k, "m": -m, "re": 0.1, "im": 0.0},
    ])


MALFORMED_ROOFS = {
    "coeffs-not-a-list": _roof_doc(coeffs=5),
    "alpha-null": _roof_doc(alpha=None),
    "re-null": _roof_doc(coeffs=[{"k": 0, "m": 0, "re": None, "im": 0.0}]),
    # JSON types are strict: no truncated floats, no strings, no bools
    "m-fraction": _roof_doc(
        real=False, coeffs=[{"k": 0, "m": 1.7, "re": 2.0, "im": 0.0}]),
    "m-negative-fraction": _roof_doc(
        real=False, coeffs=[{"k": 0, "m": -1.2, "re": 2.0, "im": 0.0}]),
    "k-bool": _roof_doc(
        real=False, degree_y=1,
        coeffs=[{"k": True, "m": 0, "re": 2.0, "im": 0.0}]),
    "degree-y-float": _roof_doc(degree_y=1.0),
    "beta-string": _roof_doc(beta="0.1"),
    "re-string": _roof_doc(coeffs=[{"k": 0, "m": 0, "re": "2", "im": 0.0}]),
    "alpha-bool": _roof_doc(alpha=True),
    "real-string": _roof_doc(real="no"),
    "real-int": _roof_doc(real=1),
}


def _malformed_roof(directory, name):
    """Path of the malformed roof ``name``; "directory" is a directory."""
    if name == "directory":
        return str(directory)
    path = directory / f"{name}.json"
    path.write_text(json.dumps(MALFORMED_ROOFS[name]))
    return str(path)


@pytest.mark.parametrize("name", [*MALFORMED_ROOFS, "directory"])
def test_malformed_roof_files_exit_2(tmp_path, capsys, name):
    roof = _malformed_roof(tmp_path, name)
    assert exit_code(tmp_path / "out", "classify", "--roof", roof) == 2
    err = capsys.readouterr().err
    assert "invalid configuration" in err and "Traceback" not in err


@pytest.mark.parametrize("target", ["file", "file/out"])
def test_unwritable_out_exits_2(tmp_path, capsys, target):
    (tmp_path / "file").write_text("")
    code = main(["classify", "--roof", BUNDLED["example1"],
                 "--out", str(tmp_path / target)])
    assert code == 2
    got = capsys.readouterr()
    assert got.out == ""
    assert got.err.splitlines()[-1].startswith("mixlab:")
    assert "Traceback" not in got.err


@pytest.mark.parametrize("argv, want", [
    (["classify", "--roof", "malformed"], 2),
    (["solve", "--roof", "example1"], 3),
    (["weyl", "--roof", "example1", "--alpha", "0.5"], 3),
    (["correlate", "--roof", "example1", "--cube", "0,0.5,0,0.5,5",
      "--t", "1", "--samples", "1000"], 2),
])
def test_failed_run_leaves_no_out(tmp_path, capsys, argv, want):
    roofs = {**BUNDLED, "malformed": _malformed_roof(tmp_path, "alpha-null")}
    code, out = run(tmp_path, *[roofs.get(a, a) for a in argv])
    assert code == want
    assert not out.exists()
    assert capsys.readouterr().out == ""


# Every subcommand with tiny work sizes: each option value is a target of
# the fuzz below.
FUZZ_BASE = {
    "classify": ["--roof", "example1", "--beta", "0", "--tol", "1e-9"],
    "solve": ["--roof", "coboundary", "--tol", "1e-9"],
    "stretch": ["--roof", "example1", "--C", "2", "--n", "1,10", "--grid", "16"],
    "sublevel": ["--roof", "example1", "--n", "3", "--deltas", "0.1,0.01",
                 "--grid", "16"],
    "visits": ["--roof", "example1", "--C", "2", "--N", "1,100", "--x", "0.1",
               "--y", "0.2"],
    "correlate": ["--roof", "example1", "--cube", "0,0.5,0,0.5,0.5",
                  "--t", "0,1", "--samples", "1000", "--seed", "0",
                  "--workers", "1"],
    "fiber-profile": ["--roof", "example1", "--x", "0.3", "--arc", "0.15,0.85",
                      "--cube", "0.2,0.6,0.1,0.7,0.5", "--t", "1",
                      "--resolution", "256"],
    "hitting": ["--roof", "example1", "--C", "2", "--t", "1", "--grid", "256",
                "--y-resolution", "2"],
    "weyl": ["--roof", "example1", "--alpha", "0.6180339887498949",
             "--levels", "3", "--grid", "128"],
    "l2": ["--roof", "example2", "--N", "1,100"],
    "return-check": ["--wx", "0.3", "--wy", "1.1", "--wz", "-0.2",
                     "--count", "2", "--seed", "0"],
    "conjugacy": ["--roof", "constant", "--t", "0.7", "--points", "5",
                  "--seed", "0", "--tol", "1e-9"],
}

ROOFED = sorted(c for c, argv in FUZZ_BASE.items() if "--roof" in argv)


def _roofed_argv(command, roof):
    """``command`` with its FUZZ_BASE options and the roof file ``roof``."""
    argv = [command, *FUZZ_BASE[command]]
    argv[argv.index("--roof") + 1] = str(roof)
    return argv


# integers past int64, which the orbit and grid arithmetic work in
@pytest.mark.parametrize("m, k", [(2 ** 63, 1), (1, 2 ** 63)],
                         ids=["m-2^63", "k-2^63"])
@pytest.mark.parametrize("command", ROOFED)
def test_roof_integer_past_int64_exits_2(tmp_path, capsys, command, m, k):
    roof = tmp_path / "wide.json"
    roof.write_text(json.dumps(_wide_roof_doc(m, k)))
    assert exit_code(tmp_path / "out", *_roofed_argv(command, roof)) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("mixlab: invalid configuration: roof value ")


def test_roof_integer_just_inside_int64_runs(tmp_path):
    roof = tmp_path / "wide.json"
    roof.write_text(json.dumps(_wide_roof_doc(2 ** 63 - 1, 1)))
    for command in ("classify", "visits"):
        code, _ = run(tmp_path / command, *_roofed_argv(command, roof))
        assert code == 0


# a real roof whose lattice size, squared moduli and sums overflow floats
HUGE_ROOF = _roof_doc(alpha=GOLDEN, degree_y=1, coeffs=[
    {"k": 0, "m": 0, "re": 1e308, "im": 0.0},
    {"k": 1, "m": 1, "re": 1e307, "im": 0.0},
    {"k": -1, "m": -1, "re": 1e307, "im": 0.0},
])


@pytest.mark.parametrize("command", [
    "classify", "solve", "correlate", "hitting", "fiber-profile",
    "conjugacy", "return-check",
])
def test_arithmetic_overflow_exits_3(tmp_path, capsys, command):
    if command == "return-check":
        # 1/w_y is finite, but the crossing march steps past the float range
        argv = [command, "--wx", "0.3", "--wy", "1e-308", "--wz", "0"]
    else:
        roof = tmp_path / "huge.json"
        roof.write_text(json.dumps(HUGE_ROOF))
        argv = _roofed_argv(command, roof)
    code, out = run(tmp_path, *argv)
    assert code == 3 and not out.exists()
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("mixlab: numeric failure: OverflowError: ")


# _wide_roof_doc's mode (m, 1) beside (0, 1): the solver's blocks span m
@pytest.mark.parametrize("m", [2 ** 63 - 1, 2 ** 40], ids=["2^63-1", "2^40"])
def test_solve_on_a_block_too_wide_to_walk_exits_2(tmp_path, capsys, m):
    doc = _wide_roof_doc(m, 1)
    doc["coeffs"] += [{"k": k, "m": 0, "re": 0.25, "im": 0.0} for k in (1, -1)]
    roof = tmp_path / "span.json"
    roof.write_text(json.dumps(doc))
    code, out = run(tmp_path, "solve", "--roof", str(roof))
    assert code == 2 and not out.exists()
    (line,) = capsys.readouterr().err.splitlines()
    assert line == ("mixlab: invalid configuration: block OrbitLabel(m=0, "
                    f"n=-1) spans {m} indices, past 2^22")


def test_a_non_finite_result_exits_3_and_writes_nothing(tmp_path, capsys):
    roof = tmp_path / "huge.json"
    roof.write_text(json.dumps(HUGE_ROOF))
    with pytest.warns(RuntimeWarning, match="overflow"):
        code, out = run(tmp_path, "l2", "--roof", str(roof), "--N", "1,10")
    assert code == 3 and not out.exists()
    (line,) = capsys.readouterr().err.splitlines()
    assert line == ("mixlab: numeric failure: MixlabError: l2.csv holds a "
                    "non-finite number")


def test_all_finite_reads_every_float_of_a_file():
    assert _all_finite({"a": [(1, 2.5, "x")], "b": {"c": [None, 0.0]}})
    for bad in (math.inf, -math.inf, math.nan):
        assert not _all_finite({"a": [(1, bad)]})
        assert not _all_finite((("n",), [(1, {"b": [bad]})]))


HOSTILE = ["", "abc", "nan", "-1", "-1e-3", "-0.5,0.5", "0", "1e400",
           "0.1,0.2,0.3"]

# --out targets, relative to the run's directory, where "file" is a file
HOSTILE_OUT = ["file", "file/out"]


BUNDLED = {name: bundled_roof_path(name)
           for name in ("example1", "example2", "constant", "coboundary")}


@st.composite
def hostile_argv(draw):
    """(argv, malformed): one subcommand, with ``--out out`` relative to the
    run's directory, with one option value replaced by a hostile token, or,
    when ``malformed`` names one, its roof replaced by a malformed roof."""
    command = draw(st.sampled_from(sorted(FUZZ_BASE)))
    argv = [BUNDLED.get(a, a) for a in FUZZ_BASE[command]] + ["--out", "out"]
    if "--roof" in argv and draw(st.booleans()):
        return [command, *argv], draw(
            st.sampled_from([*MALFORMED_ROOFS, "directory"])
        )
    at = draw(st.sampled_from(range(1, len(argv), 2)))
    tokens = {"--seed": [*HOSTILE, "18446744073709551616"],
              "--out": HOSTILE_OUT}.get(argv[at - 1], HOSTILE)
    argv[at] = draw(st.sampled_from(tokens))
    return [command, *argv], None


@settings(max_examples=500)
@given(case=hostile_argv())
def test_cli_fuzz_exits_cleanly(tmp_path_factory, case):
    argv, malformed = case
    work = tmp_path_factory.mktemp("fuzz")
    (work / "file").write_text("")
    if malformed:
        argv[argv.index("--roof") + 1] = _malformed_roof(work, malformed)
    at = argv.index("--out") + 1
    argv[at] = str(work / argv[at])
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    # a failed run writes nothing
    assert code == 0 or not (work / "out").exists(), argv


# One FUZZ_BASE value per rule that an option's type states, each just out
# of range.
OUT_OF_RANGE = [
    ("stretch", "--grid", "0"),
    ("correlate", "--samples", "0"),
    ("conjugacy", "--points", "0"),
    ("return-check", "--count", "0"),
    ("weyl", "--levels", "0"),
    ("fiber-profile", "--resolution", "0"),
    ("hitting", "--y-resolution", "0"),
    ("classify", "--tol", "0"),
    ("stretch", "--C", "0"),
    ("visits", "--N", "1,0"),
    ("stretch", "--n", "1,0"),
    ("sublevel", "--n", "0"),
    ("sublevel", "--deltas", "0.1,0"),
    ("correlate", "--cube", "0,0.5,0,0.5"),
    ("fiber-profile", "--arc", "0.2"),
    ("correlate", "--workers", "0"),
    ("correlate", "--t", ","),
    ("visits", "--N", ","),
    ("sublevel", "--deltas", ","),
]


@pytest.mark.parametrize("command, option, value", OUT_OF_RANGE)
def test_out_of_range_option_exits_2(tmp_path, capsys, command, option, value):
    argv = [BUNDLED.get(a, a) for a in FUZZ_BASE[command]]
    argv[argv.index(option) + 1] = value
    assert exit_code(tmp_path, command, *argv) == 2
    err = capsys.readouterr().err
    # the last line is the error; a usage line above it names every option
    assert option in err.splitlines()[-1] and "Traceback" not in err


# Values led by a dash, which argparse alone reads as an option unless they
# are plain negative numbers.
DASH_LED_VALUES = [
    ("correlate", "--t", "-5,0,5"),
    ("visits", "--x", "-1e-3"),
    ("return-check", "--wx", "-1e-3"),
    ("fiber-profile", "--t", "-5,5"),
    ("conjugacy", "--t", "-2,2"),
]


@pytest.mark.parametrize("command, option, value", DASH_LED_VALUES)
def test_dash_led_value_reads_as_its_equals_form(tmp_path, command, option,
                                                 value):
    argv = [BUNDLED.get(a, a) for a in FUZZ_BASE[command]]
    at = argv.index(option)
    outs = {}
    for form, given in (("spaced", [option, value]),
                        ("joined", [f"{option}={value}"])):
        code, outs[form] = run(
            tmp_path / form, command, *argv[:at], *given, *argv[at + 2:]
        )
        assert code == 0
    data = sorted(p.name for p in outs["joined"].iterdir()
                  if not p.name.endswith("_summary.json"))
    assert data
    for name in data:
        assert read(outs["spaced"] / name) == read(outs["joined"] / name)


_RUN_OPTIONS = ["-h", "--help", "--out", "--workers"]
_ROOF_OPTIONS = [*_RUN_OPTIONS, "--roof", "--alpha", "--beta"]
OPTION_SURFACE = {
    "classify": [*_ROOF_OPTIONS, "--tol"],
    "solve": [*_ROOF_OPTIONS, "--tol"],
    "stretch": [*_ROOF_OPTIONS, "--C", "--n", "--grid"],
    "sublevel": [*_ROOF_OPTIONS, "--n", "--deltas", "--grid"],
    "visits": [*_ROOF_OPTIONS, "--C", "--N", "--x", "--y"],
    "correlate": [*_ROOF_OPTIONS, "--cube", "--t", "--samples", "--seed"],
    "fiber-profile": [*_ROOF_OPTIONS, "--x", "--arc", "--cube", "--t",
                      "--resolution"],
    "hitting": [*_ROOF_OPTIONS, "--C", "--t", "--grid", "--y-resolution"],
    "weyl": [*_ROOF_OPTIONS, "--levels", "--grid"],
    "l2": [*_ROOF_OPTIONS, "--N"],
    "return-check": [*_RUN_OPTIONS, "--wx", "--wy", "--wz", "--count",
                     "--seed"],
    "conjugacy": [*_ROOF_OPTIONS, "--t", "--points", "--seed", "--tol"],
}


def test_option_surface():
    # adding or dropping a knob has to change this table
    (sub,) = [a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction)]
    got = {name: sorted(s for a in sp._actions for s in a.option_strings)
           for name, sp in sub.choices.items()}
    assert got == {name: sorted(opts) for name, opts in OPTION_SURFACE.items()}

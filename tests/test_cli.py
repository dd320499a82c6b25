"""CLI behaviour: outputs, exit codes, determinism."""

import contextlib
import io
import json
import os
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixlab import specialflow
from mixlab.cli import bundled_roof_path, main


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
    code, _ = run(tmp_path, "classify", "--roof", roofs["example1"])
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


def test_fiber_profile_runs(tmp_path, roofs):
    code, out = run(
        tmp_path, "fiber-profile", "--roof", roofs["example1"],
        "--x", "0.3", "--arc", "0.2,0.6", "--cube", "0.2,0.6,0.1,0.7,0.5",
        "--t", "0",
    )
    assert code == 0
    lines = read(out / "fiber_profile.csv").decode().splitlines()
    assert float(lines[1].split(",")[1]) == pytest.approx(0.4, abs=1e-12)


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

    code, _ = run(
        tmp_path / "c", "stretch", "--roof", roofs["example1"], "--C", "-1",
        "--n", "10",
    )
    assert code == 2

    code, _ = run(
        tmp_path / "d", "correlate", "--roof", roofs["example1"],
        "--cube", "0,0.5,0,0.5", "--t", "1", "--samples", "2000",
    )
    assert code == 2

    code, _ = run(
        tmp_path / "e", "sublevel", "--roof", roofs["example3"], "--n", "0",
    )
    assert code == 2


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

HOSTILE = ["", "abc", "nan", "-1", "0", "1e400", "0.1,0.2,0.3"]


BUNDLED = {name: bundled_roof_path(name)
           for name in ("example1", "example2", "constant", "coboundary")}


@st.composite
def hostile_argv(draw):
    """(argv, malformed): one subcommand with one option value replaced by a
    hostile token, or, when ``malformed`` names one, its roof replaced by a
    malformed roof."""
    command = draw(st.sampled_from(sorted(FUZZ_BASE)))
    argv = [BUNDLED.get(a, a) for a in FUZZ_BASE[command]]
    if "--roof" in argv and draw(st.booleans()):
        return [command, *argv], draw(
            st.sampled_from([*MALFORMED_ROOFS, "directory"])
        )
    at = draw(st.sampled_from(range(1, len(argv), 2)))
    tokens = HOSTILE + ["18446744073709551616"] * (argv[at - 1] == "--seed")
    argv[at] = draw(st.sampled_from(tokens))
    return [command, *argv], None


@settings(max_examples=500)
@given(case=hostile_argv())
def test_cli_fuzz_exits_cleanly(tmp_path_factory, case):
    argv, malformed = case
    work = tmp_path_factory.mktemp("fuzz")
    if malformed:
        argv[argv.index("--roof") + 1] = _malformed_roof(work, malformed)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main([*argv, "--out", str(work / "out")])
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()

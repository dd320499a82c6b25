"""mixlab: command-line experiment harness.

Loads a roof file (JSON: map parameters plus the Fourier coefficients of
the roof), dispatches one experiment, and writes plot-ready CSV plus a
JSON report.  Every run also writes a ``*_summary.json`` with the fully
resolved configuration, the library version, the list of outputs, and
the wall time; identical configuration and seed reproduce the data
files byte for byte, for any ``--workers`` value.

Exit codes: 0 success, 2 invalid configuration or input file, 3 numeric
failure (resonant divisor, nonzero obstruction, non-positive roof, ...).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from importlib import resources
from typing import List, Optional, Sequence

import numpy as np

from . import __version__, cohomology, skewshift, specialflow
from .errors import InvalidRoofFile, MixlabError
from .phases import circle_distance
from .skewshift import SkewShift, TorusPoint, project
from .trigpoly import FiberedTrigPoly


def _fmt(v: float) -> str:
    """17 significant digits, '.' decimal; reproducible across runs."""
    return f"{v:.17g}"


def _finite(text: str) -> float:
    """argparse type of every float option: a finite number."""
    v = float(text)
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return v


def _seed(text: str) -> int:
    """argparse type of every --seed: an integer in [0, 2^64)."""
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not 0 <= v < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2^64): {text}")
    return v


def _parse_floats(text: str) -> List[float]:
    return [_finite(tok) for tok in text.split(",") if tok]


def _parse_ints(text: str) -> List[int]:
    return [int(tok) for tok in text.split(",") if tok]


def bundled_roof_path(name: str) -> str:
    """Path of one of the shipped roof files (example1..3, constant,
    coboundary)."""
    return str(resources.files("mixlab").joinpath("data", f"{name}.json"))


def _load(args) -> tuple[SkewShift, FiberedTrigPoly]:
    f, phi = skewshift.load_roof(args.roof)
    alpha = f.alpha if args.alpha is None else args.alpha
    beta = f.beta if args.beta is None else args.beta
    return SkewShift(alpha, beta), phi


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    _fmt(v) if isinstance(v, float) else str(v) for v in row
                )
                + "\n"
            )


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


class _Run:
    """Collects output files and writes the run summary."""

    def __init__(self, args):
        self.args = args
        self.outputs: List[str] = []
        self.started = time.perf_counter()
        os.makedirs(args.out, exist_ok=True)

    def path(self, name: str) -> str:
        full = os.path.join(self.args.out, name)
        self.outputs.append(name)
        return full

    def finish(self, extra: Optional[dict] = None) -> None:
        config = {
            k: v
            for k, v in vars(self.args).items()
            if k != "func" and not k.startswith("_")
        }
        doc = {
            "experiment": self.args.command,
            "config": config,
            "version": __version__,
            "outputs": self.outputs,
            "wall_time_s": time.perf_counter() - self.started,
        }
        if extra:
            doc.update(extra)
        summary = os.path.join(self.args.out, f"{self.args.command}_summary.json")
        _write_json(summary, doc)


def _certificate(roof: specialflow.Roof) -> dict:
    """The roof's certified bounds, for a run summary."""
    return {
        "certified_min": roof.certified_min,
        "certified_max": roof.certified_max,
        "slack": roof.slack,
        "slack_target": roof.slack_target,
    }


# ---------------------------------------------------------------- commands


def cmd_classify(args) -> int:
    run = _Run(args)
    f, phi = _load(args)
    report = cohomology.classify_roof(f, phi, tol=args.tol)
    _write_json(run.path("classify_report.json"), report.to_json_dict())
    run.finish({"verdict": report.verdict})
    print(report.verdict)
    return 0


def cmd_solve(args) -> int:
    run = _Run(args)
    f, phi = _load(args)
    u, mean = cohomology.solve_roof(f, phi, args.tol)
    skewshift.save_roof(run.path("transfer_u.json"), f, u)
    sup = cohomology.coboundary_residual(f, u, phi, mean)
    _write_json(
        run.path("solve_report.json"),
        {"mean": mean, "residual_sup_128": sup},
    )
    run.finish({"mean": mean})
    print(_fmt(mean))
    return 0


def cmd_stretch(args) -> int:
    """Decay of the measure of {|phi_n| < C} along a list of n."""
    run = _Run(args)
    f, phi = _load(args)
    osc, _ = project(phi)
    ns = sorted(set(args.n))
    ks, mats = skewshift.fiber_coefficients_on_grid(f, osc, ns, grid=args.grid)
    rows = []
    errors = {}
    for n in ns:
        blocks = skewshift.grid_blocks(ks, mats[n], osc.real)
        (est,) = skewshift.sublevel_measures(blocks, [args.C])
        rows.append((n, est.value))
        errors[str(n)] = est.error
    _write_csv(run.path("stretch.csv"), ("n", "measure"), rows)
    run.finish({"grid_errors": errors})
    return 0


def cmd_sublevel(args) -> int:
    """Small-value measure of phi_n against thresholds, with a log-log slope."""
    run = _Run(args)
    f, phi = _load(args)
    osc, _ = project(phi)
    ks, mats = skewshift.fiber_coefficients_on_grid(
        f, osc, [args.n], grid=args.grid
    )

    def blocks():
        return skewshift.grid_blocks(ks, mats[args.n], osc.real)

    sup = skewshift.grid_sup(blocks())
    if sup == 0.0:
        raise MixlabError("oscillating part is identically zero")
    deltas = sorted(args.deltas, reverse=True)
    ests = skewshift.sublevel_measures((v / sup for v in blocks()), deltas)
    rows = []
    logs = []
    for delta, est in zip(deltas, ests):
        rows.append((delta, est.value))
        if est.value > 0:
            logs.append((math.log(delta), math.log(est.value)))
    slope = None
    if len(logs) >= 2:
        xs = np.array([p[0] for p in logs])
        ysv = np.array([p[1] for p in logs])
        slope = float(np.polyfit(xs, ysv, 1)[0])
    _write_csv(run.path("sublevel.csv"), ("delta", "measure"), rows)
    run.finish({"slope": slope, "sup_norm_used": sup})
    return 0


def cmd_visits(args) -> int:
    run = _Run(args)
    f, phi = _load(args)
    p = TorusPoint(args.x, args.y)
    rows = [
        (N, skewshift.visit_fraction(f, phi, p, args.C, N))
        for N in sorted(set(args.N))
    ]
    _write_csv(run.path("visits.csv"), ("n", "measure"), rows)
    run.finish()
    return 0


def cmd_correlate(args) -> int:
    run = _Run(args)
    f, phi = _load(args)
    roof = specialflow.certify_roof(phi)
    c = args.cube
    cube = specialflow.Cube(c[0], c[1], c[2], c[3], c[4])
    ests = specialflow.correlate_cubes(
        roof, f, cube, cube, args.t, args.samples, args.seed, workers=args.workers
    )
    rows = [
        (t, est.value, est.std_error, est.samples, est.seed)
        for t, est in zip(args.t, ests)
    ]
    _write_csv(
        run.path("correlate.csv"),
        ("t", "value", "stderr", "samples", "seed"),
        rows,
    )
    run.finish(
        {"mu_cube": specialflow.cube_measure(roof, cube), **_certificate(roof)}
    )
    return 0


def cmd_fiber_profile(args) -> int:
    run = _Run(args)
    f, phi = _load(args)
    roof = specialflow.certify_roof(phi)
    c = args.cube
    cube = specialflow.Cube(c[0], c[1], c[2], c[3], c[4])
    rows = []
    for t in args.t:
        val = specialflow.fiber_mixing_profile(
            roof, f, args.x, (args.arc[0], args.arc[1]), cube, t,
            resolution=args.resolution,
        )
        rows.append((t, val))
    _write_csv(run.path("fiber_profile.csv"), ("t", "measure"), rows)
    run.finish(
        {
            "target": (args.arc[1] - args.arc[0])
            * specialflow.cube_measure(roof, cube),
            **_certificate(roof),
        }
    )
    return 0


def cmd_hitting(args) -> int:
    run = _Run(args)
    f, phi = _load(args)
    roof = specialflow.certify_roof(phi)
    rows = []
    for t in args.t:
        val = specialflow.hitting_complement_measure(
            roof, f, t, args.C, grid=args.grid,
            y_resolution=args.y_resolution, workers=args.workers,
        )
        rows.append((t, val))
    _write_csv(run.path("hitting.csv"), ("t", "measure"), rows)
    run.finish(_certificate(roof))
    return 0


def cmd_weyl(args) -> int:
    run = _Run(args)
    f, phi = _load(args)
    osc, _ = project(phi)
    times = cohomology.convergent_times(f.alpha, args.levels)
    rows = []
    for ell, N in enumerate(times.denominators, start=1):
        val = cohomology.uniform_bound_scan(f, osc, N, grid=args.grid)
        rows.append((ell, N, val))
    _write_csv(run.path("weyl.csv"), ("ell", "N", "value"), rows)
    run.finish({"partial_quotients": list(times.partial_quotients)})
    return 0


def cmd_l2(args) -> int:
    run = _Run(args)
    f, phi = _load(args)
    osc, _ = project(phi)
    _, components = cohomology.decompose_components(osc)
    rows = []
    for N in sorted(set(args.N)):
        total = sum(cohomology.ergodic_sum_l2(f, S, N) for S in components)
        rows.append((N, total))
    _write_csv(run.path("l2.csv"), ("n", "measure"), rows)
    run.finish({"components": len(components)})
    return 0


def cmd_return_check(args) -> int:
    from .heisenberg import AlgebraVector, poincare_return, poincare_return_numeric

    run = _Run(args)
    w = AlgebraVector(args.wx, args.wy, args.wz)
    rng = np.random.Generator(
        np.random.Philox(key=np.array([args.seed, 0], dtype=np.uint64))
    )
    draws = rng.random((args.count, 2))       # (x, z) per point, in draw order
    got = poincare_return_numeric(w, draws[:, 0], draws[:, 1])
    want = np.array([poincare_return(w, x, z) for x, z in draws.tolist()])
    errs = np.maximum(
        circle_distance(got.x, want[:, 0]), circle_distance(got.z, want[:, 1])
    ).tolist()
    worst_xy = max([0.0, *errs])
    terr = abs(got.time - 1.0 / w.w_y)
    rows = [(i, err, terr) for i, err in enumerate(errs)]
    _write_csv(run.path("return_check.csv"), ("i", "coord_err", "time_err"), rows)
    run.finish({"max_coord_err": worst_xy, "max_time_err": terr})
    return 0


def cmd_conjugacy(args) -> int:
    run = _Run(args)
    f, phi = _load(args)
    roof = specialflow.certify_roof(phi)
    u, mean = cohomology.solve_roof(f, phi, args.tol)
    rows = []
    for t in args.t:
        dev = specialflow.trivial_conjugacy_check(
            roof, f, u, mean, t, points=args.points, seed=args.seed
        )
        rows.append((t, dev))
    _write_csv(run.path("conjugacy.csv"), ("t", "measure"), rows)
    run.finish({"mean": mean, **_certificate(roof)})
    return 0


# ------------------------------------------------------------------ parser


def _add_common(sp, roof=True):
    if roof:
        sp.add_argument("--roof", required=True, help="roof JSON file")
        sp.add_argument("--alpha", type=_finite, default=None,
                        help="override the file's alpha")
        sp.add_argument("--beta", type=_finite, default=None,
                        help="override the file's beta")
    sp.add_argument("--out", default=".", help="output directory")
    sp.add_argument(
        "--workers",
        type=int,
        default=None,
        help="parallel workers for Monte-Carlo sampling and hit counting "
             "(default: MIXLAB_WORKERS or 1)",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mixlab",
        description="Experiments on special flows over linear skew-shifts.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="mixing/trivial verdict for a roof")
    _add_common(sp)
    sp.add_argument("--tol", type=_finite, default=1e-9)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("solve", help="emit the transfer function u")
    _add_common(sp)
    sp.add_argument("--tol", type=_finite, default=1e-9)
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("stretch", help="sublevel-measure decay along n")
    _add_common(sp)
    sp.add_argument("--C", type=_finite, required=True)
    sp.add_argument("--n", type=_parse_ints, required=True,
                    help="comma-separated Birkhoff lengths")
    sp.add_argument("--grid", type=int, default=2048)
    sp.set_defaults(func=cmd_stretch)

    sp = sub.add_parser("sublevel", help="small-value measure vs threshold")
    _add_common(sp)
    sp.add_argument("--n", type=int, default=1)
    sp.add_argument("--deltas", type=_parse_floats,
                    default=[1e-1, 1e-2, 1e-3, 1e-4])
    sp.add_argument("--grid", type=int, default=1024)
    sp.set_defaults(func=cmd_sublevel)

    sp = sub.add_parser("visits", help="orbit fraction with small phi_n")
    _add_common(sp)
    sp.add_argument("--C", type=_finite, required=True)
    sp.add_argument("--N", type=_parse_ints, required=True)
    sp.add_argument("--x", type=_finite, default=0.1)
    sp.add_argument("--y", type=_finite, default=0.2)
    sp.set_defaults(func=cmd_visits)

    sp = sub.add_parser("correlate", help="Monte-Carlo mixing curve")
    _add_common(sp)
    sp.add_argument("--cube", type=_parse_floats, required=True,
                    help="x1,x2,y1,y2,h")
    sp.add_argument("--t", type=_parse_floats, required=True)
    sp.add_argument("--samples", type=int, default=1_000_000)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.set_defaults(func=cmd_correlate)

    sp = sub.add_parser("fiber-profile", help="fiber arc mass carried into a cube")
    _add_common(sp)
    sp.add_argument("--x", type=_finite, required=True)
    sp.add_argument("--arc", type=_parse_floats, required=True, help="y1,y2")
    sp.add_argument("--cube", type=_parse_floats, required=True,
                    help="x1,x2,y1,y2,h")
    sp.add_argument("--t", type=_parse_floats, required=True)
    sp.add_argument("--resolution", type=int, default=512)
    sp.set_defaults(func=cmd_fiber_profile)

    sp = sub.add_parser("hitting", help="measure of fibers without large phi")
    _add_common(sp)
    sp.add_argument("--C", type=_finite, required=True)
    sp.add_argument("--t", type=_parse_floats, required=True)
    sp.add_argument("--grid", type=int, default=256)
    sp.add_argument("--y-resolution", dest="y_resolution", type=int, default=64)
    sp.set_defaults(func=cmd_hitting)

    sp = sub.add_parser("weyl", help="sup |phi_N|/sqrt(N) along denominators")
    _add_common(sp)
    sp.add_argument("--levels", type=int, default=20)
    sp.add_argument("--grid", type=int, default=256)
    sp.set_defaults(func=cmd_weyl)

    sp = sub.add_parser("l2", help="exact squared L2 norms of Birkhoff sums")
    _add_common(sp)
    sp.add_argument("--N", type=_parse_ints, required=True)
    sp.set_defaults(func=cmd_l2)

    sp = sub.add_parser("return-check", help="section return map cross-check")
    _add_common(sp, roof=False)
    sp.add_argument("--wx", type=_finite, required=True)
    sp.add_argument("--wy", type=_finite, required=True)
    sp.add_argument("--wz", type=_finite, required=True)
    sp.add_argument("--count", type=int, default=100)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.set_defaults(func=cmd_return_check)

    sp = sub.add_parser("conjugacy", help="shear conjugacy check for trivial roofs")
    _add_common(sp)
    sp.add_argument("--t", type=_parse_floats, required=True)
    sp.add_argument("--points", type=int, default=100)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--tol", type=_finite, default=1e-9)
    sp.set_defaults(func=cmd_conjugacy)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        _validate(args)
        return args.func(args)
    except (InvalidRoofFile, FileNotFoundError, ValueError) as exc:
        print(f"mixlab: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except MixlabError as exc:
        print(f"mixlab: numeric failure: {exc.__class__.__name__}: {exc}",
              file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"mixlab: out of memory: {exc}", file=sys.stderr)
        return 3


def _validate(args) -> None:
    if args.workers is None:
        env = os.environ.get("MIXLAB_WORKERS", "1")
        try:
            args.workers = int(env)
        except ValueError:
            raise ValueError(
                f"MIXLAB_WORKERS must be an integer, got {env!r}"
            ) from None
    if args.workers < 1:
        raise ValueError("--workers must be >= 1")
    for name in ("grid", "samples", "points", "count", "levels", "resolution",
                 "y_resolution"):
        v = getattr(args, name, None)
        if v is not None and v < 1:
            raise ValueError(f"--{name.replace('_', '-')} must be positive")
    cube = getattr(args, "cube", None)
    if cube is not None and len(cube) != 5:
        raise ValueError("--cube needs exactly x1,x2,y1,y2,h")
    arc = getattr(args, "arc", None)
    if arc is not None and len(arc) != 2:
        raise ValueError("--arc needs exactly y1,y2")
    for name in ("C", "tol"):
        v = getattr(args, name, None)
        if v is not None and v <= 0:
            raise ValueError(f"--{name} must be positive")
    ns = getattr(args, "n", None)
    if isinstance(ns, int):
        ns = [ns]
    if ns is not None and any(n < 1 for n in ns):
        raise ValueError("--n entries must be >= 1")
    Ns = getattr(args, "N", None)
    if Ns is not None and any(n < 1 for n in Ns):
        raise ValueError("--N entries must be >= 1")


if __name__ == "__main__":
    sys.exit(main())

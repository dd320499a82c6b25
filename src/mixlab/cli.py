"""mixlab: command-line experiment harness.

Loads a roof file (JSON: map parameters plus the Fourier coefficients of
the roof), runs one experiment, and writes plot-ready CSV plus a JSON
report.  Each ``cmd_*`` returns ``({file name: content}, summary keys)``,
and ``classify``/``solve`` also the line they print; ``main`` alone writes.
Only a successful run writes anything: its data files, then a
``*_summary.json`` with the fully resolved configuration, the library
version, the list of outputs, and the wall time.  Identical configuration
and seed reproduce the data files byte for byte, for any ``--workers``.

Exit codes: 0 success; 2 an option value its argparse type rejects (with
the usage line), a bad roof file, an out-of-range run or an output path
that cannot be written; 3 numeric failure (resonant divisor, nonzero
obstruction, non-positive roof, rational alpha, a non-finite result, ...).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from importlib import resources
from typing import Optional, Sequence

import numpy as np

from . import __version__, cohomology, skewshift, specialflow
from .errors import MixlabError
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


def _count(text: str) -> int:
    """argparse type of every size, count and Birkhoff length: an int >= 1."""
    v = int(text)
    if v < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1: {text}")
    return v


def _positive(text: str) -> float:
    """argparse type of --C, --tol and --deltas: a finite number > 0."""
    v = _finite(text)
    if v <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0: {text}")
    return v


def _workers(text: str) -> int:
    """argparse type of --workers, whose default is MIXLAB_WORKERS."""
    try:
        return _count(text)
    except (ValueError, argparse.ArgumentTypeError):
        raise argparse.ArgumentTypeError(
            f"must be an integer >= 1 (default: MIXLAB_WORKERS): {text!r}"
        ) from None


def _list(item, size: Optional[int] = None):
    """argparse type of a comma-separated list of ``item`` values, empty
    entries skipped; of at least one entry, and of exactly ``size`` entries
    when ``size`` is given."""

    def comma_list(text: str) -> list:
        vals = [item(tok) for tok in text.split(",") if tok]
        if not vals:
            raise argparse.ArgumentTypeError("needs at least one value")
        if size is not None and len(vals) != size:
            raise argparse.ArgumentTypeError(f"needs exactly {size} values")
        return vals

    return comma_list


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


def _write(out: str, files: dict) -> None:
    """Write each data file into ``out``: a ``.csv`` name takes
    ``(header, rows)``, any other name a JSON document."""
    for name, content in files.items():
        path = os.path.join(out, name)
        if name.endswith(".csv"):
            _write_csv(path, *content)
        else:
            _write_json(path, content)


def _all_finite(doc) -> bool:
    """Whether every float in a nested dict, list or tuple is finite."""
    if isinstance(doc, (dict, list, tuple)):
        items = doc.values() if isinstance(doc, dict) else doc
        return all(map(_all_finite, items))
    return not isinstance(doc, float) or math.isfinite(doc)


def _certificate(roof: specialflow.Roof) -> dict:
    """The roof's certified bounds, for a run summary."""
    return {
        "certified_min": roof.certified_min,
        "certified_max": roof.certified_max,
        "slack": roof.slack,
        "slack_target": roof.slack_target,
    }


# ---------------------------------------------------------------- commands


def cmd_classify(args, f, phi):
    report = cohomology.classify_roof(f, phi, tol=args.tol)
    files = {"classify_report.json": report.to_json_dict()}
    return files, {"verdict": report.verdict}, report.verdict


def cmd_solve(args, f, phi):
    u, mean = cohomology.solve_roof(f, phi, args.tol)
    sup = cohomology.coboundary_residual(f, u, phi, mean)
    files = {
        "transfer_u.json": skewshift.roof_to_dict(f, u),
        "solve_report.json": {"mean": mean, "residual_sup_128": sup},
    }
    return files, {"mean": mean}, _fmt(mean)


def cmd_stretch(args, f, phi):
    """Decay of the measure of {|phi_n| < C} along a list of n."""
    osc, _ = project(phi)
    ns = sorted(set(args.n))
    _, mats = skewshift.fiber_coefficients_on_grid(f, osc, ns, grid=args.grid)
    rows = []
    errors = {}
    for n in ns:
        blocks = skewshift.grid_blocks(osc, mats[n])
        (est,) = skewshift.sublevel_measures(blocks, [args.C])
        rows.append((n, est.value))
        errors[str(n)] = est.error
    files = {"stretch.csv": (("n", "measure"), rows)}
    return files, {"grid_errors": errors}


def cmd_sublevel(args, f, phi):
    """Small-value measure of phi_n against thresholds, with a log-log slope."""
    osc, _ = project(phi)
    _, mats = skewshift.fiber_coefficients_on_grid(f, osc, [args.n], args.grid)

    def blocks():
        return skewshift.grid_blocks(osc, mats[args.n])

    sup = skewshift.grid_sup(blocks())
    if sup == 0.0:
        raise MixlabError("oscillating part is identically zero")
    deltas = sorted(set(args.deltas), reverse=True)
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
    files = {"sublevel.csv": (("delta", "measure"), rows)}
    return files, {"slope": slope, "sup_norm_used": sup}


def cmd_visits(args, f, phi):
    p = TorusPoint(args.x, args.y)
    rows = [
        (N, skewshift.visit_fraction(f, phi, p, args.C, N))
        for N in sorted(set(args.N))
    ]
    return {"visits.csv": (("n", "measure"), rows)}, {}


def cmd_correlate(args, f, phi):
    roof = specialflow.certify_roof(phi)
    cube = specialflow.Cube(*args.cube)
    ests = specialflow.correlate_cubes(
        roof, f, cube, cube, args.t, args.samples, args.seed, workers=args.workers
    )
    rows = [
        (t, est.value, est.std_error, est.samples, est.seed)
        for t, est in zip(args.t, ests)
    ]
    files = {"correlate.csv": (("t", "value", "stderr", "samples", "seed"),
                               rows)}
    return files, {"mu_cube": specialflow.cube_measure(roof, cube),
                   **_certificate(roof)}


def cmd_fiber_profile(args, f, phi):
    arc = (args.arc[0], args.arc[1])
    length = skewshift.arc_length(arc)
    roof = specialflow.certify_roof(phi)
    cube = specialflow.Cube(*args.cube)
    vals = specialflow.fiber_mixing_profile(
        roof, f, args.x, arc, cube, args.t, resolution=args.resolution,
    )
    rows = list(zip(args.t, vals))
    files = {"fiber_profile.csv": (("t", "measure"), rows)}
    return files, {"target": length * specialflow.cube_measure(roof, cube),
                   **_certificate(roof)}


def cmd_hitting(args, f, phi):
    roof = specialflow.certify_roof(phi)
    vals = specialflow.hitting_complement_measures(
        roof, f, args.t, args.C, grid=args.grid, y_resolution=args.y_resolution
    )
    files = {"hitting.csv": (("t", "measure"), list(zip(args.t, vals)))}
    return files, _certificate(roof)


def cmd_weyl(args, f, phi):
    osc, _ = project(phi)
    times = cohomology.convergent_times(f.alpha, args.levels)
    rows = []
    for ell, N in enumerate(times.denominators, start=1):
        val = cohomology.uniform_bound_scan(f, osc, N, grid=args.grid)
        rows.append((ell, N, val))
    files = {"weyl.csv": (("ell", "N", "value"), rows)}
    return files, {"partial_quotients": list(times.partial_quotients)}


def cmd_l2(args, f, phi):
    _, components = cohomology.decompose_components(phi)
    rows = []
    for N in sorted(set(args.N)):
        total = sum(cohomology.ergodic_sum_l2(f, S, N) for S in components)
        rows.append((N, total))
    files = {"l2.csv": (("n", "measure"), rows)}
    return files, {"components": len(components)}


def cmd_return_check(args, f, phi):
    from .heisenberg import AlgebraVector, poincare_return, poincare_return_numeric

    w = AlgebraVector(args.wx, args.wy, args.wz)
    # (x, z) per point, in draw order
    draws = specialflow._stream(args.seed, 0).random((args.count, 2))
    got = poincare_return_numeric(w, draws[:, 0], draws[:, 1])
    want = np.array([poincare_return(w, x, z) for x, z in draws.tolist()])
    errs = np.maximum(
        circle_distance(got.x, want[:, 0]), circle_distance(got.z, want[:, 1])
    ).tolist()
    worst_xy = float(np.max(errs, initial=0.0))
    terr = abs(got.time - 1.0 / w.w_y)
    rows = [(i, err, terr) for i, err in enumerate(errs)]
    files = {"return_check.csv": (("i", "coord_err", "time_err"), rows)}
    return files, {"max_coord_err": worst_xy, "max_time_err": terr}


def cmd_conjugacy(args, f, phi):
    roof = specialflow.certify_roof(phi)
    u, mean = cohomology.solve_roof(f, phi, args.tol)
    devs = specialflow.trivial_conjugacy_check(
        roof, f, u, mean, args.t, points=args.points, seed=args.seed
    )
    files = {"conjugacy.csv": (("t", "measure"), list(zip(args.t, devs)))}
    return files, {"mean": mean, **_certificate(roof)}


# ------------------------------------------------------------------ parser


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads a token led by '-' and a digit, or by '-.'
    and a digit, as a value (-1e-3, -5,0,5); its subparsers inherit it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="mixlab",
        description="Experiments on special flows over linear skew-shifts.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    base = argparse.ArgumentParser(add_help=False)
    base.add_argument("--out", default=".", help="output directory")
    base.add_argument("--workers", type=_workers,
                      default=os.environ.get("MIXLAB_WORKERS", "1"),
                      help="parallel workers for Monte-Carlo sampling "
                           "(default: MIXLAB_WORKERS or 1)")
    roofed = argparse.ArgumentParser(add_help=False, parents=[base])
    roofed.add_argument("--roof", required=True, help="roof JSON file")
    roofed.add_argument("--alpha", type=_finite, default=None,
                        help="override the file's alpha")
    roofed.add_argument("--beta", type=_finite, default=None,
                        help="override the file's beta")

    def command(name, func, summary, parents=(roofed,)):
        sp = sub.add_parser(name, help=summary, parents=parents)
        sp.set_defaults(func=func)
        return sp

    sp = command("classify", cmd_classify, "mixing/trivial verdict for a roof")
    sp.add_argument("--tol", type=_positive, default=1e-9)

    sp = command("solve", cmd_solve, "emit the transfer function u")
    sp.add_argument("--tol", type=_positive, default=1e-9)

    sp = command("stretch", cmd_stretch, "sublevel-measure decay along n")
    sp.add_argument("--C", type=_positive, required=True)
    sp.add_argument("--n", type=_list(_count), required=True,
                    help="comma-separated Birkhoff lengths")
    sp.add_argument("--grid", type=_count, default=2048)

    sp = command("sublevel", cmd_sublevel, "small-value measure vs threshold")
    sp.add_argument("--n", type=_count, default=1)
    sp.add_argument("--deltas", type=_list(_positive),
                    default=[1e-1, 1e-2, 1e-3, 1e-4])
    sp.add_argument("--grid", type=_count, default=1024)

    sp = command("visits", cmd_visits, "orbit fraction with small phi_n")
    sp.add_argument("--C", type=_positive, required=True)
    sp.add_argument("--N", type=_list(_count), required=True)
    sp.add_argument("--x", type=_finite, default=0.1)
    sp.add_argument("--y", type=_finite, default=0.2)

    sp = command("correlate", cmd_correlate, "Monte-Carlo mixing curve")
    sp.add_argument("--cube", type=_list(_finite, 5), required=True,
                    help="x1,x2,y1,y2,h")
    sp.add_argument("--t", type=_list(_finite), required=True)
    sp.add_argument("--samples", type=_count, default=1_000_000)
    sp.add_argument("--seed", type=_seed, default=0)

    sp = command("fiber-profile", cmd_fiber_profile,
                 "fiber arc mass carried into a cube")
    sp.add_argument("--x", type=_finite, required=True)
    sp.add_argument("--arc", type=_list(_finite, 2), required=True,
                    help="y1,y2")
    sp.add_argument("--cube", type=_list(_finite, 5), required=True,
                    help="x1,x2,y1,y2,h")
    sp.add_argument("--t", type=_list(_finite), required=True)
    sp.add_argument("--resolution", type=_count, default=512)

    sp = command("hitting", cmd_hitting, "measure of fibers without large phi")
    sp.add_argument("--C", type=_positive, required=True)
    sp.add_argument("--t", type=_list(_finite), required=True)
    sp.add_argument("--grid", type=_count, default=256)
    sp.add_argument("--y-resolution", type=_count, default=64)

    sp = command("weyl", cmd_weyl, "sup |phi_N|/sqrt(N) along denominators")
    sp.add_argument("--levels", type=_count, default=20)
    sp.add_argument("--grid", type=_count, default=256)

    sp = command("l2", cmd_l2, "exact squared L2 norms of Birkhoff sums")
    sp.add_argument("--N", type=_list(_count), required=True)

    sp = command("return-check", cmd_return_check,
                 "section return map cross-check", parents=(base,))
    sp.add_argument("--wx", type=_finite, required=True)
    sp.add_argument("--wy", type=_finite, required=True)
    sp.add_argument("--wz", type=_finite, required=True)
    sp.add_argument("--count", type=_count, default=100)
    sp.add_argument("--seed", type=_seed, default=0)

    sp = command("conjugacy", cmd_conjugacy,
                 "shear conjugacy check for trivial roofs")
    sp.add_argument("--t", type=_list(_finite), required=True)
    sp.add_argument("--points", type=_count, default=100)
    sp.add_argument("--seed", type=_seed, default=0)
    sp.add_argument("--tol", type=_positive, default=1e-9)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        f, phi = _load(args) if "roof" in vars(args) else (None, None)
        files, extra, *lines = args.func(args, f, phi)
        files[f"{args.command}_summary.json"] = {
            "experiment": args.command,
            "config": {k: v for k, v in vars(args).items() if k != "func"},
            "version": __version__,
            "outputs": list(files),
            "wall_time_s": time.perf_counter() - started,
            **extra,
        }
        for name, doc in files.items():
            if not _all_finite(doc):
                raise MixlabError(f"{name} holds a non-finite number")
        os.makedirs(args.out, exist_ok=True)
        _write(args.out, files)
    except (ValueError, OSError) as exc:
        print(f"mixlab: invalid configuration: {exc}", file=sys.stderr)
        return 2
    except (MixlabError, OverflowError) as exc:
        print(f"mixlab: numeric failure: {exc.__class__.__name__}: {exc}",
              file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"mixlab: out of memory: {exc}", file=sys.stderr)
        return 3
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())

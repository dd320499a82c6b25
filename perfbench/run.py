"""mixlab benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Run from the root of a mixlab checkout.  The program is used from source
(``src/``); nothing is installed.  Each run

  * times the set-up of a fresh driver process several times (setup_s),
  * starts one single-threaded driver process with BLAS pinned to one
    thread and MIXLAB_WORKERS cleared; it runs the workload once to warm
    up, then again and again until --seconds is up, checking every output,
  * prints one line per figure, then the result as one JSON line.

With --trace 0 the result holds the end-to-end metrics; with --trace 1
the per-layer figures of a traced run (see README.md).  The exit code is
0 whenever a result is printed, whether or not every check passed; it is
nonzero, with no result, when the program cannot be run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 9
TIME_LIMIT_S = 170.0
OUT_DIR = ".bench_out"

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "orbit_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def pinned_env(root: str) -> dict:
    env = dict(os.environ)
    env.pop("MIXLAB_WORKERS", None)
    env.update(
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.path.join(root, "src"),
    )
    return env


def spread(samples) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    out = {"median": statistics.median(xs), "n": n}
    if n >= 11:
        p = math.floor(100 * (n - 10) / n)
        out[f"p{p}"] = xs[math.ceil(p * n / 100) - 1]
    return out


def machine(root: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(root)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {"git_rev": rev, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version}


class DriverFailed(RuntimeError):
    pass


def drive(root: str, work: str, args, deadline: float, *extra) -> dict:
    """Start one driver process, wait for it, and return its figures."""
    result = os.path.join(work, "result.json")
    if os.path.exists(result):
        os.remove(result)
    cmd = [sys.executable, os.path.join(HERE, "driver.py"), "--root", root,
           "--work", work, "--result", result, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=root, env=pinned_env(root),
                              stdout=sys.stderr, timeout=max(deadline - started, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise DriverFailed("driver did not finish in time") from exc
    if proc.returncode != 0:
        raise DriverFailed(f"driver exited with code {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["setup_s"] = doc["ready"] - started
    return doc


def metrics(args, main: dict, setups) -> dict:
    walls = [p["wall"] for p in main["passes"]]
    wall = statistics.median(walls)
    values = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "orbit_steps_per_s": main["steps"] / wall,
        "peak_rss_mb": main["peak_rss_mb"],
    }
    print(f"wall_s {spread(walls)}")
    print(f"setup_s {spread(setups)}")
    for name, exps in workloads.TIMINGS[args.workload].items():
        per_pass = [sum(p["exps"][e] for e in exps) for p in main["passes"]]
        print(f"{name} {spread(per_pass)}")
    print(f"orbit_steps {main['steps']} per pass")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def layer_unit(name: str) -> str:
    last = name.rsplit(".", 1)[1]
    if last.endswith("per_s"):
        return "1/s"
    if last.endswith("_s"):
        return "s"
    if last == "flowed_share" or name.startswith("cli.workers2_speedup."):
        return "ratio"
    return "count"


def layer_metrics(main: dict) -> dict:
    for role, calls, total, self_s in main["roles"][:25]:
        print(f"  span {role:42s} calls {calls:>9d} incl {total:9.4f}s self {self_s:9.4f}s")
    layer = main["per_layer"]
    summed = sum(v for k, v in layer.items()
                 if k.endswith(".self_s") and k.count(".") == 1) + layer["trace.driver_s"]
    print(f"traced wall {layer['trace.wall_s']:.4f}s = layer self times "
          f"{summed - layer['trace.driver_s']:.4f}s + benchmark driver "
          f"{layer['trace.driver_s']:.4f}s (residual {layer['trace.wall_s'] - summed:.2e}s)")
    return {k: {"value": v, "unit": layer_unit(k)} for k, v in layer.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    deadline = time.monotonic() + TIME_LIMIT_S
    if not os.path.isfile(os.path.join(root, "src", "mixlab", "cli.py")):
        print("perfbench: no mixlab sources under ./src; run from a checkout",
              file=sys.stderr)
        return 2
    base = os.path.join(root, OUT_DIR)
    os.makedirs(base, exist_ok=True)
    work = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        info = machine(root)
        print("machine " + json.dumps(info, sort_keys=True))
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(drive(root, work, args, deadline, "--setup-only")["setup_s"])
        main_run = drive(root, work, args, deadline)
        setups.append(main_run["setup_s"])
    except DriverFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed = main_run["attempted"], main_run["failed"]
    print(f"fail_rate {failed / attempted:.6g} ({failed} of {attempted} runs)")
    if args.trace:
        values = layer_metrics(main_run)
    else:
        values = metrics(args, main_run, setups)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": info, "raw": main_run, "metrics": values}
    with open(os.path.join(base, f"last-{args.workload}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

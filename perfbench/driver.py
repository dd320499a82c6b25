"""One benchmark process: set up, run a workload through ``mixlab.cli.main``
until the time is up, check every output, and write the raw figures as
JSON to ``--result``.  ``run.py`` starts this script with a pinned
environment and turns the raw figures into metrics; it is not meant to be
run by hand.

Modes:
  --setup-only   stop when the first experiment would begin (set-up probe)
  --trace 0      warm-up pass, then untraced passes until --seconds is up
  --trace 1      warm-up pass, then untraced and traced passes in turn,
                 then the --workers 1 / --workers 2 comparison
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import workloads


def parse_args(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    return ap.parse_args(argv)


class Runner:
    """Runs experiments through the CLI and keeps the tally of outcomes."""

    def __init__(self, cli, work: str):
        self.cli = cli
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def run(self, exp: workloads.Experiment, workers: int = 1) -> float:
        """Wall time of one CLI run; a nonzero exit or a failed check counts."""
        out = os.path.join(self.work, f"{exp.name}-w{workers}")
        argv = exp.argv + ["--out", out, "--workers", str(workers)]
        self.attempted += 1
        sink = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                rc = self.cli.main(argv)
        except Exception:
            rc = None
            problems = [f"{exp.name}: {traceback.format_exc()}"]
        dt = time.perf_counter() - t0
        if rc is not None:
            problems = [f"{exp.name}: exit code {rc}"] if rc != 0 else self._check(exp, out)
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            for p in problems:
                print(f"perfbench: FAILED {p}", file=sys.stderr)
        return dt

    @staticmethod
    def _check(exp, out: str) -> list:
        try:
            return exp.check(out)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return [f"{exp.name}: output unreadable: {exc!r}"]

    def one_pass(self, exps) -> dict:
        return {exp.name: self.run(exp) for exp in exps}


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, os.path.join(args.root, "src"))
    from mixlab import cli, skewshift

    os.makedirs(args.work, exist_ok=True)
    roofs = workloads.bundled_roofs(args.root)
    if args.workload == "exact":
        doc, _, _ = workloads.coboundary_roof(args.seed)
        roofs["generated"] = os.path.join(args.work, "generated_coboundary.json")
        with open(roofs["generated"], "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
    for path in roofs.values():
        skewshift.load_roof(path)
    exps = workloads.BUILDERS[args.workload](roofs, args.seed)
    ready = time.monotonic()
    result = {"ready": ready}
    if args.setup_only:
        return _write(args.result, result)

    runner = Runner(cli, args.work)
    runner.one_pass(exps)                                   # warm-up
    passes, traced_passes = [], []
    if args.trace:
        from tracer import Tracer, per_layer, role_table
        tr = Tracer()
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        times = runner.one_pass(exps)
        passes.append({"wall": time.perf_counter() - t0, "exps": times})
        if args.trace:
            tr.install()
            try:
                t0 = time.perf_counter()
                tr.root(lambda: runner.one_pass(exps))
                traced_passes.append(time.perf_counter() - t0)
            finally:
                tr.uninstall()
    result.update(passes=passes, steps=sum(e.steps for e in exps))
    if args.trace:
        layer = per_layer(tr)
        layer["trace.untraced_wall_s"] = statistics.median(p["wall"] for p in passes)
        layer["trace.overhead_s"] = (statistics.median(traced_passes)
                                     - layer["trace.untraced_wall_s"])
        layer.update(workers_speedup(runner, workloads.speedup_experiments(roofs)))
        result.update(per_layer=layer, roles=role_table(tr))
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    return _write(args.result, result)


def workers_speedup(runner: Runner, exps: dict, repeats: int = 3) -> dict:
    """Median time at --workers 1 over median time at --workers 2.

    Each experiment runs once at each count untimed, then ``repeats``
    times at each, alternating which count goes first.
    """
    out = {}
    for name, exp in exps.items():
        runner.run(exp, 1)
        runner.run(exp, 2)
        times = {1: [], 2: []}
        for i in range(repeats):
            for w in ((1, 2) if i % 2 == 0 else (2, 1)):
                times[w].append(runner.run(exp, w))
        out[f"cli.workers2_speedup.{name}"] = (
            statistics.median(times[1]) / statistics.median(times[2]))
    return out


def _write(path: str, doc: dict) -> int:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

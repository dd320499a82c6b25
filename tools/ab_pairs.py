"""Compare the benchmark figures of two mixlab source trees, pair by pair.

    python3 tools/ab_pairs.py PARENT_TREE CHANGE_TREE [--pairs 10]

For each workload of the ``BENCHMARK.json`` beside this tool, each pair
runs ``perfbench/run.py --workload W --seed 7 --seconds T --trace 0``, T
its ``run_seconds``, once in each tree, from that tree's root, one run at
a time; the parent goes first in even pairs and the change in odd ones,
so a drift of the machine falls on both sides alike.  Each run's minor page
faults are read from ``resource.getrusage(RUSAGE_CHILDREN)`` around it,
which counts the run and the driver processes it waited for, its set-up
probes and every pass, and are reported per attempted operation (the
run's ``attempted`` count), so that a tree which makes more passes in the
same seconds does not read as faulting more.

Per workload it prints one table: for every end-to-end metric of that
file, and for the minor faults, the median of each tree's runs, the
interquartile range of the parent's runs (``statistics.quantiles``,
inclusive method) and the number of pairs in which the change did better;
then the failed operations of each tree and its runs that printed no
result.  A pair with such a run gives no figures, and a workload needs
two pairs with figures.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAULTS = "minor_faults"
SEED = 7


def benchmark() -> dict:
    """The ``BENCHMARK.json`` beside this tool."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def directions(bench: dict) -> dict:
    """{metric: "lower" or "higher"} for every end-to-end metric of
    ``bench``, and the minor faults per attempted operation."""
    return {**{m["name"]: m["better"] for m in bench["end_to_end"]},
            FAULTS: "lower"}


def run_once(tree: Path, workload: str, seconds: float):
    """(figures, attempted, failed) of one benchmark run in ``tree``, or
    None when it prints no result."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        return None
    doc = json.loads(lines[-1])
    figures = {k: v["value"] for k, v in doc["metrics"].items()}
    figures[FAULTS] = faults / doc["attempted"]
    return figures, doc["attempted"], doc["failed"]


def summarize(pairs: list, better: dict) -> list:
    """Rows (metric, parent median, change median, parent IQR, pairs the
    change won) over ``pairs`` of (parent figures, change figures); a tie
    is no win."""
    rows = []
    for name, way in better.items():
        a = [p[name] for p, _ in pairs]
        b = [c[name] for _, c in pairs]
        q1, _, q3 = statistics.quantiles(a, n=4, method="inclusive")
        wins = sum(y < x if way == "lower" else y > x for x, y in zip(a, b))
        rows.append((name, statistics.median(a), statistics.median(b),
                     q3 - q1, wins))
    return rows


def table(workload: str, rows: list, pairs: int, failed: dict) -> str:
    lines = [f"{workload}: {pairs} pairs",
             "| metric | parent median | change median | parent IQR "
             "| change better |",
             "|---|---|---|---|---|"]
    lines += [f"| {name} | {a:.4g} | {b:.4g} | {iqr:.3g} | {wins}/{pairs} |"
              for name, a, b, iqr, wins in rows]
    lines.append("failed operations: " + ", ".join(
        f"{side} {n[1]} of {n[0]} ({n[2]} runs without a result)"
        for side, n in failed.items()))
    return "\n".join(lines)


def compare(parent: Path, change: Path, workload: str, pairs: int,
            bench: dict) -> str:
    trees = {"parent": parent, "change": change}
    done = []
    failed = {"parent": [0, 0, 0], "change": [0, 0, 0]}
    for i in range(pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        got = {side: run_once(trees[side], workload, bench["run_seconds"])
               for side in order}
        for side, result in got.items():
            counts = (0, 0, 1) if result is None else (result[1], result[2], 0)
            failed[side] = [a + b for a, b in zip(failed[side], counts)]
        if all(got.values()):
            done.append((got["parent"][0], got["change"][0]))
        print(f"{workload} pair {i + 1}/{pairs} done", file=sys.stderr)
    if len(done) < 2:                  # quartiles need two pairs
        return f"{workload}: {len(done)} pairs gave a result in both trees"
    rows = summarize(done, directions(bench))
    return table(workload, rows, len(done), failed)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path, help="source tree of the parent")
    ap.add_argument("change", type=Path, help="source tree of the change")
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    bench = benchmark()
    for workload in bench["workloads"]:
        print(compare(args.parent.resolve(), args.change.resolve(),
                      workload["name"], args.pairs, bench), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

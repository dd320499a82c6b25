"""Compare what two mixlab source trees write, run by run.

    python3 tools/same_outputs.py PARENT_TREE CHANGE_TREE [--long]

Each argv of one fixed list runs once in each tree, as
``python -m mixlab.cli`` with ``PYTHONPATH`` set to that tree's ``src``,
BLAS pinned to one thread and ``MIXLAB_WORKERS`` cleared.  For every argv
it compares the exit code, stdout and stderr (with the tree and work paths
replaced by ``TREE`` and ``WORK``), whether the output directory exists,
every data file byte for byte, and every ``*_summary.json`` without
``wall_time_s``, ``config.out`` and ``config.roof``.  It prints one line
per difference, then ``N argvs, M files, K differ``, and exits 1 when K
is not 0.

The list holds every argv of ``perfbench/workloads.py`` at seeds 3 and 7
with ``--workers`` 1 and 2; ``classify``, ``solve`` and ``l2`` on the
bundled roofs and on ``workloads.coboundary_roof(seed)`` for seeds 0-7;
``return-check`` cases, negative times in both argv forms, a
``fiber-profile`` of 20 000 lanes (a climb in chunks of 2^13 lanes), a
``conjugacy`` check of 2000 points at times from -40 to 300 (constant-side
points reduced up to 100 sheets from where they start), a run
with more than 64 fraction bits (``--beta 1e-5``), failing runs, empty
lists and unwritable ``--out`` paths.  ``--long`` adds slower runs.  In an
argv, ``@NAME`` is the tree's bundled roof ``NAME``, ``@genS`` the
coboundary roof of seed S, ``@wideM`` and ``@wideK`` a roof with a mode
m = 2^63 or k = 2^63, ``@wideSpan`` a roof whose solver blocks span
2^63 - 1 indices, ``@huge`` a roof whose floats overflow, and ``@file`` an
existing regular file; ``--out`` is added unless the argv has one.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import importlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
JOBS = 2                    # runs at a time; the machine may have two cores


def _roof(const, *modes):
    """const + sum of 2c cos(2 pi (m x + k y)) over the (m, k, c) of
    ``modes``, a real roof file over the golden rotation."""
    coeffs = [{"m": 0, "k": 0, "re": const, "im": 0.0}]
    for m, k, c in modes:
        coeffs += [{"m": a, "k": b, "re": c, "im": 0.0}
                   for a, b in ((m, k), (-m, -k))]
    return {"alpha": 0.6180339887498949, "beta": 0.0,
            "degree_y": max(abs(k) for _, k, _ in modes), "real": True,
            "coeffs": coeffs}


# roofs past the int64 and float ranges, and one whose solver blocks span
# 2^63 - 1 indices, written into each work directory
ROOFS = {
    "wideM": _roof(2.0, (2 ** 63, 1, 0.1)),
    "wideK": _roof(2.0, (1, 2 ** 63, 0.1)),
    "huge": _roof(1e308, (1, 1, 1e307)),
    "wideSpan": _roof(2.0, (2 ** 63 - 1, 1, 0.1), (0, 1, 0.25)),
}


def _workloads():
    """The benchmark's ``perfbench/workloads.py``, imported as it is."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        return importlib.import_module("workloads")
    finally:
        sys.path.remove(str(ROOT / "perfbench"))


def workload_argvs(workloads) -> list:
    """Every benchmark argv at seeds 3 and 7 and --workers 1 and 2, with
    roof paths as ``@`` tokens."""
    roofs = workloads.bundled_roofs(str(ROOT))
    token = {path: f"@{name}" for name, path in roofs.items()}
    argvs = []
    for seed in (3, 7):
        roofs["generated"] = f"@gen{seed}"
        for workers in ("1", "2"):
            for name in workloads.WORKLOADS:
                for exp in workloads.BUILDERS[name](roofs, seed):
                    argvs.append([token.get(a, a) for a in exp.argv]
                                 + ["--workers", workers])
    return argvs


def algebra_argvs() -> list:
    roofs = ["@example1", "@example2", "@example3", "@constant",
             "@coboundary"] + [f"@gen{seed}" for seed in range(8)]
    return [[command, "--roof", roof, *extra]
            for roof in roofs
            for command, extra in (("classify", []), ("solve", []),
                                   ("l2", ["--N", "1,100,10000"]))]


EXTRA_ARGVS = [
    ["return-check", "--wx", "-0.7", "--wy", "0.4", "--wz", "2.5",
     "--count", "50", "--seed", "11"],
    ["return-check", "--wx", "1e300", "--wy", "1e-300", "--wz", "0",
     "--count", "1"],
    ["return-check", "--wx", "1.7e308", "--wy", "1", "--wz", "1.7e308",
     "--count", "3"],
    ["return-check", "--wx", "0.3", "--wy", "1e-308", "--wz", "0"],
    # negative times, as a separate and as a joined value
    ["correlate", "--roof", "@example1", "--cube", "0,0.5,0,0.5,0.5",
     "--t", "-5,0,5", "--samples", "10000"],
    ["correlate", "--roof", "@example1", "--cube", "0,0.5,0,0.5,0.5",
     "--t=-5,0,5", "--samples", "10000"],
    ["fiber-profile", "--roof", "@example1", "--x", "0.3", "--arc", "0.15,0.85",
     "--cube", "0.2,0.6,0.1,0.7,0.5", "--t", "-5,5"],
    ["fiber-profile", "--roof", "@example1", "--x", "0.3", "--arc", "0.15,0.85",
     "--cube", "0.2,0.6,0.1,0.7,0.5", "--t=-5,5"],
    ["conjugacy", "--roof", "@coboundary", "--t", "-2,2"],
    ["conjugacy", "--roof", "@coboundary", "--t=-2,2"],
    # constant-side points reduced up to 100 sheets from where they start
    ["conjugacy", "--roof", "@coboundary", "--t=-40,0.7,300", "--points",
     "2000", "--seed", "3"],
    # 20 000 lanes: each row of the climb runs in chunks of 2^13 lanes
    ["fiber-profile", "--roof", "@example1", "--x", "0.3", "--arc", "0.15,0.85",
     "--cube", "0.2,0.6,0.1,0.7,0.5", "--t=-50,5,200", "--resolution", "20000"],
    # more than 64 fraction bits
    ["visits", "--roof", "@example1", "--beta", "1e-5", "--C", "2",
     "--N", "100,10000"],
    ["hitting", "--roof", "@example1", "--C", "2", "--t", "100",
     "--grid", "256", "--y-resolution", "4096"],
    # failing runs: a bad roof file, a range error, numeric failures, and
    # an option that argparse rejects
    ["classify", "--roof", "@file"],
    ["correlate", "--roof", "@example1", "--cube", "0,0.5,0,0.5,5",
     "--t", "1", "--samples", "1000"],
    ["weyl", "--roof", "@example1", "--alpha", "0.5"],
    ["weyl", "--roof", "@example1", "--alpha", "1e-300", "--levels", "2"],
    ["weyl", "--roof", "@example1", "--alpha", "1e-310", "--levels", "1"],
    ["sublevel", "--roof", "@example3", "--n", "9" * 400],
    ["classify", "--roof", "@example1", "--alpha", "0.5"],
    ["solve", "--roof", "@coboundary", "--alpha", "0.5"],
    ["sublevel", "--roof", "@constant"],
    ["stretch", "--roof", "@example1", "--C", "2", "--n", "0"],
    # empty lists
    ["stretch", "--roof", "@example1", "--C", "2", "--n", ","],
    ["sublevel", "--roof", "@example1", "--deltas", ","],
    ["visits", "--roof", "@example1", "--C", "2", "--N", ","],
    ["correlate", "--roof", "@example1", "--cube", "0,0.5,0,0.5,0.5",
     "--t", ",", "--samples", "1000"],
    ["fiber-profile", "--roof", "@example1", "--x", "0.3", "--arc", "0.15,0.85",
     "--cube", "0.2,0.6,0.1,0.7,0.5", "--t", ","],
    ["hitting", "--roof", "@example1", "--C", "2", "--t", ","],
    ["conjugacy", "--roof", "@coboundary", "--t", ","],
    ["l2", "--roof", "@example2", "--N", ","],
    # an --out that names a file, and one below a file
    ["classify", "--roof", "@example1", "--out", "@file"],
    ["classify", "--roof", "@example1", "--out", "@file/out"],
    # roof integers past int64, and roof floats that overflow
    *[[command, "--roof", f"@{name}", *extra]
      for name in ROOFS
      for command, extra in (("classify", []),
                             ("correlate", ["--cube", "0,0.5,0,0.5,0.5",
                                            "--t", "1", "--samples", "1000"]))],
    # a solver block too wide to walk, and a result that overflows to inf
    ["solve", "--roof", "@wideSpan"],
    ["l2", "--roof", "@huge", "--N", "1,10"],
]

LONG_ARGVS = [
    ["stretch", "--roof", "@example1", "--C", "2", "--n", "100,100000",
     "--grid", "4096"],
    ["correlate", "--roof", "@example2", "--cube", "0.1,0.6,0.2,0.9,0.9",
     "--t", "0,50,-50", "--samples", "4000000", "--workers", "2"],
    ["fiber-profile", "--roof", "@example3", "--x", "0.7", "--arc", "0.9,0.2",
     "--cube", "0,1,0,1,0.9", "--t", "2000", "--resolution", "4096"],
]


def argv_list(long: bool = False) -> list:
    workloads = _workloads()
    argvs = workload_argvs(workloads) + algebra_argvs() + EXTRA_ARGVS
    return argvs + LONG_ARGVS * long


class Tree:
    """One source tree and the work directory its runs write into."""

    def __init__(self, root, work: Path, seeds):
        self.root = Path(root).resolve()
        self.work = work
        work.mkdir()
        (work / "file").write_text("")
        workloads = _workloads()
        docs = {f"gen{seed}": workloads.coboundary_roof(seed)[0]
                for seed in seeds}
        for name, doc in {**docs, **ROOFS}.items():
            (work / f"{name}.json").write_text(
                json.dumps(doc, indent=2, sort_keys=True))
        self.env = {k: v for k, v in os.environ.items() if k != "MIXLAB_WORKERS"}
        self.env.update(PYTHONPATH=str(self.root / "src"),
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                        MKL_NUM_THREADS="1")

    def path(self, token: str) -> str:
        name, _, rest = token[1:].partition("/")
        if name == "file":
            base = self.work / "file"
        elif name.startswith("gen") or name in ROOFS:
            base = self.work / f"{name}.json"
        else:
            base = self.root / "src" / "mixlab" / "data" / f"{name}.json"
        return str(base / rest) if rest else str(base)

    def run(self, i: int, argv: list) -> dict:
        out = self.work / f"run{i:03d}"
        args = [self.path(a) if a.startswith("@") else a for a in argv]
        if "--out" not in argv:
            args += ["--out", str(out)]
        proc = subprocess.run([sys.executable, "-m", "mixlab.cli", *args],
                              capture_output=True, text=True, env=self.env,
                              cwd=self.work)
        return {"code": proc.returncode, "stdout": self._plain(proc.stdout),
                "stderr": self._plain(proc.stderr), "out": out}

    def _plain(self, text: str) -> str:
        return text.replace(str(self.work), "WORK").replace(str(self.root), "TREE")


def _summary(path: Path) -> dict:
    doc = json.loads(path.read_text())
    doc.pop("wall_time_s", None)
    for key in ("out", "roof"):
        doc.get("config", {}).pop(key, None)
    return doc


def _same(a: Path, b: Path) -> bool:
    if a.name.endswith("_summary.json"):
        return _summary(a) == _summary(b)
    return a.read_bytes() == b.read_bytes()


def differences(a: dict, b: dict) -> tuple:
    """(files compared, difference lines) of one argv's two runs."""
    lines = []
    if a["code"] != b["code"]:
        lines.append(f"exit {a['code']} -> {b['code']}")
    for stream in ("stdout", "stderr"):
        if a[stream] != b[stream]:
            last = [(r[stream].strip().splitlines() or [""])[-1] for r in (a, b)]
            lines.append(f"{stream} differs, last lines {last[0]!r} -> {last[1]!r}")
    dirs = [r["out"].is_dir() for r in (a, b)]
    if dirs[0] != dirs[1]:
        lines.append("output directory only in " + ("parent", "change")[dirs[1]])
    names = sorted({p.name for r, d in zip((a, b), dirs) if d
                    for p in r["out"].iterdir()})
    for name in names:
        pa, pb = a["out"] / name, b["out"] / name
        if not (pa.exists() and pb.exists()):
            lines.append(f"{name}: only in " + ("change", "parent")[pa.exists()])
        elif not _same(pa, pb):
            lines.append(f"{name}: differs")
    return len(names), lines


def compare(parent, change, argvs: list) -> list:
    """One line per difference, then the 'N argvs, M files, K differ' line."""
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        seeds = {int(a[4:]) for argv in argvs for a in argv
                 if a.startswith("@gen")}
        trees = [Tree(root, Path(tmp, side), seeds)
                 for root, side in ((parent, "parent"), (change, "change"))]
        jobs = [(tree, i, argv) for i, argv in enumerate(argvs) for tree in trees]
        with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
            runs = list(pool.map(lambda job: job[0].run(job[1], job[2]), jobs))
        files, lines = 0, []
        for i, argv in enumerate(argvs):
            n, diffs = differences(runs[2 * i], runs[2 * i + 1])
            files += n
            lines += [f"{i:3d} {' '.join(argv)}: {d}" for d in diffs]
    return lines + [f"{len(argvs)} argvs, {files} files, {len(lines)} differ"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="source tree of the parent commit")
    ap.add_argument("change", help="source tree of the change")
    ap.add_argument("--long", action="store_true", help="add the slower runs")
    args = ap.parse_args(argv)
    lines = compare(args.parent, args.change, argv_list(args.long))
    print("\n".join(lines))
    return 0 if lines[-1].endswith(" 0 differ") else 1


if __name__ == "__main__":
    sys.exit(main())

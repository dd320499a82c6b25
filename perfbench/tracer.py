"""Span tracing of mixlab's layers from outside the program.

``Tracer.install`` replaces every public function of the layer modules,
every public method of their public classes, and a few private functions
that carry a named role, by a wrapper that records one span per call.
``uninstall`` puts the originals back.  Spans are not kept one by one:
each wrapper adds its call to running totals (calls, inclusive time, self
time, work counts), which is all the report needs and keeps the cost per
call near a microsecond.

Self time is a span's duration minus the time its child spans cover.  The
benchmark runs the library on one thread, so children never overlap and
the covered time is the sum of the children's durations.  The driver
opens a root span around each workload pass; the root's self time is the
benchmark's own driver time, and the self times of all spans plus the
driver time add up to the pass's wall time.

Spans are named by role, not by function, so that the report's names
survive a rename inside the program: ``ROLES`` maps the current function
to its role.  A function without a role reports under its module's layer
only.  The layer of a span is the first part of its role name.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

import numpy as np

LAYERS = ("cli", "skewshift", "phases", "trigpoly", "specialflow",
          "cohomology", "heisenberg", "ddouble")

# (module, qualified name) -> role
ROLES: Dict[Tuple[str, str], str] = {
    ("cli", "main"): "cli.main",
    ("cli", "_transfer_function"): "cohomology.solve",
    ("skewshift", "fiber_coefficients_on_grid"): "skewshift.grid_sweep",
    ("specialflow", "_coeffs_at_stops"): "skewshift.stop_sweep",
    ("skewshift", "visit_fraction"): "skewshift.visit_fraction",
    ("skewshift", "sublevel_measure"): "skewshift.sublevel_measure",
    ("skewshift", "load_roof"): "skewshift.load_roof",
    ("phases", "QuadraticPhase.advance"): "phases.advance",
    ("phases", "frac_exact"): "phases.frac_exact",
    ("trigpoly", "FiberedTrigPoly.evaluate_complex"): "trigpoly.roof_eval",
    ("specialflow", "certify_roof"): "specialflow.certify_roof",
    ("specialflow", "_sample_block"): "specialflow.sample",
    ("specialflow", "_flow_lanes"): "specialflow.flow_lanes",
    ("specialflow", "_hit_count_lanes"): "specialflow.hit_lanes",
    ("specialflow", "correlate_cubes"): "specialflow.correlate",
    ("specialflow", "flow_at"): "specialflow.flow_at",
    ("specialflow", "trivial_conjugacy_check"): "specialflow.conjugacy",
    ("cohomology", "classify_roof"): "cohomology.classify",
    ("cohomology", "solve_component"): "cohomology.solve",
    ("cohomology", "ergodic_sum_l2"): "cohomology.l2",
    ("cohomology", "uniform_bound_scan"): "cohomology.uniform_scan",
    ("heisenberg", "poincare_return_numeric"): "heisenberg.return_numeric",
}


def _arg(args, kwargs, i: int, name: str, default=None):
    return args[i] if len(args) > i else kwargs.get(name, default)


def _grid_sweep(tr, args, kwargs):
    xs = _arg(args, kwargs, 4, "xs")
    lanes = len(xs) if xs is not None else _arg(args, kwargs, 3, "grid")
    tr.count("skewshift.grid_sweep.lane_steps",
             lanes * max(_arg(args, kwargs, 2, "checkpoints")))


def _stop_sweep(tr, args, kwargs):
    cols, stops = _arg(args, kwargs, 2, "cols"), _arg(args, kwargs, 3, "stops")
    if len(stops):
        tr.count("skewshift.stop_sweep.lane_steps", len(cols) * int(max(stops)))


def _visit_fraction(tr, args, kwargs):
    tr.count("skewshift.visit_fraction.steps", _arg(args, kwargs, 4, "N"))


def _roof_eval(tr, args, kwargs):
    x, y = _arg(args, kwargs, 1, "x"), _arg(args, kwargs, 2, "y")
    tr.count("trigpoly.roof_eval.points", max(np.size(x), np.size(y)))


def _sample(tr, args, kwargs):
    n = _arg(args, kwargs, 3, "count")
    tr.count("specialflow.sample.samples", n)
    if tr.inside("specialflow.correlate"):
        tr.count("specialflow.correlate.drawn", n)


def _flow_lanes(tr, args, kwargs):
    n = len(_arg(args, kwargs, 2, "xs"))
    tr.count("specialflow.flow_lanes.points", n)
    if tr.inside("specialflow.correlate"):
        tr.count("specialflow.correlate.flowed", n)


def _hit_lanes(tr, args, kwargs):
    tr.count("specialflow.hit_lanes.points", len(_arg(args, kwargs, 2, "xs")))


def _l2(tr, args, kwargs):
    tr.count("cohomology.l2.window_steps", _arg(args, kwargs, 2, "N"))


# role -> work-count hook, called with the call's arguments before the call
HOOKS: Dict[str, Callable] = {
    "skewshift.grid_sweep": _grid_sweep,
    "skewshift.stop_sweep": _stop_sweep,
    "skewshift.visit_fraction": _visit_fraction,
    "trigpoly.roof_eval": _roof_eval,
    "specialflow.sample": _sample,
    "specialflow.flow_lanes": _flow_lanes,
    "specialflow.hit_lanes": _hit_lanes,
    "cohomology.l2": _l2,
}


class Tracer:
    """Running span totals per role, filled by wrappers around the layers."""

    def __init__(self):
        # role -> [calls, inclusive seconds, self seconds]
        self.stats: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: Dict[str, int] = defaultdict(int)
        self.driver_s = 0.0
        self.wall_s = 0.0
        self.passes = 0
        self._stack: List[list] = []        # open spans: [child seconds, role]
        self._owner = threading.get_ident()
        self._patches: List[Tuple[object, str, object]] = []

    # ---------------------------------------------------------- recording

    def count(self, name: str, n) -> None:
        self.counts[name] += int(n)

    def inside(self, role: str) -> bool:
        return any(frame[1] == role for frame in self._stack)

    def root(self, body: Callable[[], None]) -> None:
        """Run one workload pass under a root span (the driver's own time)."""
        frame = [0.0, "driver"]
        self._stack.append(frame)
        t0 = time.perf_counter()
        try:
            body()
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            self.wall_s += dt
            self.driver_s += dt - frame[0]
            self.passes += 1

    def _wrap(self, fn: Callable, role: str) -> Callable:
        stat = self.stats[role]
        hook = HOOKS.get(role)
        stack, clock, owner = self._stack, time.perf_counter, self._owner
        get_ident = threading.get_ident

        def span(*args, **kwargs):
            if not stack or get_ident() != owner:
                return fn(*args, **kwargs)
            if hook is not None:
                hook(self, args, kwargs)
            frame = [0.0, role]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[0]
                stack[-1][0] += dt

        return span

    # ------------------------------------------------------ install / undo

    def install(self) -> None:
        """Wrap the layers; every module binding of a function is replaced."""
        modules = {name: importlib.import_module(f"mixlab.{name}") for name in LAYERS}
        wrapped: Dict[int, Callable] = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    role = ROLES.get((layer, name))
                    if role is None and name.startswith("_"):
                        continue
                    wrapped[id(obj)] = self._wrap(obj, role or f"{layer}.{name}")
                elif (inspect.isclass(obj) and obj.__module__ == mod.__name__
                      and not name.startswith("_")):
                    self._wrap_methods(layer, obj)
        for mod in [importlib.import_module("mixlab"), *modules.values()]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._patch(mod, name, wrapped[id(obj)])
        for (layer, qualname), role in ROLES.items():
            owner = modules[layer]
            for part in qualname.split("."):
                owner = getattr(owner, part, None)
            if owner is None:
                print(f"perfbench: role {role}: mixlab.{layer}.{qualname} not found; "
                      "update tracer.ROLES", file=sys.stderr)

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_"):
                continue
            role = ROLES.get((layer, f"{cls.__name__}.{name}"),
                             f"{layer}.{cls.__name__}.{name}")
            if inspect.isfunction(attr):
                self._patch(cls, name, self._wrap(attr, role))
            elif isinstance(attr, staticmethod):
                self._patch(cls, name, staticmethod(self._wrap(attr.__func__, role)))

    def _patch(self, owner, name: str, new) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        while self._patches:
            owner, name, old = self._patches.pop()
            setattr(owner, name, old)

    # ------------------------------------------------------------- report

    def layer_self_s(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for role, (_, _, self_s) in self.stats.items():
            out[role.split(".", 1)[0]] += self_s
        return out

    def role(self, role: str) -> Tuple[int, float, float]:
        calls, total, self_s = self.stats.get(role, (0, 0.0, 0.0))
        return int(calls), total, self_s


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def per_layer(tr: Tracer) -> Dict[str, float]:
    """Per-layer figures, averaged per traced workload pass."""
    k = max(tr.passes, 1)
    c = tr.counts
    out: Dict[str, float] = {}
    for layer, s in tr.layer_self_s().items():
        out[f"{layer}.self_s"] = s / k

    def role(name: str, *fields: str) -> None:
        calls, total, self_s = tr.role(name)
        for f in fields:
            if f == "self_s":
                out[f"{name}.self_s"] = self_s / k
            elif f == "calls":
                out[f"{name}.calls"] = calls / k
            else:
                out[f"{name}.{f}"] = c.get(f"{name}.{f}", 0) / k

    role("skewshift.grid_sweep", "self_s", "calls", "lane_steps")
    out["skewshift.grid_sweep.lane_steps_per_s"] = _rate(
        c.get("skewshift.grid_sweep.lane_steps", 0), tr.role("skewshift.grid_sweep")[1])
    role("skewshift.stop_sweep", "self_s", "lane_steps")
    role("skewshift.visit_fraction", "self_s", "steps")
    role("skewshift.sublevel_measure", "self_s")
    role("skewshift.load_roof", "self_s")
    role("phases.advance", "calls", "self_s")
    role("phases.frac_exact", "calls", "self_s")
    role("trigpoly.roof_eval", "calls", "points", "self_s")
    out["trigpoly.roof_eval.points_per_s"] = _rate(
        c.get("trigpoly.roof_eval.points", 0), tr.role("trigpoly.roof_eval")[1])
    role("specialflow.certify_roof", "self_s")
    role("specialflow.sample", "self_s", "samples")
    role("specialflow.flow_lanes", "self_s", "points")
    role("specialflow.hit_lanes", "self_s", "points")
    out["specialflow.correlate.flowed_share"] = _rate(
        c.get("specialflow.correlate.flowed", 0), c.get("specialflow.correlate.drawn", 0))
    role("specialflow.flow_at", "calls", "self_s")
    role("specialflow.conjugacy", "self_s")
    role("cohomology.classify", "self_s")
    role("cohomology.solve", "self_s")
    role("cohomology.l2", "self_s", "window_steps")
    role("cohomology.uniform_scan", "self_s")
    role("heisenberg.return_numeric", "calls", "self_s")
    out["ddouble.calls"] = sum(
        st[0] for r, st in tr.stats.items() if r.startswith("ddouble.")) / k
    out["trace.wall_s"] = tr.wall_s / k
    out["trace.driver_s"] = tr.driver_s / k
    return out


def role_table(tr: Tracer) -> List[Tuple[str, int, float, float]]:
    """(role, calls, inclusive s, self s) per pass, largest self time first."""
    k = max(tr.passes, 1)
    rows = [(r, int(st[0] / k), st[1] / k, st[2] / k) for r, st in tr.stats.items()
            if st[0]]
    rows.sort(key=lambda row: -row[3])
    return rows

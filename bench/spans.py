"""Span tracer for the traced benchmark run, and the per-layer metrics.

Nothing in the package is changed: the tracer wraps, from outside, the
module-level functions that `simulate` and the CLI reach through module
globals, the model callables (through `dataclasses.replace` on the frozen
`MechanicalModel`) and the `DiscreteLagrangian` partials (as instance
attributes).  Each wrapped call records a span: name, start, end, parent and
operation id, kept in flat arrays and written once at the end.  A span's
self time is its duration minus the durations of its child spans, so the
self times of all spans of an operation add up to the operation's wall time.

A hook that no longer exists, or that never fires where it must, stops the
run with an error naming it: a renamed function must not read as zero.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import types
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List

import numpy as np


class HookMissing(RuntimeError):
    """A function or attribute the tracer wraps is gone or never called."""


# (module, attribute, span name) of plain wrapped functions.  Functions
# imported by name into another module are wrapped on each importer.
FUNCTION_HOOKS = (
    ("nhvi.integrator", "simulate", "integrator.simulate"),
    ("nhvi.integrator", "_step_plus_impl", "integrator.step"),
    ("nhvi.integrator", "_resolve_impact_impl", "integrator.impact"),
    ("nhvi.integrator", "boundary_frame", "geometry.boundary_frame"),
    ("nhvi.numerics", "fd_jacobian", "numerics.fd_jacobian"),
    ("nhvi.numerics", "_solve_linear", "numerics.linear_solve"),
    ("nhvi.config", "parse_config", "config.parse_config"),
    ("nhvi.cli", "main", "cli.main"),
    ("nhvi.cli", "simulate", "integrator.simulate"),
    ("nhvi.cli", "parse_config", "config.parse_config"),
    ("nhvi.cli", "write_impacts_csv", "output.impacts_csv"),
    ("nhvi.cli", "write_summary_json", "output.summary_json"),
)
MODEL_CALLABLES = ("lagrangian", "dL_dq", "dL_dv", "d2L", "omega", "boundary_gap")
PARTIALS = ("d1", "d2", "d3", "d1_w", "d2_w", "d3_w", "d1_dv")

# Spans every workload must record at least once.
REQUIRED_SPANS = (
    "integrator.simulate", "integrator.step", "integrator.impact", "integrator.attempt",
    "integrator.residual", "integrator.jacobian", "numerics.newton",
    "numerics.fd_jacobian", "numerics.linear_solve", "numerics.dense_solve",
    "geometry.boundary_frame", "diagnostics.build_report", "diagnostics.energy_series",
    "config.parse_config", "config.build_model",
    *(f"models.{c}" for c in MODEL_CALLABLES),
    *(f"discretization.{p}" for p in PARTIALS),
)
# ...and the CLI workload also these.
CLI_SPANS = (
    "cli.main", "output.trajectory_csv", "output.impacts_csv",
    "output.summary_json", "output.plots",
)
LAYERS = (
    "bench", "cli", "config", "integrator", "numerics", "discretization",
    "models", "geometry", "diagnostics", "output",
)

# Per-layer metrics that must repeat exactly for the same code and seed.
COUNT_METRICS = (
    "integrator.step.calls",
    "integrator.impact.calls",
    "integrator.impact.retries",
    "integrator.impact.phase_b_second_basin",
    "numerics.newton.solves",
    "numerics.newton.iters_per_step",
    "numerics.newton.residual_evals_per_solve",
    "numerics.newton.backtracks",
    "numerics.linear_solve.calls",
    "numerics.linear_solve.tikhonov_fallbacks",
    "numerics.fd_jacobian.calls",
    "numerics.fd_jacobian.residual_evals",
    "discretization.partials.calls_per_step",
    *(f"models.{c}.calls_per_step" for c in MODEL_CALLABLES),
    "geometry.boundary_frame.calls",
    "output.trajectory_csv.bytes_per_row",
    "output.plots.bytes",
)


class Tracer:
    """Spans of one traced pass, in flat arrays indexed by span id."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ix = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.op_id = -1
        # span id -> (has analytic Jacobian, iterations) of a returned solve
        self.newton: Dict[int, tuple] = {}
        # span ids of impact attempts that returned normally
        self.attempt_ok = set()
        # sizes the output and diagnostics wrappers measure
        self.nodes = {"diagnostics.build_report": 0, "diagnostics.energy_series": 0}
        self.csv_rows = 0
        self.csv_bytes = 0
        self.plot_points = 0
        self.plot_bytes = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        i = len(self.start)
        self.name_ix.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        begin, finish = self.begin, self.finish

        def traced(*args, **kwargs):
            i = begin(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                finish(i)

        return traced

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation."""
        self.op_id = op_id
        i = self.begin(self.name_id("bench.op"))
        try:
            yield
        finally:
            self.finish(i)

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name_ix, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _lookup(module: str, attr: str):
    mod = importlib.import_module(module)
    if not hasattr(mod, attr):
        raise HookMissing(f"traced hook {module}.{attr} does not exist")
    return mod, getattr(mod, attr)


def _wrap_model(tracer: Tracer, model):
    updates = {}
    for name in MODEL_CALLABLES:
        if not hasattr(model, name) or getattr(model, name) is None:
            raise HookMissing(f"traced hook MechanicalModel.{name} does not exist")
        updates[name] = tracer.wrap(f"models.{name}", getattr(model, name))
    return dataclasses.replace(model, **updates)


def _wrap_partials(tracer: Tracer, Ld):
    for name in PARTIALS:
        if getattr(Ld, name, None) is None:
            raise HookMissing(f"traced hook DiscreteLagrangian.{name} does not exist")
        setattr(Ld, name, tracer.wrap(f"discretization.{name}", getattr(Ld, name)))
    return Ld


def _span_then(tracer: Tracer, name: str, fn, after):
    """Wrap fn in a span; `after(result, *args)` runs outside the span, so
    wrapping models or measuring files never counts as the callee's time."""
    nid = tracer.name_id(name)

    def traced(*args, **kwargs):
        i = tracer.begin(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(i)
        return after(result, *args)

    return traced


def _traced_newton(tracer: Tracer, newton_solve):
    """newton_solve, with its residual and Jacobian callables traced.

    The residual and Jacobian closures are built by the integrator, so their
    self time is residual and Jacobian assembly in the integrator layer.
    """
    nid = tracer.name_id("numerics.newton")

    def traced(F, x0, *rest, **kwargs):
        rest = list(rest)
        jac = rest[1] if len(rest) > 1 else kwargs.get("jac")
        if jac is not None:
            if len(rest) > 1:
                rest[1] = tracer.wrap("integrator.jacobian", jac)
            else:
                kwargs["jac"] = tracer.wrap("integrator.jacobian", jac)
        i = tracer.begin(nid)
        try:
            res = newton_solve(tracer.wrap("integrator.residual", F), x0, *rest, **kwargs)
        finally:
            tracer.finish(i)
        tracer.newton[i] = (jac is not None, res.iterations)
        return res

    return traced


def _traced_attempt(tracer: Tracer, attempt):
    nid = tracer.name_id("integrator.attempt")

    def traced(*args, **kwargs):
        i = tracer.begin(nid)
        try:
            out = attempt(*args, **kwargs)
        finally:
            tracer.finish(i)
        tracer.attempt_ok.add(i)
        return out

    return traced


def _numpy_with_traced_solve(tracer: Tracer, np_module):
    """A copy of the numpy namespace whose linalg.solve records a span, so
    a Tikhonov fallback in numerics._solve_linear shows as a second solve."""
    linalg = types.ModuleType(np_module.linalg.__name__)
    linalg.__dict__.update(np_module.linalg.__dict__)
    linalg.solve = tracer.wrap("numerics.dense_solve", np_module.linalg.solve)
    proxy = types.ModuleType(np_module.__name__)
    proxy.__dict__.update(np_module.__dict__)
    proxy.linalg = linalg
    return proxy


@contextmanager
def installed(tracer: Tracer):
    """Install every hook for the duration of the block, then restore."""
    saved = []

    def hook(module, attr, wrap):
        mod, old = _lookup(module, attr)
        saved.append((mod, attr, old))
        setattr(mod, attr, wrap(old))

    def after_report(report, traj, *rest):
        tracer.nodes["diagnostics.build_report"] += len(traj.states)
        return report

    def after_series(series, traj, *rest):
        tracer.nodes["diagnostics.energy_series"] += len(traj.states)
        return series

    def after_csv(result, path, traj, *rest):
        tracer.csv_rows += len(traj.states)
        tracer.csv_bytes += os.path.getsize(path)
        return result

    def after_plots(written, out_dir, traj, Ld, model, kinds):
        nodes = len(traj.states)
        points = {
            "energy": nodes + len(traj.impacts),
            "coordinates": model.n * nodes,
            "plane_trajectory": nodes,
        }
        tracer.plot_points += sum(points[k] for k in kinds)
        tracer.plot_bytes += sum(os.path.getsize(p) for p in written)
        return written

    # (importing modules, attribute, span name, what runs after the call)
    measured = (
        (("nhvi.config", "nhvi.cli"), "build_model", "config.build_model",
         lambda model, *args: _wrap_model(tracer, model)),
        (("nhvi.discretization", "nhvi.cli"), "make_discrete_lagrangian",
         "discretization.make_discrete_lagrangian",
         lambda Ld, *args: _wrap_partials(tracer, Ld)),
        (("nhvi.diagnostics", "nhvi.cli"), "build_report", "diagnostics.build_report",
         after_report),
        (("nhvi.diagnostics", "nhvi.output"), "energy_series", "diagnostics.energy_series",
         after_series),
        (("nhvi.cli",), "write_trajectory_csv", "output.trajectory_csv", after_csv),
        (("nhvi.cli",), "write_plots", "output.plots", after_plots),
    )
    try:
        for module, attr, name in FUNCTION_HOOKS:
            hook(module, attr, lambda fn, name=name: tracer.wrap(name, fn))
        hook("nhvi.integrator", "newton_solve", lambda fn: _traced_newton(tracer, fn))
        hook("nhvi.integrator", "_attempt_impact", lambda fn: _traced_attempt(tracer, fn))
        hook("nhvi.numerics", "np", lambda np_: _numpy_with_traced_solve(tracer, np_))
        for modules, attr, name, after in measured:
            for module in modules:
                hook(module, attr,
                     lambda fn, name=name, after=after: _span_then(tracer, name, fn, after))
        yield tracer
    finally:
        for mod, attr, old in reversed(saved):
            setattr(mod, attr, old)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer: Tracer):
    """Per-layer metrics of one traced pass, and the layer self-time split.

    Counts are totals over the pass; times are in microseconds, normalized
    by the unit each metric names (per call, per step, per node, ...).
    """
    n = len(tracer.start)
    name = np.frombuffer(tracer.name_ix, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
    has_parent = parent >= 0
    child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_time = dur - child_time
    k = len(tracer.names)
    count = np.bincount(name, minlength=k)
    incl = np.bincount(name, weights=dur, minlength=k) * 1e6
    own = np.bincount(name, weights=self_time, minlength=k) * 1e6
    ids = {nm: i for i, nm in enumerate(tracer.names)}

    def c(nm):
        return int(count[ids[nm]]) if nm in ids else 0

    def inc(nm):
        return float(incl[ids[nm]]) if nm in ids else 0.0

    def slf(nm):
        return float(own[ids[nm]]) if nm in ids else 0.0

    def spans_of(nm):
        return np.flatnonzero(name == ids[nm]) if nm in ids else np.empty(0, dtype=np.int64)

    def children_per_span(child_nm, parents):
        """Number of `child_nm` spans directly under each span in `parents`."""
        kids = spans_of(child_nm)
        per = np.bincount(parent[kids], minlength=n) if kids.size else np.zeros(n, int)
        return per[parents]

    steps = c("integrator.step") + c("integrator.impact")
    impacts = c("integrator.impact")

    # Newton solves: iterations, backtracks, residual evaluations.
    solves = spans_of("numerics.newton")
    direct_evals = children_per_span("integrator.residual", solves)
    iterations = backtracks = 0
    for s, evals in zip(solves.tolist(), direct_evals.tolist()):
        if s in tracer.newton:
            it = tracer.newton[s][1]
            iterations += it
            backtracks += evals - 1 - it
    fd_spans = spans_of("numerics.fd_jacobian")
    fd_evals = int(children_per_span("integrator.residual", fd_spans).sum())
    lin = spans_of("numerics.linear_solve")
    fallbacks = int((children_per_span("numerics.dense_solve", lin) >= 2).sum())

    # Impact phases from the order of solves inside each attempt: A first,
    # D last when the attempt returned, B in between (a second B solve is
    # the second basin).  An attempt that raised has no D unless its last
    # solve had an analytic Jacobian.
    phase_us = {"A": 0.0, "B": 0.0, "D": 0.0}
    second_basin = 0
    attempts = set(spans_of("integrator.attempt").tolist())
    by_attempt: Dict[int, list] = {}
    for s in solves.tolist():
        p = int(parent[s])
        if p in attempts:
            by_attempt.setdefault(p, []).append(s)
    for a, group in by_attempt.items():
        phases = ["A"] + ["B"] * (len(group) - 1)
        last_has_jac = tracer.newton.get(group[-1], (False,))[0]
        if len(group) > 1 and (a in tracer.attempt_ok or last_has_jac):
            phases[-1] = "D"
        for s, ph in zip(group, phases):
            phase_us[ph] += float(dur[s]) * 1e6
        second_basin += max(0, phases.count("B") - 1)

    partial_calls = sum(c(f"discretization.{p}") for p in PARTIALS)
    partial_self = sum(slf(f"discretization.{p}") for p in PARTIALS)
    model_self = sum(slf(f"models.{m}") for m in MODEL_CALLABLES)

    out = {
        "integrator.step.calls": c("integrator.step"),
        "integrator.step.self_us": _ratio(slf("integrator.step"), c("integrator.step")),
        "integrator.impact.calls": impacts,
        "integrator.impact.us_per_impact": _ratio(inc("integrator.impact"), impacts),
        "integrator.impact.share": _ratio(inc("integrator.impact"), inc("integrator.simulate")),
        "integrator.impact.retries": c("integrator.attempt") - impacts,
        "integrator.impact.phase_a_us": _ratio(phase_us["A"], impacts),
        "integrator.impact.phase_b_us": _ratio(phase_us["B"], impacts),
        "integrator.impact.phase_d_us": _ratio(phase_us["D"], impacts),
        "integrator.impact.phase_b_second_basin": second_basin,
        "numerics.newton.solves": int(solves.size),
        "numerics.newton.iters_per_step": _ratio(iterations, steps),
        "numerics.newton.residual_evals_per_solve": _ratio(c("integrator.residual"), solves.size),
        "numerics.newton.backtracks": backtracks,
        "numerics.newton.self_us": _ratio(slf("numerics.newton"), solves.size),
        "numerics.linear_solve.calls": c("numerics.linear_solve"),
        "numerics.linear_solve.us_per_call": _ratio(inc("numerics.linear_solve"), lin.size),
        "numerics.linear_solve.tikhonov_fallbacks": fallbacks,
        "numerics.fd_jacobian.calls": c("numerics.fd_jacobian"),
        "numerics.fd_jacobian.residual_evals": fd_evals,
        "numerics.fd_jacobian.us": _ratio(inc("numerics.fd_jacobian"), steps),
        "discretization.partials.calls_per_step": _ratio(partial_calls, steps),
        "discretization.partials.us": _ratio(partial_self, steps),
        **{f"models.{m}.calls_per_step": _ratio(c(f"models.{m}"), steps)
           for m in MODEL_CALLABLES},
        "models.us": _ratio(model_self, steps),
        "geometry.boundary_frame.calls": c("geometry.boundary_frame"),
        "geometry.boundary_frame.us": _ratio(
            inc("geometry.boundary_frame"), c("geometry.boundary_frame")),
        "diagnostics.build_report.us_per_node": _ratio(
            inc("diagnostics.build_report"), tracer.nodes["diagnostics.build_report"]),
        "diagnostics.energy_series.us_per_node": _ratio(
            inc("diagnostics.energy_series"), tracer.nodes["diagnostics.energy_series"]),
        "output.trajectory_csv.us_per_row": _ratio(
            inc("output.trajectory_csv"), tracer.csv_rows),
        "output.trajectory_csv.bytes_per_row": _ratio(tracer.csv_bytes, tracer.csv_rows),
        "output.plots.us_per_point": _ratio(inc("output.plots"), tracer.plot_points),
        "output.plots.bytes": tracer.plot_bytes,
        "output.impacts_csv.us": _ratio(inc("output.impacts_csv"), c("output.impacts_csv")),
        "output.summary_json.us": _ratio(inc("output.summary_json"), c("output.summary_json")),
        "config.parse_config.us": _ratio(inc("config.parse_config"), c("config.parse_config")),
        "config.build_model.us": _ratio(inc("config.build_model"), c("config.build_model")),
    }

    wall = inc("bench.op")
    layer_us = dict.fromkeys(LAYERS, 0.0)
    for nm, i in ids.items():
        layer_us[nm.split(".", 1)[0]] += float(own[i])
    for layer, us in layer_us.items():
        out[f"{layer}.self_share"] = _ratio(us, wall)
    split = {"wall_us": wall, "self_us_by_layer": layer_us, "spans": n}
    return out, split


def check_spans_fired(tracer: Tracer, cli: bool) -> None:
    """Raise HookMissing for a required span that never fired in the pass."""
    ids = set(np.unique(np.frombuffer(tracer.name_ix, dtype=np.int32)).tolist())
    fired = {tracer.names[i] for i in ids}
    required = REQUIRED_SPANS + (CLI_SPANS if cli else ())
    missing = [nm for nm in required if nm not in fired]
    if missing:
        raise HookMissing("traced hooks never called: " + ", ".join(missing))

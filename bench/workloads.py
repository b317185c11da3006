"""The three benchmark workloads: inputs, one operation, and its output checks.

One operation is one trajectory: set-up (parse the configuration file, build
the model and the discrete Lagrangian), `simulate`, post-processing, and the
output check.  A workload's operations for one seed form a pass; run.py
repeats the pass.

nhvi functions are looked up on their modules at call time, so the wrappers
the traced run installs (spans.py) see every call the harness makes.
"""

from __future__ import annotations

import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, List, Optional, Tuple

import numpy as np

import nhvi
import nhvi.cli
import nhvi.config
import nhvi.diagnostics
import nhvi.discretization
import nhvi.integrator
from nhvi.errors import NhviError

# Output checks shared by every workload (acceptance-level invariants).
ENERGY_JUMP_MAX = 1e-7
GAP_MIN = -1e-12
# pendulum_long only
DRIFT_MAX = 0.05
CONSTRAINT_RESIDUAL_MAX = 1e-10
# demo_outputs: impact counts of criteria 2 and 3, with their tolerance
DEMO_IMPACTS = {"ellipse": 17, "pendulum": 3}
DEMO_IMPACT_TOL = 1

# Criterion-4 initial state (tests/conftest.py PENDULUM_Q0 / PENDULUM_V0).
PENDULUM_Q0 = [0.75 * math.pi, 0.0]
PENDULUM_V0 = [0.25 * math.pi, 0.25 * (math.pi + 0.5) * math.pi]
# 2 simulated seconds = 20 000 steps at h = 1e-4 with one impact (t = 1.23):
# a few seconds of wall time, so a timed run repeats it several times, and a
# 14 MB trajectory that shows in peak_rss_mb.
PENDULUM_T_FINAL = 2.0

BOUNCE_KINDS = ("particle", "ellipse-vertical", "ellipse-edge-slope", "star")
BOUNCE_T_FINAL = 2.0
BOUNCE_H = 2e-2
# 96 members of each body kind: enough that the solved fraction and the
# impact share of one seed lie within a few percent of the ensemble's.
BOUNCE_MEMBERS = 384
# Spin and velocity bounds keep both discretized initial nodes (t = -+h/2)
# inside the admissible set for the lowest start (0.05 above the floor):
# h/2 * (|v_y| + max|phi'| |spin|) = 0.01 * (2 + sqrt(2) * 2) < 0.05.
BOUNCE_SPEED = 2.0
BOUNCE_SPIN = 2.0

DEMOS = ("particle", "ellipse", "pendulum")


@dataclass
class OpResult:
    """Outcome and timings of one operation."""

    label: str
    started: float = 0.0  # clock when simulate started
    simulated: float = 0.0  # clock when simulate returned
    finished: float = 0.0  # clock when post-processing ended
    steps: int = 0
    nodes: int = 0
    solver_error: Optional[str] = None  # type of a typed NhviError, if raised
    problems: List[str] = field(default_factory=list)  # failed output checks

    @property
    def solved(self) -> bool:
        return self.solver_error is None and not self.problems

    @property
    def sim_s(self) -> float:
        return self.simulated - self.started

    @property
    def post_s(self) -> float:
        return self.finished - self.simulated


def _write_config(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _common_checks(impacts, min_gap: float) -> List[str]:
    problems = []
    worst_jump = max((abs(ev.energy_jump) for ev in impacts), default=0.0)
    if worst_jump > ENERGY_JUMP_MAX:
        problems.append(f"energy jump {worst_jump:.3e} > {ENERGY_JUMP_MAX:.0e}")
    if min_gap < GAP_MIN:
        problems.append(f"min boundary gap {min_gap:.3e} < {GAP_MIN:.0e}")
    return problems


def _pendulum_checks(traj, report) -> List[str]:
    problems = _common_checks(traj.impacts, report.min_boundary_gap)
    if report.energy_drift_rel > DRIFT_MAX:
        problems.append(f"energy drift {report.energy_drift_rel:.3e} > {DRIFT_MAX}")
    if report.max_constraint_residual > CONSTRAINT_RESIDUAL_MAX:
        problems.append(
            f"constraint residual {report.max_constraint_residual:.3e} "
            f"> {CONSTRAINT_RESIDUAL_MAX:.0e}"
        )
    return problems


def _bounce_checks(traj, report) -> List[str]:
    return _common_checks(traj.impacts, report.min_boundary_gap)


def run_direct(label: str, cfg_path: Path, checks, clock) -> OpResult:
    """Set up, simulate and report through the library API."""
    res = OpResult(label)
    cfg = nhvi.config.parse_config(cfg_path)
    model = nhvi.config.build_model(cfg)
    Ld = nhvi.discretization.make_discrete_lagrangian(model, cfg.rule)
    started = clock()
    try:
        traj = nhvi.integrator.simulate(
            Ld, model, np.array(cfg.q0), np.array(cfg.v0),
            cfg.t0, cfg.t_final, cfg.h, cfg.solver,
        )
    except NhviError as exc:
        res.solver_error = type(exc).__name__
        return res
    simulated = clock()
    report = nhvi.diagnostics.build_report(traj, Ld, model)
    res.started, res.simulated, res.finished = started, simulated, clock()
    res.steps = len(traj.states) - 1
    res.nodes = len(traj.states)
    res.problems = checks(traj, report)
    return res


class SimulateRecorder:
    """Stands in for `nhvi.cli.simulate` and records when it ran and what it
    returned, so a CLI operation splits into simulate and post-processing."""

    def __init__(self, simulate, clock):
        self._simulate = simulate
        self.clock = clock
        self.last = None

    def __call__(self, *args, **kwargs):
        started = self.clock()
        traj = self._simulate(*args, **kwargs)
        self.last = (started, self.clock(), traj)
        return traj


class CliDemoRunner:
    """Runs a bundled demo through `nhvi.cli.main` and checks its files."""

    def __init__(self, workdir: Path, clock):
        self.workdir = workdir
        self.recorder = SimulateRecorder(nhvi.cli.simulate, clock)
        nhvi.cli.simulate = self.recorder

    def close(self) -> None:
        nhvi.cli.simulate = self.recorder._simulate

    def __call__(self, label: str, cfg_path: Path) -> OpResult:
        res = OpResult(label)
        out = self.workdir / f"demo-{label}"
        self.recorder.last = None
        rc = nhvi.cli.main(["demo", label, "--out", str(out)])
        finished = self.recorder.clock()
        if rc != 0:
            try:
                res.solver_error = json.loads((out / "error.json").read_text())["error"]
            except (OSError, ValueError, KeyError):
                res.problems.append(f"demo exited {rc} without a readable error.json")
            return res
        res.started, res.simulated, traj = self.recorder.last
        res.finished = finished
        res.steps = len(traj.states) - 1
        res.nodes = len(traj.states)
        rows = (out / "trajectory.csv").read_bytes().count(b"\r\n") - 1
        if rows != len(traj.states):
            res.problems.append(f"trajectory.csv has {rows} rows for {len(traj.states)} states")
        try:
            summary = json.loads((out / "summary.json").read_text())
        except ValueError as exc:
            res.problems.append(f"summary.json does not parse: {exc}")
            return res
        res.problems += _common_checks(traj.impacts, summary["min_boundary_gap"])
        expected = DEMO_IMPACTS.get(label)
        if expected is not None and abs(summary["impact_count"] - expected) > DEMO_IMPACT_TOL:
            res.problems.append(
                f"{summary['impact_count']} impacts, expected {expected} +- {DEMO_IMPACT_TOL}"
            )
        return res


@dataclass
class Workload:
    """A named workload: the operations of a pass and how one runs.

    `ops(seed)` gives the (label, config path) pairs of the pass; `runner`
    runs one of them.  A typed solver error (NhviError) is an accepted
    outcome only where `solver_errors_allowed` is set; elsewhere it counts
    as a failed operation.
    """

    name: str
    solver_errors_allowed: bool
    ops: Callable[[int], List[Tuple[str, Path]]]
    runner: Callable[[str, Path], OpResult]
    close: Callable[[], None] = lambda: None


def pendulum_config() -> dict:
    return {
        "model": {
            "type": "pendulum", "mass": 1.0, "gravity": 9.8,
            "length": 2.0, "radius": 1.5, "f": "default",
        },
        "rule": "retraction-left",
        "q0": PENDULUM_Q0,
        "v0": PENDULUM_V0,
        "t0": 0.0,
        "t_final": PENDULUM_T_FINAL,
        "h": 1e-4,
        "outputs": {"csv": False, "summary": False, "plots": []},
    }


def _edge_height(kind: str, theta: float) -> float:
    """Height of the body's lowest point below its axis (models.py phi)."""
    s, c = math.sin(theta), math.cos(theta)
    if kind == "star":
        return abs(s) + abs(c)  # StarShape(l=1.0)
    return math.sqrt(s * s + 0.25 * c * c)  # EllipseShape(a=1.0, b=0.5)


def bounce_config(seed: int, index: int) -> Tuple[str, dict]:
    """Member `index` of the bounce ensemble of `seed`: its body kind and
    configuration.  The same (seed, index) always gives the same member."""
    kind = BOUNCE_KINDS[index % len(BOUNCE_KINDS)]
    rng = np.random.default_rng([seed % 2**63, index])
    lift = float(rng.uniform(0.05, 0.5))
    vx, vy = (float(x) for x in rng.uniform(-BOUNCE_SPEED, BOUNCE_SPEED, 2))
    if kind == "particle":
        model = {"type": "particle"}
        q0, v0 = [0.0, lift], [vx, vy]
    else:
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        spin = float(rng.uniform(-BOUNCE_SPIN, BOUNCE_SPIN))
        if kind == "star":
            model = {"type": "se2_body", "shape": {"kind": "star", "l": 1.0}, "inertia": 0.5}
        else:
            model = {
                "type": "se2_body",
                "shape": {"kind": "ellipse", "a": 1.0, "b": 0.5},
                "contact_frame": "vertical" if kind == "ellipse-vertical" else "edge-slope",
            }
        q0 = [theta, 0.0, _edge_height(kind, theta) + lift]
        v0 = [spin, vx, vy]
    return kind, {
        "model": model,
        "rule": "midpoint",
        "q0": q0,
        "v0": v0,
        "t0": 0.0,
        "t_final": BOUNCE_T_FINAL,
        "h": BOUNCE_H,
        "outputs": {"csv": False, "summary": False, "plots": []},
    }


def make_workload(name: str, workdir: Path, clock=perf_counter) -> Workload:
    """The workload `name`, writing its files under workdir and timing
    operations with `clock`."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "pendulum_long":
        path = _write_config(workdir / "pendulum_long.json", pendulum_config())
        return Workload(
            name, solver_errors_allowed=False,
            ops=lambda seed: [("pendulum", path)],
            runner=lambda label, p: run_direct(label, p, _pendulum_checks, clock),
        )
    if name == "bounce_sweep":

        def ops(seed):
            members = [bounce_config(seed, i) for i in range(BOUNCE_MEMBERS)]
            return [(kind, _write_config(workdir / f"bounce-{i}.json", doc))
                    for i, (kind, doc) in enumerate(members)]

        return Workload(
            name, solver_errors_allowed=True, ops=ops,
            runner=lambda label, p: run_direct(label, p, _bounce_checks, clock),
        )
    if name == "demo_outputs":
        configs = Path(nhvi.__file__).parent / "configs"
        demos = [(d, configs / f"{d}.json") for d in DEMOS]
        runner = CliDemoRunner(workdir, clock)
        return Workload(
            name, solver_errors_allowed=False,
            ops=lambda seed: demos, runner=runner, close=runner.close,
        )
    raise ValueError(f"unknown workload {name!r}")


def run_op(workload: Workload, label: str, path: Path, on_error) -> OpResult:
    """Run one operation; an unexpected exception becomes a failed check.

    `on_error(exc)` may re-raise errors that must stop the benchmark.
    """
    try:
        return workload.runner(label, path)
    except Exception as exc:  # the operation boundary: record and go on
        on_error(exc)
        res = OpResult(label)
        res.problems.append(
            "unexpected " + "".join(traceback.format_exception_only(type(exc), exc)).strip()
        )
        return res

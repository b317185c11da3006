"""Post-hoc trajectory analysis: energy series, residuals, run summaries.

Everything here recomputes its quantities from the stored trajectory rather
than trusting values cached by the integrator, so the report doubles as an
honesty check on the solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, List

import numpy as np

from .discretization import DiscreteLagrangian, discrete_energy, omega_dplus
from .geometry import MechanicalModel
from .integrator import Trajectory, _impact_a_residual, _impact_b_residual, _step_system
from .numerics import _norm


@dataclass
class RunReport:
    impact_count: int
    impact_times: List[float]
    energy_initial: float
    energy_final: float
    energy_drift_rel: float
    max_constraint_residual: float
    min_boundary_gap: float
    newton_iter_stats: Dict[str, float] = field(default_factory=dict)
    # per-state columns "E", "c", "max_omega_residual" of the CSV; not in to_dict
    state_columns: Dict[str, np.ndarray] = field(default_factory=dict, repr=False)

    def to_dict(self) -> dict:
        return {
            "impact_count": self.impact_count,
            "impact_times": list(self.impact_times),
            "energy_initial": self.energy_initial,
            "energy_final": self.energy_final,
            "energy_drift_rel": self.energy_drift_rel,
            "max_constraint_residual": self.max_constraint_residual,
            "min_boundary_gap": self.min_boundary_gap,
            "newton_iter_stats": dict(self.newton_iter_stats),
        }


def _substeps(traj: Trajectory) -> List[float]:
    """Sub-step ending each row: a row whose step held a collision ends the
    pre-impact sub-step alpha*h (its impact node starts (1-alpha)*h); any
    other row ends a full step h."""
    h = traj.h
    steps = [h] * len(traj.t)
    for ev in traj.impacts:  # row ev.k ends the step that held ev
        steps[ev.k] = ev.alpha * h
    return steps


def _node_samples(traj: Trajectory) -> np.ndarray:
    """Mask of the node samples in the energy series: each impact sample sits
    right after the node of its step, so node k follows the nodes and impact
    samples before it."""
    mask = np.ones(len(traj.t) + len(traj.impacts), dtype=bool)
    mask[[ev.k + j + 1 for j, ev in enumerate(traj.impacts)]] = False
    return mask


def _omega_residual(model: MechanicalModel, q, v, s) -> float:
    return float(np.abs(omega_dplus(model, q, v, s)).max())


def energy_series(traj: Trajectory, Ld: DiscreteLagrangian) -> np.ndarray:
    """Discrete energy -d3 at every trajectory node, impact nodes included.

    Returns an (N + impacts, 2) float64 array of (t, E) rows in time order.
    Nodes whose step contained a collision are evaluated on their actual
    sub-step alpha*h, and the boundary node contributes an extra sample at
    the impact time with sub-step (1-alpha)*h, right after that node.
    """
    n = len(traj.t)
    if not n:
        raise ValueError("trajectory has no states")
    h = traj.h
    impacts = traj.impacts
    series = np.empty((n + len(impacts), 2))
    nodes = _node_samples(traj)
    series[nodes, 0] = traj.t
    series[nodes, 1] = np.fromiter(
        map(discrete_energy, repeat(Ld), traj.q, traj.v, _substeps(traj)), float, n
    )
    for j, ev in enumerate(impacts):
        series[ev.k + j + 1] = (
            ev.t_impact,
            discrete_energy(Ld, ev.q_tilde, ev.v_tilde, (1.0 - ev.alpha) * h),
        )
    return series


def build_report(
    traj: Trajectory, Ld: DiscreteLagrangian, model: MechanicalModel
) -> RunReport:
    """Aggregate energy behavior, constraint residuals and solver statistics."""
    energies = energy_series(traj, Ld)[:, 1]
    e0 = float(energies[0])
    drift = float(np.max(np.abs(energies - e0))) / max(1.0, abs(e0))

    # the columns are float64 arrays: lists of floats would keep ~100 B per state
    n = len(traj.t)
    gap = np.fromiter(map(model.boundary_gap, traj.q), float, n)
    omega_res = np.zeros(n)
    max_residual = 0.0
    if model.m_con:
        h = traj.h
        omega_res = np.fromiter(
            map(_omega_residual, repeat(model), traj.q, traj.v, _substeps(traj)), float, n
        )
        post_res = [
            _omega_residual(model, ev.q_tilde, ev.v_tilde, (1.0 - ev.alpha) * h)
            for ev in traj.impacts
        ]
        # no solve produced the initial state; the impact nodes count too
        max_residual = max(0.0, float(omega_res[1:].max(initial=0.0)), *post_res)

    iters = traj.solver_stats.iterations
    step_iters = [
        it for it, phase in zip(iters, traj.solver_stats.phases) if phase == "step"
    ]
    stats = {
        "mean": float(np.mean(iters)) if iters else 0.0,
        "max": float(max(iters)) if iters else 0.0,
        # smooth steps only: how well the predictor seeds the step solve
        "step_mean": float(np.mean(step_iters)) if step_iters else 0.0,
    }

    return RunReport(
        impact_count=len(traj.impacts),
        impact_times=[ev.t_impact for ev in traj.impacts],
        energy_initial=e0,
        energy_final=float(energies[-1]),
        energy_drift_rel=drift,
        max_constraint_residual=max_residual,
        min_boundary_gap=float(min(gap)),
        newton_iter_stats=stats,
        state_columns={
            "E": energies[_node_samples(traj)],
            "c": gap,
            "max_omega_residual": omega_res,
        },
    )


def recompute_solve_residuals(
    traj: Trajectory, Ld: DiscreteLagrangian, model: MechanicalModel
) -> np.ndarray:
    """Re-evaluate every recorded solve residual from the stored trajectory.

    Returns one infinity norm per solver_stats entry.  "step" and "impact-D"
    records re-evaluate the residual the solver itself drove to zero, and
    impact-A/B records the phase equations at the stored event, so each
    value equals the stored one bitwise.  The one exception is the record
    just before each "impact-A": that solve produced the v_k the impact
    deleted, so nothing stored can reproduce it and its stored value is
    returned.  (An impact at k = 0 has no earlier record.)
    """
    h = traj.h
    stats = traj.solver_stats
    events = {ev.k: ev for ev in traj.impacts}
    deleted = {i - 1 for i, phase in enumerate(stats.phases) if phase == "impact-A"}
    out = np.empty(len(stats))
    q, v, p, lam = traj.q, traj.v, traj.p, traj.lam
    for i, (k, phase) in enumerate(zip(stats.ks, stats.phases)):
        if i in deleted:
            out[i] = stats.residuals[i]
        elif phase in ("step", "impact-D"):
            j = k + 1
            residual, _ = _step_system(Ld, model, q[j], p[j], h)
            out[i] = _norm(residual(np.concatenate([v[j], lam[j]])))
        elif phase == "impact-A":
            out[i] = _impact_a_residual(Ld, model, q[k], p[k], events[k], h)
        elif phase == "impact-B":
            out[i] = _impact_b_residual(Ld, model, q[k], events[k], h)
        else:
            raise ValueError(f"unknown solver phase {phase!r}")
    return out

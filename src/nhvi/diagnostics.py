"""Post-hoc trajectory analysis: energy series, residuals, run summaries.

Everything here recomputes its quantities from the stored trajectory rather
than trusting values cached by the integrator, so the report doubles as an
honesty check on the solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Tuple

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


def _nodes(traj: Trajectory):
    """(state, s, event, s_after) per state: a state whose step held the
    collision `event` ends the sub-step s = alpha*h and its impact node
    starts s_after = (1-alpha)*h; any other state has s = h and two Nones."""
    h = traj.h
    n = len(traj.states)
    steps, events, steps_after = [h] * n, [None] * n, [None] * n
    for ev in traj.impacts:  # traj.states[k] ends the step that held ev
        steps[ev.k], events[ev.k], steps_after[ev.k] = ev.alpha * h, ev, (1.0 - ev.alpha) * h
    return zip(traj.states, steps, events, steps_after)


def _omega_residual(model: MechanicalModel, q, v, s) -> float:
    return float(np.abs(omega_dplus(model, q, v, s)).max())


def energy_series(traj: Trajectory, Ld: DiscreteLagrangian) -> List[Tuple[float, float]]:
    """Discrete energy -d3 at every trajectory node, impact nodes included.

    States whose step contained a collision are evaluated on their actual
    sub-step alpha*h, and the boundary node contributes an extra sample at
    the impact time with sub-step (1-alpha)*h.
    """
    if not traj.states:
        raise ValueError("trajectory has no states")
    series: List[Tuple[float, float]] = []
    for st, s, ev, s_after in _nodes(traj):
        series.append((st.t, discrete_energy(Ld, st.q, st.v, s)))
        if ev is not None:
            series.append((ev.t_impact, discrete_energy(Ld, ev.q_tilde, ev.v_tilde, s_after)))
    return series


def build_report(
    traj: Trajectory, Ld: DiscreteLagrangian, model: MechanicalModel
) -> RunReport:
    """Aggregate energy behavior, constraint residuals and solver statistics."""
    series = energy_series(traj, Ld)
    energies = np.array([e for _, e in series])
    e0 = float(energies[0])
    drift = float(np.max(np.abs(energies - e0))) / max(1.0, abs(e0))

    # the columns are float64 arrays: lists of floats would keep ~100 B per state
    n = len(traj.states)
    gap = np.fromiter((model.boundary_gap(st.q) for st in traj.states), float, n)
    # state k's energy sample follows those of the states and impact nodes before it
    pos = np.arange(n)
    pos += np.searchsorted([ev.k for ev in traj.impacts], pos)
    omega_res = np.zeros(n)
    max_residual = 0.0
    if model.m_con:
        post_res = []
        for st, s, ev, s_after in _nodes(traj):
            omega_res[st.k] = _omega_residual(model, st.q, st.v, s)
            if ev is not None:
                post_res.append(_omega_residual(model, ev.q_tilde, ev.v_tilde, s_after))
        # no solve produced the initial state; the impact nodes count too
        max_residual = max(chain([0.0], omega_res[1:].tolist(), post_res))

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
        state_columns={"E": energies[pos], "c": gap, "max_omega_residual": omega_res},
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
    for i, (k, phase) in enumerate(zip(stats.ks, stats.phases)):
        if i in deleted:
            out[i] = stats.residuals[i]
        elif phase in ("step", "impact-D"):
            nxt = traj.states[k + 1]
            residual, _ = _step_system(Ld, model, nxt.q, nxt.p, h)
            out[i] = _norm(residual(np.concatenate([nxt.v, nxt.lam])))
        elif phase == "impact-A":
            out[i] = _impact_a_residual(
                Ld, model, traj.states[k].q, traj.states[k].p, events[k], h
            )
        elif phase == "impact-B":
            out[i] = _impact_b_residual(Ld, model, traj.states[k].q, events[k], h)
        else:
            raise ValueError(f"unknown solver phase {phase!r}")
    return out

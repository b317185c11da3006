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

from .discretization import DiscreteLagrangian, discrete_energy
from .geometry import MechanicalModel
from .integrator import Trajectory, _impact_a_system, _impact_b_system, _step_system
from .numerics import _dot, _norm

# rows per block when a column is read as Python floats
_BLOCK = 256


# solver phase -> its mean-iterations key in RunReport.newton_iter_stats
PHASE_MEANS = {
    "step": "step_mean",
    "impact-A": "impact_a_mean",
    "impact-B": "impact_b_mean",
    "impact-D": "impact_d_mean",
}


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


def _node_samples(traj: Trajectory) -> np.ndarray:
    """Mask of the node samples in the energy series: each impact sample sits
    right after the node of its step, so node k follows the nodes and impact
    samples before it."""
    mask = np.ones(len(traj.t) + len(traj.impacts), dtype=bool)
    mask[[ev.k + j + 1 for j, ev in enumerate(traj.impacts)]] = False
    return mask


def _rows(column: np.ndarray):
    """The entries of a float64 column as Python floats (rows as lists),
    converted a block at a time, so a long trajectory never holds them all."""
    for start in range(0, len(column), _BLOCK):
        yield from column[start : start + _BLOCK].tolist()


def _omega_residual(model: MechanicalModel, q, w) -> float:
    """Largest |omega(q) w| over the constraints, at discrete velocity w; a
    NaN rate makes it NaN."""
    worst = 0.0
    for row in model.omega(q):
        rate = abs(_dot(row, w))
        if not rate <= worst:
            worst = rate
            if rate != rate:
                break
    return worst


def energy_samples(traj: Trajectory, Ld: DiscreteLagrangian, energies) -> np.ndarray:
    """The (t, E) rows of the energy series from the node energies.

    `energies` holds one value per node (the report's "E" column); after
    the node of each impact step this inserts the boundary sample
    -d3_w(q~, w_out, (1-alpha) h) at the impact time.  Returns an
    (N + impacts, 2) float64 array in time order.
    """
    impacts = traj.impacts
    series = np.empty((len(traj.t) + len(impacts), 2))
    for j, ev in enumerate(impacts):
        e_out = -Ld.d3_w(ev.q_tilde, ev.w_out, (1.0 - ev.alpha) * traj.h)
        series[ev.k + j + 1] = ev.t_impact, e_out
    nodes = _node_samples(traj)
    series[nodes, 0] = traj.t
    series[nodes, 1] = energies
    return series


def energy_series(traj: Trajectory, Ld: DiscreteLagrangian) -> np.ndarray:
    """Discrete energy -d3 at every trajectory node, impact nodes included.

    Node k is -d3(q_k, v_k, h), or -d3_w(q_k, w_in, alpha h) when its step
    held a collision; `energy_samples` adds the boundary nodes.
    """
    n = len(traj.t)
    if not n:
        raise ValueError("trajectory has no states")
    h = traj.h
    energies = np.fromiter(
        map(discrete_energy, repeat(Ld), _rows(traj.q), _rows(traj.v), repeat(h)), float, n
    )
    for ev in traj.impacts:
        energies[ev.k] = -Ld.d3_w(traj.q[ev.k].tolist(), ev.w_in, ev.alpha * h)
    return energy_samples(traj, Ld, energies)


def build_report(
    traj: Trajectory, Ld: DiscreteLagrangian, model: MechanicalModel
) -> RunReport:
    """Aggregate energy behavior, constraint residuals and solver statistics."""
    series = energy_series(traj, Ld)
    e0 = float(series[0, 1])
    e_final = float(series[-1, 1])
    # max |E - e0| from the extremes of E: rounding is monotone, so this is
    # bitwise the elementwise maximum, without full-length temporaries
    e_max = float(series[:, 1].max())
    e_min = float(series[:, 1].min())
    drift = max(e_max - e0, e0 - e_min) / max(1.0, abs(e0))
    node_energies = series[_node_samples(traj), 1]
    del series

    # the columns are float64 arrays: lists of floats would keep ~100 B per state
    n = len(traj.t)
    gap = np.fromiter(map(model.boundary_gap, _rows(traj.q)), float, n)
    omega_res = np.zeros(n)
    max_residual = 0.0
    if model.m_con:
        h = traj.h
        omega_res = np.fromiter(
            (_omega_residual(model, q, [(b - a) / h for a, b in zip(q, v)])
             for q, v in zip(_rows(traj.q), _rows(traj.v))),
            float, n,
        )
        # impact rows read the discrete velocities phases A and B solved for
        post_res = []
        for ev in traj.impacts:
            omega_res[ev.k] = _omega_residual(model, traj.q[ev.k].tolist(), ev.w_in)
            post_res.append(_omega_residual(model, ev.q_tilde, ev.w_out))
        # no solve produced the initial state; the impact nodes count too.
        # np.max, unlike the builtin max, propagates a NaN from any position
        max_residual = float(np.max([omega_res[1:].max(initial=0.0), *post_res]))

    # integer sums are exact, so these means equal np.mean bitwise without
    # a per-record copy of the columns
    iters = traj.solver_stats.iterations
    phases = traj.solver_stats.phases
    totals = dict.fromkeys(PHASE_MEANS, 0)
    for it, phase in zip(iters, phases):
        totals[phase] += it
    stats = {
        "mean": sum(iters) / len(iters) if iters else 0.0,
        "max": float(max(iters)) if iters else 0.0,
    }
    # per phase: "step_mean" shows how well the predictor seeds the smooth
    # steps, the impact means what each impact solve costs
    for phase, key in PHASE_MEANS.items():
        count = phases.count(phase)
        stats[key] = totals[phase] / count if count else 0.0

    return RunReport(
        impact_count=len(traj.impacts),
        impact_times=[ev.t_impact for ev in traj.impacts],
        energy_initial=e0,
        energy_final=e_final,
        energy_drift_rel=drift,
        max_constraint_residual=max_residual,
        min_boundary_gap=float(gap.min()),
        newton_iter_stats=stats,
        state_columns={
            "E": node_energies,
            "c": gap,
            "max_omega_residual": omega_res,
        },
    )


def recompute_solve_residuals(
    traj: Trajectory, Ld: DiscreteLagrangian, model: MechanicalModel
) -> np.ndarray:
    """Re-evaluate every recorded solve residual from the stored trajectory.

    Returns one infinity norm per solver_stats entry, each evaluated by the
    builder of the system its solver drove to zero, at the stored solution
    ([v, lam] of row k + 1, or the event's [alpha, w_in, lambda_A] and
    [w_out, lambda_B]), so each value equals the stored one bitwise.  The
    one exception is the record just before each "impact-A": that solve
    produced the v_k the impact deleted, so nothing stored can reproduce it
    and its stored value is returned.  (An impact at k = 0 has no earlier
    record.)
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
            residual, _ = _step_system(Ld, model, q[j].tolist(), p[j].tolist(), h)
            out[i] = _norm(residual(v[j].tolist() + lam[j].tolist()))
        elif phase == "impact-A":
            ev = events[k]
            residual = _impact_a_system(Ld, model, q[k].tolist(), p[k].tolist(), h)
            out[i] = _norm(residual([ev.alpha, *ev.w_in, *ev.lambda_A]))
        elif phase == "impact-B":
            ev = events[k]
            ET = np.asarray(model.tangent_basis(ev.q_tilde), dtype=float).T
            d3_pre = Ld.d3_w(q[k].tolist(), ev.w_in, ev.alpha * h)
            s2 = (1.0 - ev.alpha) * h
            residual, _ = _impact_b_system(Ld, model, ev.q_tilde, ET, ev.p_tilde, d3_pre, s2)
            out[i] = _norm(residual(ev.w_out + ev.lambda_B))
        else:
            raise ValueError(f"unknown solver phase {phase!r}")
    return out

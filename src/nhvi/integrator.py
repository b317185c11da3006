"""Implicit time stepping with elastic-collision resolution.

The smooth forward step maps (q_k, v_k, p_k) to the next triple:

    p_{k+1} = d2(q_k, v_k, h)
    q_{k+1} = v_k
    solve for (v_{k+1}, lambda):
        d1(q_{k+1}, v_{k+1}, h) + p_{k+1} = sum_mu lambda_mu omega^mu(q_{k+1})
        omega_dplus(q_{k+1}, v_{k+1}) = 0

When the candidate q_{k+1} leaves the admissible set, the offending
configuration is deleted and the collision is resolved in four phases, each a
square Newton system.  Phases A and B solve for discrete velocities rather
than configurations, so the sub-step difference quotients are never formed:

    A: find the impact fraction alpha, the incoming discrete velocity w_in
       and multipliers, from d1(q_k, q~, alpha h) + p_k in the constraint
       span, omega(q_k) w_in = 0, and c(q~) = 0, where
       q~ = q_k + alpha h w_in is the boundary point (replacing v_k).
       Its Newton Jacobian is assembled from the Hessian blocks, omega and
       the gap gradient, but for the alpha column, which is differenced.
    B: transfer the momentum to the boundary, p~ = E^T d2(q_k, q~, alpha h),
       then find the outgoing discrete velocity w_out and multipliers from
       energy matching d3 = d3, the boundary-projected momentum balance, and
       omega(q~) w_out = 0, where v~ = q~ + (1 - alpha) h w_out is the
       post-impact configuration.
    C: p_{k+1} = d2(q~, v~, (1-alpha) h), q_{k+1} = v~.
    D: the usual constrained solve for (v_{k+1}, lambda) at the full step.

The momentum-transfer condition in phase B is overdetermined when read as an
equation in the full cotangent space (n equations for an (n-1)-dimensional
unknown); applying the boundary restriction to both sides turns it into the
closed-form assignment above, and the discarded normal component is recorded
on the event as `compat_residual`.

The energy equation in phase B is quadratic-like with a penetrating and a
reflecting root.  One Newton solve looks for the reflecting root, from a
seed on the line of the model's own elastic impact law, the s2 -> 0 limit
of phase B: with M = Lvv(q~, w_in) and E, omega at q~, the jump
w_out - w_in = mu d, lambda_B = mu l lies on the line (d, l) spanning the
kernel of [[E^T M, E^T omega^T], [omega, 0]], and kinetic-energy equality
picks the nonzero root mu = -2 (d^T M u) / (d^T M d) at velocity u.

Phases A, B and D start from the pre-impact arc through node k - 1, with
w_prev = (q_k - q_{k-1}) / h and c the rule's velocity point
(`DiscreteLagrangian.velocity_point`: a discrete velocity over [t, t + s]
is the true one at t + c s).  Phase A's discrete velocity over
[t_k, t_k + x h] is then w(x) = w_full - c (1 - x) (w_full - w_prev), with
w_full = (v_k - q_k) / h, and alpha starts one false-position step from
the chord's crossing c(q_k) / (c(q_k) - c(v_k)), on g(x) = c(q_k + x h w(x))
inside the bracket g(0) = c(q_k) > 0 > g(1) = c(v_k), so in (0, 1); the
seed is (alpha, w(alpha)) with zero multipliers.  For a constant metric, a
linear potential and no constraints, w(x) is phase A's own w at s = x h.
Where node k - 1 is unknown (k = 0, or an impact at step k - 1), or at a
grazing node with c(q_k) <= 0, phase A starts from the chord: its crossing
and w_full.  Phases B and D take the arc's constant acceleration
a = (w_in - w_prev) / ((1 - c) h + c s1), with s1 = alpha h and
s2 = (1 - alpha) h, and a = 0 where node k - 1 is unknown.  Phase B starts
on the law's line through the impact-instant velocity
u- = w_in + (1 - c) s1 a, at
w = u- + mu d + c s2 a, lambda = mu l, where mu is the larger root of the
quadratic through three samples of the energy row along that line, or the
law's mu at u- when the samples have no real root.  Phase D starts from
w_out + ((1 - c) s2 + c h) a.  For a constant metric, a linear potential
and no constraints (every built-in body but the pendulum) the momentum
rows vanish on the whole line and the energy row is exactly quadratic on
it, so these seeds are the roots and both solves take no iteration when a
is known; with a = 0 the phase-B seed is still the root where the arc's
acceleration has no part tangent to the boundary.  On a singular law, or
one without a finite mu, phase B starts from w_in with zero multipliers.
Newton decides either way: the residuals, the tolerance and the error
typing are the same.

The converged root is accepted only if the post-impact direction re-enters
the interior; when it does not, the law's own normal rate (at w_in) tells a
contact where the model admits no elastic bounce (NoElasticRebound) from a
solve that found the other root (RootSelectionAmbiguous).
"""

from __future__ import annotations

import logging
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import neg
from typing import List, NamedTuple

import numpy as np

from . import numerics
from .discretization import DiscreteLagrangian, initial_discretize
from .errors import (
    AlphaOutOfRange,
    NewtonFailure,
    NhviError,
    NoElasticRebound,
    ParameterError,
    PersistentPenetration,
    RootSelectionAmbiguous,
    SingularJacobian,
)
from .geometry import (
    GRAZING_TOL,
    MechanicalModel,
    boundary_frame,
    pullback_cotangent,
    push_cotangent,
)
from .numerics import (
    DEFAULT_NEWTON_OPTIONS,
    NewtonOptions,
    _columns,
    _dot,
    _norm,
    newton_solve,
)

log = logging.getLogger("nhvi.integrator")


@dataclass(slots=True)
class State:
    """One node of the discrete trajectory.

    `v` is the next-configuration slot of the scheme (a point of the
    configuration space, not a velocity); `lam` holds the constraint
    multipliers of the solve that produced this node (zeros at k = 0, empty
    for unconstrained models).  The nodes `simulate`, `step_plus` and
    `resolve_impact` make hold lists of Python floats; a `Trajectory` view
    holds row views of its float64 columns.
    """

    k: int
    t: float
    q: Sequence[float]
    v: Sequence[float]
    p: Sequence[float]
    lam: Sequence[float]


@dataclass(slots=True)
class ImpactEvent:
    """Resolved elastic collision within step k; vectors are lists of floats."""

    k: int
    alpha: float
    t_impact: float
    q_tilde: list
    v_tilde: list
    w_in: list  # phase-A discrete velocity: q_tilde = q_k + alpha h w_in
    w_out: list  # phase-B discrete velocity: v_tilde = q_tilde + (1-alpha) h w_out
    p_tilde: list  # boundary covector, length n-1
    lambda_A: list
    lambda_B: list
    compat_residual: float  # discarded normal momentum, diagnostic only
    energy_jump: float


@dataclass
class SolverStats:
    """Per-solve Newton record, kept as parallel columns (one entry per solve).

    Each phase is one of "step", "impact-A", "impact-B" and "impact-D"; the
    residual is the infinity norm of that solve's equations at its solution.
    `ks` and `iterations` are int64 arrays and `residuals` a float64 array
    (`array.array`), so a record costs 32 bytes.
    """

    ks: array = field(default_factory=lambda: array("q"))
    phases: List[str] = field(default_factory=list)
    iterations: array = field(default_factory=lambda: array("q"))
    residuals: array = field(default_factory=lambda: array("d"))

    def record(self, k: int, phase: str, iterations: int, residual: float) -> None:
        self.ks.append(k)
        self.phases.append(phase)
        self.iterations.append(iterations)
        self.residuals.append(residual)

    def __len__(self) -> int:
        return len(self.ks)


class StateRows(Sequence):
    """Read-only sequence of the nodes of a trajectory's rows `rows`.

    Indexing builds `State(k, t[k], q[k], v[k], p[k], lam[k])` on demand,
    its arrays views of the trajectory columns; a slice is another view.
    """

    __slots__ = ("_traj", "_rows")

    def __init__(self, traj: "Trajectory", rows: range):
        self._traj = traj
        self._rows = rows

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return StateRows(self._traj, self._rows[index])
        return self._traj._state(self._rows[index])

    def __iter__(self):
        return map(self._traj._state, self._rows)


@dataclass(slots=True, eq=False)
class Trajectory:
    """The discrete trajectory, stored as float64 columns whose row is k.

    `t` has shape (N,), `q`, `v` and `p` have shape (N, n) and `lam` has
    shape (N, m): row k is the node (q_k, v_k, p_k, lambda_k) at time t_k.
    At a step k that held a collision, row k's v and lam are the phase-A
    boundary node and multipliers (`impacts[j].q_tilde`, `.lambda_A`).
    `states` views the rows as `State` objects.
    """

    t: np.ndarray
    q: np.ndarray
    v: np.ndarray
    p: np.ndarray
    lam: np.ndarray
    impacts: List[ImpactEvent]
    h: float
    solver_stats: SolverStats

    def _state(self, k: int) -> State:
        """Node k as a `State` whose arrays view row k of the columns."""
        return State(k, float(self.t[k]), self.q[k], self.v[k], self.p[k], self.lam[k])

    @property
    def states(self) -> StateRows:
        return StateRows(self, range(len(self.t)))


class MinusStepResult(NamedTuple):
    q_prev: list
    p_prev: list
    lam: list


def _require_converged(res, phase: str, k: int, t: float):
    if not res.converged:
        raise NewtonFailure(phase=phase, residual_norm=res.residual_norm, k=k, t=t)


def _step_system(Ld: DiscreteLagrangian, model: MechanicalModel, q_base, p_base, h):
    """Residual and analytic Jacobian for the implicit block

        d1(q_base, v, h) + p_base - omega(q_base)^T lam = 0
        omega(q_base) . (v - q_base)/h = 0

    over the unknown z = [v, lam], as lists of floats.  The base point is
    fixed, so the constraint rows and the constant Jacobian blocks are
    evaluated once.
    """
    n = model.n
    d1 = Ld.d1
    d1_dv = Ld.d1_dv
    # Unlike phases A and B, the smooth step keeps an m = 0 closure: guarding
    # the constraint terms inside the general one splits its momentum-row
    # comprehension in two and cost pendulum_long +5.4% us_per_step (8 of 8
    # alternating pairs) and bounce_sweep +2.1% (6 of 8), on a 2-CPU Xeon.
    if not model.m_con:

        def residual(z):
            return [f + p for f, p in zip(d1(q_base, z, h), p_base)]

        return residual, lambda z: d1_dv(q_base, z, h)

    om = model.omega(q_base)
    omT = _columns(om, n)
    right = [list(map(neg, col)) for col in omT]
    bottom = [[a / h for a in row] + [0.0] * len(om) for row in om]

    def residual(z):
        v = z[:n]
        lam = z[n:]
        r = [f + p - _dot(col, lam) for f, p, col in zip(d1(q_base, v, h), p_base, omT)]
        w = [(b - a) / h for a, b in zip(q_base, v)]
        return r + [_dot(row, w) for row in om]

    def jac(z):
        return [row + c for row, c in zip(d1_dv(q_base, z[:n], h), right)] + bottom

    return residual, jac


def _solve_step(Ld, model, q_next, p_next, h, z0, opts, phase, k, t):
    """Solve the smooth step from the node (q_next, p_next) of step k, time t,
    from the guess z0; return the state of step k + 1 and the Newton result."""
    residual, jac = _step_system(Ld, model, q_next, p_next, h)
    res = newton_solve(residual, z0, opts, jac=jac)
    _require_converged(res, phase, k, t)
    n = model.n
    return State(k + 1, t + h, q_next, res.x[:n], p_next, res.x[n:]), res


def _step_plus_impl(Ld, model, state: State, h, opts, prev=None):
    """One smooth step from `state`; `prev` is the node before it, or None.

    Newton starts from the quadratic extrapolation of the nodes q_{k-1},
    q_k, q_{k+1} = v_k and the linear one of the multipliers when `prev` is
    given, and from the linear extrapolation 2 v_k - q_k, lambda_k otherwise.
    """
    q, v = state.q, state.v
    p_next = Ld.d2(q, v, h)
    if prev is None:
        z0 = [2.0 * b - a for a, b in zip(q, v)] + list(state.lam)
    else:
        z0 = [3.0 * (b - a) + c for a, b, c in zip(q, v, prev.q)]
        if model.m_con:
            z0 += [2.0 * a - b for a, b in zip(state.lam, prev.lam)]
    return _solve_step(Ld, model, v, p_next, h, z0, opts, "step", state.k, state.t)


def step_plus(
    Ld: DiscreteLagrangian,
    model: MechanicalModel,
    state: State,
    h: float,
    opts: NewtonOptions = DEFAULT_NEWTON_OPTIONS,
    prev: State | None = None,
) -> State:
    """Advance one smooth forward step; raises NewtonFailure on stall.

    `prev`, the node before `state`, selects the quadratic seed `simulate`
    uses after a smooth step; without it Newton starts from the linear seed.
    """
    new_state, _ = _step_plus_impl(Ld, model, state, h, opts, prev)
    return new_state


def _minus_system(Ld: DiscreteLagrangian, model: MechanicalModel, q_next, p_next, h):
    """Residual and analytic Jacobian for the backward block

        p_next - d2(u, q_next, h) - omega(q_next)^T lam = 0
        -omega(q_next) . (u - q_next)/h = 0

    over the unknown z = [u, lam], as lists of floats.  D1 d2 is the
    transpose of D2 d1, so the u block is -d1_dv(u, q_next, h)^T; the lambda
    columns -omega^T(q_next) and the constraint rows -omega(q_next)/h are
    constant over the solve.
    """
    n = model.n
    om = model.omega(q_next)
    omT = _columns(om, n)
    right = [list(map(neg, col)) for col in omT]
    bottom = [[-a / h for a in row] + [0.0] * len(om) for row in om]

    def residual(z):
        u = z[:n]
        lam = z[n:]
        r = [p - d - _dot(col, lam) for p, d, col in zip(p_next, Ld.d2(u, q_next, h), omT)]
        w = [(a - b) / h for a, b in zip(u, q_next)]
        return r + [-_dot(row, w) for row in om]

    def jac(z):
        cols = zip(*Ld.d1_dv(z[:n], q_next, h))
        return [[-a for a in col] + c for col, c in zip(cols, right)] + bottom

    return residual, jac


def step_minus(
    Ld: DiscreteLagrangian,
    model: MechanicalModel,
    q_next,
    p_next,
    h: float,
    opts: NewtonOptions = DEFAULT_NEWTON_OPTIONS,
) -> MinusStepResult:
    """One backward step: recover the previous node from (q_{k+1}, p_{k+1}).

    Solves p_{k+1} - d2(u, q_{k+1}, h) in the constraint span together with
    the backward discrete constraint (`_minus_system`), then reads off
    q_k = u and p_k = -d1(u, q_{k+1}, h).  Exact inverse of the forward step
    for unconstrained systems, where the residual is linear in u.  For a
    constrained model it inverts the forward step only to O(h^2): the
    constraint rows and forces sit at q_{k+1}, not at q_k, and p_k leaves
    out the forward node's constraint force omega^T(q_k) lambda_k.
    """
    residual, jac = _minus_system(Ld, model, q_next, p_next, h)
    res = newton_solve(residual, [*q_next, *[0.0] * model.m_con], opts, jac=jac)
    _require_converged(res, "step-minus", -1, math.nan)
    n = model.n
    u = res.x[:n]
    return MinusStepResult(
        q_prev=u, p_prev=[-x for x in Ld.d1(u, q_next, h)], lam=res.x[n:]
    )


def _impact_a_system(Ld, model, q_k, p_k, h):
    """Residual and Jacobian of the phase-A equations (module doc) over the
    unknown z = [alpha, w_in, lambda_A]; the solver's and the records' one
    copy.  The w block is the first block of `d13_dw` at s = alpha h in the
    momentum rows, omega(q_k) in the constraint rows and s grad c(q~) in the
    gap row, and the lambda columns are the constant -omega^T(q_k).  Only the
    alpha column is differenced, by `numerics.fd_jacobian` on the residual
    in alpha alone, with the step of a full central-difference Jacobian's
    first column."""
    n = model.n
    m = model.m_con
    gap = model.boundary_gap
    gap_grad = model.boundary_gap_grad
    d1_w = Ld.d1_w
    d13_dw = Ld.d13_dw
    pad = [0.0] * m
    if m:
        om_k = model.omega(q_k)
        omT_k = _columns(om_k, n)
        # the lambda columns and constraint rows are constant over the solve
        right = [list(map(neg, col)) for col in omT_k]
        bottom = [list(row) + pad for row in om_k]

    def residual_a(z):
        s = z[0] * h
        w, lam = z[1 : 1 + n], z[1 + n :]
        r = [f + p for f, p in zip(d1_w(q_k, w, s), p_k)]
        if m:
            r = [a - _dot(col, lam) for a, col in zip(r, omT_k)]
            r += [_dot(row, w) for row in om_k]
        r.append(gap([a + s * b for a, b in zip(q_k, w)]))
        return r

    def jac_a(z):
        s = z[0] * h
        w, tail = z[1 : 1 + n], z[1:]
        # through the module, so that a replaced numerics.fd_jacobian is called
        d_alpha = numerics.fd_jacobian(lambda x: residual_a(x + tail), z[:1])
        J = d13_dw(q_k, w, s)[0]
        if m:
            J = [row + c for row, c in zip(J, right)] + bottom
        J.append([s * g for g in gap_grad([a + s * b for a, b in zip(q_k, w)])] + pad)
        return [[a, *row] for a, row in zip(d_alpha.ravel().tolist(), J)]

    return residual_a, jac_a


def _impact_b_system(Ld, model, q_tilde, ET, p_tilde, d3_pre, s2):
    """Residual and analytic Jacobian of the phase-B equations (module doc)
    over the unknown z = [w_out, lambda_B], on the second sub-step
    s2 = (1 - alpha) h.  `ET` holds the n - 1 rows of the boundary
    restriction E^T as float sequences (`frame.ET`), so the residual and
    the Jacobian rows are lists of floats."""
    n = model.n
    m = model.m_con
    d1_w = Ld.d1_w
    d3_w = Ld.d3_w
    d13_dw = Ld.d13_dw
    if m:
        om_t = model.omega(q_tilde)
        omT_t = _columns(om_t, n)
        # the lambda columns and constraint rows are constant over the solve
        right = [[0.0] * m] + [[-_dot(e, row) for row in om_t] for e in ET]
        bottom = [list(row) + [0.0] * m for row in om_t]

    def residual_b(z):
        u, lam = z[:n], z[n:]
        force = d1_w(q_tilde, u, s2)
        if m:
            force = [f - _dot(col, lam) for f, col in zip(force, omT_t)]
        r = [d3_pre - d3_w(q_tilde, u, s2)]
        r += [_dot(e, force) + p for e, p in zip(ET, p_tilde)]
        if m:
            r += [_dot(row, u) for row in om_t]
        return r

    def jac_b(z):
        dd1, dd3 = d13_dw(q_tilde, z[:n], s2)
        cols = list(zip(*dd1))
        J = [[-x for x in dd3]] + [[_dot(e, c) for c in cols] for e in ET]
        return [row + c for row, c in zip(J, right)] + bottom if m else J

    return residual_b, jac_b


def _law_line(model, frame, w_in):
    """The line of the model's elastic impact law at frame.q_tilde.

    Returns (d, l, Md) as lists of floats: the kernel direction (d, l) of
    the bordered system [[E^T M, E^T omega^T], [omega, 0]] (module doc),
    with M = Lvv(q~, w_in), and Md = M d.  The kernel comes from one square
    solve: the row [grad c^T, 0] with right-hand side 1 normalises
    grad c . d = 1.  The bordered system is assembled from the frame's
    float rows and solved by `numerics._solve_linear`: over floats when it
    is 3 x 3 (every built-in model but the particle), otherwise by the
    law's one numpy call, `np.linalg.solve`.  When it is singular no kernel
    direction crosses the boundary, and None is returned.
    """
    n = model.n
    m = model.m_con
    M = model.d2L(frame.q_tilde, w_in)[2]
    om = model.omega(frame.q_tilde)
    pad = [0.0] * m
    K = [[_dot(e, c) for c in zip(*M)] + [_dot(e, row) for row in om] for e in frame.ET]
    K += [list(row) + pad for row in om]
    K.append([*frame.normal, *pad])
    rhs = [0.0] * (n + m)
    rhs[-1] = 1.0
    try:
        # through the module, so that a replaced numerics._solve_linear is called
        kernel = numerics._solve_linear(K, rhs)
    except SingularJacobian:
        return None
    d = kernel[:n]
    return d, kernel[n:], [_dot(row, d) for row in M]


def _law_mu(line, u):
    """The law's jump coefficient at velocity u: kinetic-energy equality
    on the line u + mu d gives mu = -2 (Md . u) / (d . Md)."""
    d, _, Md = line
    return -2.0 * _dot(Md, u) / _dot(Md, d)


def _arc_seed_b(Ld, frame, line, d3_pre, u_minus, drift, s2):
    """The phase-B seed on the law's line through the impact-instant
    velocity u_minus: w = u_minus + mu d + drift, lambda = mu l.

    `drift` is the pre-impact arc's velocity change over the part of the
    second sub-step before its velocity point.  The energy row
    d3_pre - d3_w(q~, w, s2) is sampled at mu = 0, mu_c / 2 and mu_c, where
    mu_c is the continuous law's coefficient at u_minus (finite: the caller
    checks the law), and mu is the larger root of the quadratic through the
    three samples: the one with the larger normal rate, as grad c . d = 1.
    (The root nearer mu_c can be the penetrating one: near grazing, the
    O(h) energy terms of the sub-steps move both roots by as much as mu_c.)
    When the samples have no real root, mu is mu_c.  Returns [w, lambda] as
    a list of floats.
    """
    d, l, _ = line
    mu_c = _law_mu(line, u_minus)
    base = [a + b for a, b in zip(u_minus, drift)]
    q_tilde = frame.q_tilde
    d3_w = Ld.d3_w

    def energy(x):
        mu = x * mu_c
        return d3_pre - d3_w(q_tilde, [a + mu * b for a, b in zip(base, d)], s2)

    # e(x) = A x^2 + B x + C over x = mu / mu_c through x = 0, 1/2, 1
    c0, e_half, e_one = energy(0.0), energy(0.5), energy(1.0)
    A = 2.0 * (e_one - 2.0 * e_half + c0)
    B = e_one - c0 - A
    disc = B * B - 4.0 * A * c0
    mu = mu_c
    # written so that a NaN sample, or no real root, keeps mu_c
    if disc >= 0.0 and A != 0.0:
        big = -0.5 * (B + math.copysign(math.sqrt(disc), B))
        roots = (big / A, c0 / big) if big else (big / A,)
        mu = max(x * mu_c for x in roots)
    return [a + mu * b for a, b in zip(base, d)] + [mu * x for x in l]


def _attempt_impact(Ld, model, q_k, p_k, h, rejected_q, opts, k, t_k, prev=None):
    n = model.n
    m = model.m_con
    gap = model.boundary_gap
    # The phases are solved over discrete velocities w (configurations
    # reconstructed as q + s w): forming (v - q)/s from a solved v costs five
    # digits at impact sub-steps.

    # PHASE A: impact fraction, boundary point and multipliers.
    residual_a, jac_a = _impact_a_system(Ld, model, q_k, p_k, h)
    c = Ld.velocity_point
    c_k = gap(q_k)
    c_v = gap(rejected_q)
    alpha0 = c_k / (c_k - c_v)
    w0 = [(b - a) / h for a, b in zip(q_k, rejected_q)]
    if prev is not None and c_k > 0.0:
        # on the pre-impact arc (module doc): w(x) = w0 - (1 - x) dw, and one
        # false-position step on g(x) = c(q_k + x h w(x)) from the chord's
        # crossing, inside the bracket g(0) = c_k > 0 > g(1) = c_v
        dw = [c * (w - (a - b) / h) for w, a, b in zip(w0, q_k, prev.q)]
        w_x = [w - (1.0 - alpha0) * d for w, d in zip(w0, dw)]
        g = gap([a + alpha0 * h * b for a, b in zip(q_k, w_x)])
        if g > 0.0:
            alpha0 += g * (1.0 - alpha0) / (g - c_v)
        elif g < 0.0:
            alpha0 *= c_k / (c_k - g)
        w0 = [w - (1.0 - alpha0) * d for w, d in zip(w0, dw)]
    z0 = [alpha0, *w0, *[0.0] * m]
    res_a = newton_solve(residual_a, z0, opts, jac=jac_a)
    _require_converged(res_a, "impact-A", k, t_k)
    alpha = res_a.x[0]
    if not 0.0 < alpha < 1.0:
        raise AlphaOutOfRange(alpha=alpha, k=k, t=t_k)
    s1 = alpha * h
    lambda_a = res_a.x[1 + n :]
    w_in = res_a.x[1 : 1 + n]
    q_tilde = [a + s1 * b for a, b in zip(q_k, w_in)]
    s2 = (1.0 - alpha) * h

    # The pre-impact arc: with node k - 1 known, the velocity moves from
    # w_prev = (q_k - q_{k-1}) / h to w_in, whose velocity points lie
    # (1 - c) h + c s1 apart, so its constant acceleration is acc.  Without
    # it (k = 0, or an impact at step k - 1) the arc is taken as straight.
    acc = [0.0] * n
    if prev is not None:
        lag = (1.0 - c) * h + c * s1
        acc = [(w - (a - b) / h) / lag for w, a, b in zip(w_in, q_k, prev.q)]

    # PHASE B: momentum transfer and post-impact discrete velocity.
    frame = boundary_frame(model, q_tilde)
    d2_pre = Ld.d2_w(q_k, w_in, s1)
    p_tilde = pullback_cotangent(frame, d2_pre)
    compat_residual = _norm([a - b for a, b in zip(push_cotangent(frame, p_tilde), d2_pre)])
    d3_pre = Ld.d3_w(q_k, w_in, s1)
    residual_b, jac_b = _impact_b_system(Ld, model, q_tilde, frame.ET, p_tilde, d3_pre, s2)
    line = _law_line(model, frame, w_in)
    law_rate = _dot(frame.normal, w_in)
    # a singular law, or one without a finite coefficient, seeds no jump
    z0 = w_in + [0.0] * m
    if line is not None:
        mu = _law_mu(line, w_in)
        law_rate += mu
        if math.isfinite(mu):
            # on the law's line through the arc's velocity at the impact instant
            u_minus = [w + (1.0 - c) * s1 * x for w, x in zip(w_in, acc)]
            z0 = _arc_seed_b(Ld, frame, line, d3_pre, u_minus, [c * s2 * x for x in acc], s2)
    res_b = newton_solve(residual_b, z0, opts, jac=jac_b)
    _require_converged(res_b, "impact-B", k, t_k)
    w_out = res_b.x[:n]
    rate = _dot(frame.normal, w_out)
    if rate <= 0.0:
        if law_rate <= 0.0:
            raise NoElasticRebound(law_rate=law_rate, k=k, t=t_k)
        raise RootSelectionAmbiguous(rate=rate, law_rate=law_rate, k=k, t=t_k)
    lambda_b = res_b.x[n:]
    v_tilde = [a + s2 * b for a, b in zip(q_tilde, w_out)]
    energy_jump = abs(d3_pre - Ld.d3_w(q_tilde, w_out, s2))

    # PHASE C: momentum and configuration after the second sub-step.
    p_next = Ld.d2_w(q_tilde, w_out, s2)
    q_next = v_tilde

    # PHASE D: full-step constrained solve from the post-impact node, whose
    # velocity point lies (1 - c) s2 + c h past w_out's on the arc.
    lead = (1.0 - c) * s2 + c * h
    z0 = [a + h * (w + lead * x) for a, w, x in zip(v_tilde, w_out, acc)] + lambda_b
    new_state, res_d = _solve_step(Ld, model, q_next, p_next, h, z0, opts, "impact-D", k, t_k)

    event = ImpactEvent(
        k=k,
        alpha=alpha,
        t_impact=t_k + alpha * h,
        q_tilde=q_tilde,
        v_tilde=v_tilde,
        w_in=w_in,
        w_out=w_out,
        p_tilde=p_tilde,
        lambda_A=lambda_a,
        lambda_B=lambda_b,
        compat_residual=compat_residual,
        energy_jump=energy_jump,
    )
    records = [
        (k, "impact-A", res_a.iterations, res_a.residual_norm),
        (k, "impact-B", res_b.iterations, res_b.residual_norm),
        (k, "impact-D", res_d.iterations, res_d.residual_norm),
    ]
    return event, new_state, records


def _resolve_impact_impl(Ld, model, q_k, p_k, h, rejected_q, opts, k, t_k, prev=None):
    if model.boundary_gap(rejected_q) >= 0:
        raise ValueError("rejected configuration does not penetrate the boundary")
    if model.boundary_gap(q_k) < -GRAZING_TOL:
        raise ValueError("impact resolution requires an admissible pre-impact node")
    event, state, records = _attempt_impact(
        Ld, model, q_k, p_k, h, rejected_q, opts, k, t_k, prev
    )
    gap = model.boundary_gap(state.q)
    if gap < -GRAZING_TOL:
        raise PersistentPenetration(k=k, t=t_k, gap=gap)
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "impact at k=%d: alpha=%.6f t=%.6g energy_jump=%.3e compat=%.3e",
            k,
            event.alpha,
            event.t_impact,
            event.energy_jump,
            event.compat_residual,
        )
    return event, state, records


def resolve_impact(
    Ld: DiscreteLagrangian,
    model: MechanicalModel,
    q_k,
    p_k,
    h: float,
    rejected_q,
    opts: NewtonOptions = DEFAULT_NEWTON_OPTIONS,
    k: int = 0,
    t_k: float = 0.0,
    prev: State | None = None,
):
    """Resolve one elastic collision; returns (ImpactEvent, next State).

    `prev`, the node before (q_k, p_k), gives the pre-impact arc that
    phases A, B and D start from (module doc); without it phase A starts
    from the chord to `rejected_q` and phases B and D take the arc as
    straight, as `step_plus` without `prev` takes it.  The seeds change
    only where Newton starts; only `prev.q` is read.
    """
    event, state, _ = _resolve_impact_impl(
        Ld, model, q_k, p_k, h, rejected_q, opts, k, t_k, prev
    )
    return event, state


def step_count(t0: float, t_final: float, h: float) -> int:
    """The number of steps `simulate` runs, round((t_final - t0) / h); a
    time span it cannot run is a ParameterError naming "h" or "t_final"."""
    if not (math.isfinite(h) and h > 0):
        raise ParameterError("h", f"must be finite and positive, got {h}")
    if not (math.isfinite(t_final) and t_final > t0):
        raise ParameterError("t_final", f"must be finite and exceed t0={t0}, got {t_final}")
    steps = (t_final - t0) / h
    if not (math.isfinite(steps) and round(steps) >= 1):
        raise ParameterError(
            "h",
            f"must give at least one, and finitely many, steps over the time span "
            f"[{t0}, {t_final}], got {h} ({steps:.6g} steps)",
        )
    return round(steps)


def simulate(
    Ld: DiscreteLagrangian,
    model: MechanicalModel,
    q0_cont,
    v0_cont,
    t0: float,
    t_final: float,
    h: float,
    opts: NewtonOptions = DEFAULT_NEWTON_OPTIONS,
) -> Trajectory:
    """Run the forward scheme on [t0, t_final] with elastic collisions.

    Each iteration checks the admissibility of the candidate configuration
    q_{k+1} = v_k before the smooth solve; a penetrating candidate is deleted
    and the impact is resolved instead (at most one collision per step, with
    the phase-A node replacing the deleted v_k in the stored trajectory).
    The columns of the trajectory are allocated once, n_steps + 1 rows.
    The nodes in between are lists of Python floats, from
    `initial_discretize` on: past the dense solve of each Newton iteration,
    numpy only receives each node once, as the row writes.

    A typed error (NhviError) raised by step k carries node k, as it stood
    before the step, as `exc.state`, and node k - 1 as `exc.prev` when step
    k - 1 was smooth (None at k = 0 and after an impact).
    """
    n_steps = step_count(t0, t_final, h)

    q0, v0, p0 = initial_discretize(model, Ld.rule, q0_cont, v0_cont, h)
    n_rows = n_steps + 1
    t = np.empty(n_rows)
    q = np.empty((n_rows, model.n))
    v = np.empty((n_rows, model.n))
    p = np.empty((n_rows, model.n))
    lam = np.empty((n_rows, model.m_con))
    state = State(k=0, t=t0, q=q0, v=v0, p=p0, lam=[0.0] * model.m_con)
    t[0], q[0], v[0], p[0], lam[0] = t0, q0, v0, p0, state.lam
    impacts: List[ImpactEvent] = []
    stats = SolverStats()
    gap = model.boundary_gap
    # node k - 1 when step k - 1 was smooth, for the quadratic seed and the
    # arc seeds of an impact; None at k = 0 and after an impact, which
    # rewrote that node's v and lam
    prev = None

    try:
        for k in range(n_steps):
            if gap(state.v) < -GRAZING_TOL:
                event, new_state, records = _resolve_impact_impl(
                    Ld, model, state.q, state.p, h, state.v, opts, k, state.t, prev
                )
                # the penetrating v_k is deleted; the phase-A boundary node
                # is the actual trajectory value of this slot
                v[k] = event.q_tilde
                lam[k] = event.lambda_A
                impacts.append(event)
                for rec in records:
                    stats.record(*rec)
                prev = None
            else:
                new_state, res = _step_plus_impl(Ld, model, state, h, opts, prev)
                stats.record(k, "step", res.iterations, res.residual_norm)
                prev = state
            i = k + 1
            t[i] = new_state.t
            q[i] = new_state.q
            v[i] = new_state.v
            p[i] = new_state.p
            lam[i] = new_state.lam
            state = new_state
    except NhviError as exc:
        # the nodes the failing step started from
        exc.state = state
        exc.prev = prev
        raise

    return Trajectory(t, q, v, p, lam, impacts, h, stats)

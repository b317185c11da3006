"""Discrete Lagrangians, their partials, and discrete constraint maps.

Two quadrature rules are supported.  The midpoint rule evaluates the
continuous Lagrangian at the segment midpoint,

    Ld(q, v, h) = h * L((q + v) / 2, (v - q) / h),

and the retraction-left rule evaluates it at the base point,

    Ld(q, v, h) = h * L(q, (v - q) / h).

Here (q, v) are two configurations one step apart; v is the *next
configuration*, not a velocity.  The partials d1 (w.r.t. q), d2 (w.r.t. v)
and d3 (w.r.t. h) are assembled analytically by the chain rule from the
model's Lagrangian partials, and their Jacobians from its Hessian blocks:
they sit inside Newton residuals, where finite differences of finite
differences would square the noise.  Each partial is written once, over
the discrete velocity w = (v - q)/h.

The timestep is a live argument everywhere because impact resolution
evaluates the same objects on the sub-steps alpha*h and (1-alpha)*h.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, InvalidInitialState
from .geometry import GRAZING_TOL, MechanicalModel
from .numerics import _dot, as_vector

RULES = ("midpoint", "retraction-left")
# the fraction c of a sub-step where the discrete velocity is the true one
# under constant acceleration (`DiscreteLagrangian.velocity_point`)
VELOCITY_POINT = {"midpoint": 0.5, "retraction-left": 1.0}


class DiscreteLagrangian:
    """Evaluator for Ld(q, v, h), its partials and their Jacobians.

    Each rule defines `eval` and the velocity-form partials `d1_w`, `d2_w`,
    `d3_w` over (q, w, h) with v = q + h w implicit, which the impact
    sub-step solves use: forming (v - q)/h from a reconstructed v would lose
    five digits to cancellation.  `d1`, `d2`, `d3` over (q, v, h) are the
    same functions at w = (v - q)/h.  From the model's Hessian blocks,
    `d1_dv` is the Jacobian of d1 in v (smooth steps, phase D) and `d13_dw`
    those of d1_w and d3_w in w (the phase-A and phase-B impact solves).

    Everything is written over Python floats: the vector partials return
    sequences of floats, `d3`/`d3_w` a float, and the Jacobians lists of
    row lists.  No partial calls numpy: the dL/dv . w of `d3_w`, like every
    row of `d13_dw`, is the left-to-right sum `numerics._dot`.

    `velocity_point` is the fraction c of a sub-step [t, t + s] at which
    the rule's discrete velocity equals the true velocity under constant
    acceleration, w = u(t + c s): 1/2 for midpoint, 1 for retraction-left.
    The impact solver extrapolates the pre-impact arc with it.
    """

    def __init__(self, model: MechanicalModel, rule: str):
        if rule not in RULES:
            raise ValueError(f"unknown discretization rule {rule!r}; expected one of {RULES}")
        self.rule = rule
        self.velocity_point = VELOCITY_POINT[rule]

        L = model.lagrangian
        Lq = model.dL_dq
        Lv = model.dL_dv
        hess = model.d2L

        if rule == "midpoint":

            def _eval(q, v, h):
                mid = [0.5 * (a + b) for a, b in zip(q, v)]
                return h * L(mid, [(b - a) / h for a, b in zip(q, v)])

            def _d1_w(q, w, h):
                half = 0.5 * h
                mid = [a + half * b for a, b in zip(q, w)]
                return [half * a - b for a, b in zip(Lq(mid, w), Lv(mid, w))]

            def _d2_w(q, w, h):
                half = 0.5 * h
                mid = [a + half * b for a, b in zip(q, w)]
                return [half * a + b for a, b in zip(Lq(mid, w), Lv(mid, w))]

            def _d3_w(q, w, h):
                half = 0.5 * h
                mid = [a + half * b for a, b in zip(q, w)]
                return L(mid, w) - _dot(Lv(mid, w), w)

            def _d1_dv(q, v, h):
                half = 0.5 * h
                w = [(b - a) / h for a, b in zip(q, v)]
                lqq, lqv, lvv = hess([a + half * b for a, b in zip(q, w)], w)
                quarter = 0.25 * h
                return [
                    [quarter * a + 0.5 * b - 0.5 * bt - c / h
                     for a, b, bt, c in zip(ra, rb, rbt, rc)]
                    for ra, rb, rbt, rc in zip(lqq, lqv, zip(*lqv), lvv)
                ]

            def _d13_dw(q, w, h):
                half = 0.5 * h
                mid = [a + half * b for a, b in zip(q, w)]
                lqq, lqv, lvv = hess(mid, w)
                hh = half * half
                dd1 = [
                    [hh * a + half * (b - bt) - c for a, b, bt, c in zip(ra, rb, rbt, rc)]
                    for ra, rb, rbt, rc in zip(lqq, lqv, zip(*lqv), lvv)
                ]
                dd3 = [
                    half * a - half * _dot(rb, w) - _dot(rc, w)
                    for a, rb, rc in zip(Lq(mid, w), lqv, lvv)
                ]
                return dd1, dd3

        else:  # retraction-left

            def _eval(q, v, h):
                return h * L(q, [(b - a) / h for a, b in zip(q, v)])

            def _d1_w(q, w, h):
                return [h * a - b for a, b in zip(Lq(q, w), Lv(q, w))]

            def _d2_w(q, w, h):
                return Lv(q, w)

            def _d3_w(q, w, h):
                return L(q, w) - _dot(Lv(q, w), w)

            def _d1_dv(q, v, h):
                lqq, lqv, lvv = hess(q, [(b - a) / h for a, b in zip(q, v)])
                return [[b - c / h for b, c in zip(rb, rc)] for rb, rc in zip(lqv, lvv)]

            def _d13_dw(q, w, h):
                lqq, lqv, lvv = hess(q, w)
                dd1 = [[h * b - c for b, c in zip(rb, rc)] for rb, rc in zip(lqv, lvv)]
                return dd1, [-_dot(rc, w) for rc in lvv]

        self.eval = _eval
        self.d1_w = _d1_w
        self.d2_w = _d2_w
        self.d3_w = _d3_w
        # the closures, not self.d1_w: a wrapped d1_w must not count d1 calls
        self.d1 = lambda q, v, h: _d1_w(q, [(b - a) / h for a, b in zip(q, v)], h)
        self.d2 = lambda q, v, h: _d2_w(q, [(b - a) / h for a, b in zip(q, v)], h)
        self.d3 = lambda q, v, h: _d3_w(q, [(b - a) / h for a, b in zip(q, v)], h)
        self.d1_dv = _d1_dv
        self.d13_dw = _d13_dw


def make_discrete_lagrangian(model: MechanicalModel, rule: str) -> DiscreteLagrangian:
    return DiscreteLagrangian(model, rule)


def omega_dplus(model: MechanicalModel, q, v, h: float) -> list:
    """Constraint one-forms evaluated on the discrete velocity from q to v.

    Zero iff the configuration pair lies in the forward discrete constraint
    distribution.  Returns an empty list for unconstrained models.
    """
    w = [(b - a) / h for a, b in zip(q, v)]
    return [_dot(row, w) for row in model.omega(q)]


def omega_dminus(model: MechanicalModel, v, q, h: float) -> list:
    """Backward discrete constraint map: sign-flipped omega_dplus with the
    base point in the second slot."""
    return [-x for x in omega_dplus(model, q, v, h)]


def discrete_energy(Ld: DiscreteLagrangian, q, v, h: float) -> float:
    """Energy diagnostic -d3(q, v, h).

    Equals dL/dv . w - L evaluated at the rule's base point with the
    discrete velocity w = (v - q)/h.  This is the quantity the elastic
    impact conditions match exactly across a collision, so it is the right
    conserved diagnostic (continuous energy at a reconstructed velocity is
    not).
    """
    return -Ld.d3(q, v, h)


def initial_discretize(
    model: MechanicalModel,
    rule: str,
    q0_cont: np.ndarray,
    v0_cont: np.ndarray,
    h: float,
):
    """Convert continuous initial conditions (q(0), v(0)) to discrete ones.

    Midpoint rule centers the first segment on q(0):

        q_0 = q(0) - (h/2) v(0),  v_0 = q(0) + (h/2) v(0).

    The retraction-left rule keeps the base point and retracts the scaled
    velocity: q_0 = q(0), v_0 = q(0) + h v(0).

    Returns (q_0, v_0, p_0) with p_0 = d2(q_0, v_0, h), as lists of
    floats: the integrator's float arithmetic starts here.
    """
    q0_cont = as_vector(q0_cont, "q(0)")
    v0_cont = as_vector(v0_cont, "v(0)")
    if q0_cont.shape != (model.n,) or v0_cont.shape != (model.n,):
        raise DimensionMismatch(
            f"initial condition shapes {q0_cont.shape}, {v0_cont.shape} "
            f"do not match model dimension {model.n}"
        )
    if model.boundary_gap(q0_cont) <= 0:
        raise InvalidInitialState(
            f"q(0)={q0_cont} is not in the interior of the admissible set"
        )
    Ld = DiscreteLagrangian(model, rule)
    if rule == "midpoint":
        q0 = q0_cont - 0.5 * h * v0_cont
        v0 = q0_cont + 0.5 * h * v0_cont
    else:  # retraction-left
        q0 = q0_cont
        v0 = q0_cont + h * v0_cont
    q0, v0 = q0.tolist(), v0.tolist()
    for label, point in (("q_0", q0), ("v_0", v0)):
        if model.boundary_gap(point) < -GRAZING_TOL:
            raise InvalidInitialState(
                f"discretized {label}={np.array(point)} leaves the admissible set"
            )
    p0 = Ld.d2(q0, v0, h)
    return q0, v0, p0

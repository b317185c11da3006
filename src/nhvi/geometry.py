"""Mechanical-model interface: configuration data, constraints, boundary geometry.

A model bundles everything the integrator needs about one system: the
Lagrangian and its velocity/position partials, the constraint one-forms, a
scalar gap function describing the admissible set (positive inside, zero on
the collision surface, negative outside) and the tangent-basis/projection
pair on the boundary.

The boundary tangent basis E (n x (n-1)) and the projection P ((n-1) x n), a
left inverse of E, are model data, so each model ships its own closed-form
pair.  The impact map depends on E alone: phase B reads only E^T.  P enters
only the diagnostic `compat_residual`, through push_cotangent, so another
left inverse of the same E leaves every trajectory unchanged.  Boundary
covectors are stored as coefficient tuples against the dual basis of E's
columns, which makes the cotangent transfer maps plain matrix transposes:
pull-back is E^T and push-forward is P^T.  A frame holds Python floats, and
`boundary_frame` alone turns the model's callables into one; pull-back and
push-forward are `_dot` sums over its rows, with no numpy call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .errors import DegenerateFrame, NotOnBoundary
from .numerics import _columns, _dot

# c(q) >= -GRAZING_TOL counts as admissible; avoids impact solves on round-off
GRAZING_TOL = 1e-12
# |c(q)| below this counts as "on the boundary" for frame assembly
FRAME_GAP_TOL = 1e-8
# P.E must equal the identity to this tolerance, else the frame is degenerate
FRAME_IDENTITY_TOL = 1e-10


@dataclass(frozen=True)
class MechanicalModel:
    """Immutable descriptor of one mechanical system.

    Callables take configurations and velocities as sequences of floats.
    The built-in ones return a float (`lagrangian`, `boundary_gap`), tuples
    of floats (`dL_dq`, `dL_dv`), m row tuples (`omega`) and the Hessian
    blocks (Lqq, Lqv, Lvv) as tuples of row tuples (`d2L`), where
    Lqv[i, j] = d(dL/dq_i)/dv_j.  The boundary-frame callables return the
    gap gradient as a tuple (`boundary_gap_grad`), E as its n row tuples
    (`tangent_basis`) and P as its n - 1 row tuples (`projection`).  The
    integrator only indexes, iterates and zips them, so numpy arrays work
    too, at numpy's cost per call.  An impact builds one frame, whose E^T
    rows and normal phase B and the impact law read as they are.  The
    Newton Jacobians of the smooth steps and phases A and B come from
    `d2L` (phase A's alpha column apart), and phase B is seeded with the
    kinetic metric Lvv.  `params` is the record a built-in model was made
    from (`ParticleParams`, `Se2BodyParams` or `PendulumParams`); custom
    models may leave it None.
    """

    name: str
    n: int
    m_con: int
    coordinate_names: Sequence[str]
    lagrangian: Callable[[Sequence[float], Sequence[float]], float]
    dL_dq: Callable[[Sequence[float], Sequence[float]], Sequence[float]]
    dL_dv: Callable[[Sequence[float], Sequence[float]], Sequence[float]]
    d2L: Callable[[Sequence[float], Sequence[float]], tuple]
    omega: Callable[[Sequence[float]], Sequence[Sequence[float]]]
    boundary_gap: Callable[[Sequence[float]], float]
    boundary_gap_grad: Callable[[Sequence[float]], Sequence[float]]
    tangent_basis: Callable[[Sequence[float]], Sequence[Sequence[float]]]
    projection: Callable[[Sequence[float]], Sequence[Sequence[float]]]
    params: Any = None

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("configuration dimension must be at least 1")
        if self.m_con < 0:
            raise ValueError("number of constraint one-forms must be non-negative")
        if len(self.coordinate_names) != self.n:
            raise ValueError("coordinate_names must have length n")


@dataclass(frozen=True)
class BoundaryFrame:
    """Tangent basis, projection and outward data at one boundary point,
    as Python floats: `boundary_frame` is the one place that shapes them."""

    q_tilde: list
    ET: list  # the n-1 columns of E (n x (n-1)): tuples spanning the tangent space
    P: list  # (n-1) x n as row tuples, a left inverse of E
    normal: tuple  # gradient of the gap function at q_tilde


def boundary_frame(model: MechanicalModel, q_tilde: Sequence[float]) -> BoundaryFrame:
    """Assemble and validate the boundary frame at q_tilde, calling float()
    on every entry the model returns (numpy arrays give the same frame).

    Raises NotOnBoundary if a coordinate of q_tilde is not finite or
    |c(q_tilde)| is NaN or exceeds the frame tolerance, and DegenerateFrame
    if a shape is wrong, P.E differs from the identity (e.g. at a
    star-shape corner where the edge function is not differentiable) or is
    not finite, or the gap gradient has a non-finite entry.
    """
    q_tilde = [float(x) for x in q_tilde]
    if not all(map(math.isfinite, q_tilde)):
        raise NotOnBoundary(f"point {q_tilde} is not finite")
    c = model.boundary_gap(q_tilde)
    if not abs(c) <= FRAME_GAP_TOL:  # written so that a NaN gap fails the test
        raise NotOnBoundary(
            f"gap {c:.3e} at {q_tilde} exceeds boundary tolerance {FRAME_GAP_TOL:.0e}"
        )
    E = [tuple(map(float, row)) for row in model.tangent_basis(q_tilde)]
    P = [tuple(map(float, row)) for row in model.projection(q_tilde)]
    n = model.n
    shapes = [len(row) for row in E], [len(row) for row in P]
    if shapes != ([n - 1] * n, [n] * (n - 1)):
        raise DegenerateFrame(
            f"frame shapes inconsistent with n={n}: row lengths E{shapes[0]}, P{shapes[1]}"
        )
    ET = _columns(E, n - 1)
    # written so that a NaN entry of E or P fails the test
    if any(not abs(_dot(row, col) - (i == j)) <= FRAME_IDENTITY_TOL
           for i, row in enumerate(P) for j, col in enumerate(ET)):
        raise DegenerateFrame(
            f"projection is not a left inverse of the tangent basis at {q_tilde}"
        )
    normal = tuple(map(float, model.boundary_gap_grad(q_tilde)))
    if not all(map(math.isfinite, normal)):
        raise DegenerateFrame(f"gap gradient {normal} at {q_tilde} is not finite")
    return BoundaryFrame(q_tilde=q_tilde, ET=ET, P=P, normal=normal)


def pullback_cotangent(frame: BoundaryFrame, p: Sequence[float]) -> list:
    """Restrict a configuration-space covector to the boundary: E^T p.

    The result is the coefficient list of the restricted covector against
    the dual basis of E's columns.
    """
    if len(p) != len(frame.q_tilde):
        raise ValueError(f"covector length {len(p)} does not match n={len(frame.q_tilde)}")
    return [_dot(e, p) for e in frame.ET]


def push_cotangent(frame: BoundaryFrame, p_tilde: Sequence[float]) -> list:
    """Extend a boundary covector to configuration space: P^T p_tilde.

    pullback_cotangent(frame, push_cotangent(frame, p)) is the identity.
    """
    if len(p_tilde) != len(frame.P):
        raise ValueError(
            f"boundary covector length {len(p_tilde)} does not match n-1={len(frame.P)}"
        )
    return [_dot(col, p_tilde) for col in _columns(frame.P, len(frame.q_tilde))]


def omega_rank_deficiency(model: MechanicalModel, q: np.ndarray, tol: float = 1e-10) -> int:
    """Number of missing rows of rank in omega(q); 0 means full row rank."""
    if model.m_con == 0:
        return 0
    om = np.asarray(model.omega(q), dtype=float)
    rank = np.linalg.matrix_rank(om, tol=tol)
    return model.m_con - int(rank)


def transversality_margin(model: MechanicalModel, frame: BoundaryFrame) -> float:
    """Distance of the gap gradient from the boundary tangent span.

    A margin near zero means the level set is tangent to its own tangent
    basis, i.e. the boundary data is inconsistent.
    """
    E = np.reshape(frame.ET, (-1, len(frame.normal))).T
    coeffs, *_ = np.linalg.lstsq(E, frame.normal, rcond=None)
    residual = frame.normal - E @ coeffs
    return float(np.linalg.norm(residual))

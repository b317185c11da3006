"""Built-in mechanical systems: planar particle, SE(2) rigid body, pendulum.

Coordinate orders are fixed and load-bearing: every boundary matrix below
depends on them.

* particle      (x, y)       floor at y = 0
* se2_body      (theta, x, y)  rotating body over the floor, edge y = phi(theta)
* pendulum      (theta, phi)   spherical pendulum inside a cylinder

Angles are never wrapped: trajectories live on the covering space, and the
output files keep the raw values.  Wrapping mid-trajectory would break Newton
continuity and the difference-quotient discrete velocity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from .errors import DegenerateFrame, require
from .geometry import MechanicalModel

# star-shape edge function is not differentiable at multiples of pi/2
STAR_CORNER_TOL = 1e-8


@dataclass(frozen=True)
class ParticleParams:
    """Point-mass parameters.  Each record here owns its defaults and ranges,
    and every numeric field is finite: a value out of range, NaN or infinity
    included, raises ParameterError naming the field, and a configuration
    reports it at that field's key path."""

    mass: float = 1.0
    gravity: float = 9.8  # zero allowed: free motion is a useful test case

    def __post_init__(self):
        require(self, "mass", 0 < self.mass < math.inf, "0 < mass < inf")
        require(self, "gravity", 0 <= self.gravity < math.inf, "0 <= gravity < inf")


@dataclass(frozen=True)
class EllipseShape:
    """Principal semi-axes of an ellipse rotating about its center."""

    a: float = 1.0
    b: float = 0.5

    def __post_init__(self):
        require(self, "a", 0 < self.a < math.inf, "0 < a < inf")
        require(self, "b", 0 < self.b < math.inf, "0 < b < inf")


@dataclass(frozen=True)
class StarShape:
    """Four-point star of tip-to-tip length 2*l rotating about its center."""

    l: float = 1.0

    def __post_init__(self):
        require(self, "l", 0 < self.l < math.inf, "0 < l < inf")


@dataclass(frozen=True)
class Se2BodyParams:
    """Rigid-body parameters plus the choice of boundary projection.

    `contact_frame` selects the boundary tangent basis E that transfers
    momentum at the contact, and therefore which generalized impulse the
    collision applies (its projection only feeds `compat_residual`):

    * "vertical": tangent directions {d/dx, d/dtheta}, impulse along the
      floor normal dy.  The bounce leaves the spin rate unchanged; this is
      the variant that reproduces the reference bouncing-ellipse
      trajectories (one impact in two seconds, seventeen in twenty-five).
    * "edge-slope": tangent directions {d/dx, d/dtheta + phi'(theta) d/dy}
      of the contact level set, impulse along dy - phi'(theta) dtheta.  The
      bounce exchanges momentum between spin and vertical motion (the
      frictionless rigid-body impulse at the support point).
    """

    mass: float = 1.0
    gravity: float = 9.8
    shape: Union[EllipseShape, StarShape] = EllipseShape()
    inertia: float | None = None  # defaults to m (a^2 + b^2) / 4 for ellipses
    contact_frame: str = "vertical"

    def __post_init__(self):
        require(self, "mass", 0 < self.mass < math.inf, "0 < mass < inf")
        require(self, "gravity", 0 < self.gravity < math.inf, "0 < gravity < inf")
        if self.inertia is None and isinstance(self.shape, EllipseShape):
            # products, not **: a float power raises OverflowError, where an
            # overflowing product is inf and fails the check below
            a, b = self.shape.a, self.shape.b
            object.__setattr__(self, "inertia", self.mass * (a * a + b * b) / 4.0)
        ok = self.inertia is not None and 0 < self.inertia < math.inf
        require(self, "inertia", ok, "0 < inertia < inf (a star has no default)")
        frames = ("vertical", "edge-slope")
        require(self, "contact_frame", self.contact_frame in frames, f"contact_frame in {frames}")


def _default_constraint_gain(theta: float) -> float:
    return math.pi + math.cos(theta) ** 2


@dataclass(frozen=True)
class PendulumParams:
    mass: float = 1.0
    gravity: float = 9.8
    length: float = 2.0
    radius: float = 1.5
    f: Callable[[float], float] = field(default=_default_constraint_gain)

    def __post_init__(self):
        require(self, "mass", 0 < self.mass < math.inf, "0 < mass < inf")
        require(self, "gravity", 0 < self.gravity < math.inf, "0 < gravity < inf")
        require(self, "length", 0 < self.length < math.inf, "0 < length < inf")
        require(self, "radius", 0 < self.radius < self.length, "0 < radius < length")
        require(self, "f", abs(self.f(0.0) - self.f(math.pi)) <= 1e-9, "f(0) = f(pi)")


def make_particle(params: ParticleParams = ParticleParams()) -> MechanicalModel:
    """Point mass in the vertical plane bouncing on the floor y = 0."""
    m = params.mass
    g = params.gravity
    mg = m * g
    zero22 = ((0.0, 0.0), (0.0, 0.0))
    hessian = (zero22, zero22, ((m, 0.0), (0.0, m)))
    dLdq_const = (0.0, -mg)
    E = ((1.0,), (0.0,))
    P = ((1.0, 0.0),)
    grad_c = (0.0, 1.0)

    return MechanicalModel(
        name="particle",
        n=2,
        m_con=0,
        coordinate_names=("x", "y"),
        lagrangian=lambda q, v: 0.5 * m * (v[0] * v[0] + v[1] * v[1]) - mg * q[1],
        dL_dq=lambda q, v: dLdq_const,
        dL_dv=lambda q, v: (m * v[0], m * v[1]),
        omega=lambda q: (),
        boundary_gap=lambda q: q[1],
        boundary_gap_grad=lambda q: grad_c,
        tangent_basis=lambda q: E,
        projection=lambda q: P,
        params=params,
        d2L=lambda q, v: hessian,
    )


def _ellipse_edge(a: float, b: float):
    a2, b2 = a * a, b * b

    def phi(theta: float) -> float:
        s, c = math.sin(theta), math.cos(theta)
        return math.sqrt(a2 * s * s + b2 * c * c)

    def phi_dot(theta: float) -> float:
        s, c = math.sin(theta), math.cos(theta)
        return (a2 - b2) * s * c / math.sqrt(a2 * s * s + b2 * c * c)

    return phi, phi_dot


def _star_edge(l: float):
    def phi(theta: float) -> float:
        return l * (abs(math.sin(theta)) + abs(math.cos(theta)))

    def phi_dot(theta: float) -> float:
        s, c = math.sin(theta), math.cos(theta)
        if min(abs(s), abs(c)) < STAR_CORNER_TOL:
            raise DegenerateFrame(
                f"star edge slope undefined at corner angle theta={theta}"
            )
        return l * (math.copysign(1.0, s) * c - math.copysign(1.0, c) * s)

    return phi, phi_dot


def make_se2_body(params: Se2BodyParams = Se2BodyParams()) -> MechanicalModel:
    """Rigid body in the plane, rotating and bouncing on the floor.

    Coordinates (theta, x, y): rotation angle and position of the rotation
    axis.  The body edge sits at distance phi(theta) below the axis, so the
    admissible set is y >= phi(theta).
    """
    m = params.mass
    g = params.gravity
    iph = params.inertia
    if isinstance(params.shape, EllipseShape):
        phi, phi_dot = _ellipse_edge(params.shape.a, params.shape.b)
    else:
        phi, phi_dot = _star_edge(params.shape.l)

    mg = m * g
    dLdq_const = (0.0, 0.0, -mg)
    zero33 = ((0.0, 0.0, 0.0),) * 3
    hessian = (zero33, zero33, ((iph, 0.0, 0.0), (0.0, m, 0.0), (0.0, 0.0, m)))

    if params.contact_frame == "edge-slope":

        def tangent_basis(q):
            pd = phi_dot(q[0])
            return ((0.0, 1.0), (1.0, 0.0), (0.0, pd))

    else:
        E_vertical = ((0.0, 1.0), (1.0, 0.0), (0.0, 0.0))

        def tangent_basis(q):
            return E_vertical

    P = ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0))

    return MechanicalModel(
        name="se2_body",
        n=3,
        m_con=0,
        coordinate_names=("theta", "x", "y"),
        lagrangian=lambda q, v: 0.5 * m * (v[1] * v[1] + v[2] * v[2])
        + 0.5 * iph * v[0] * v[0]
        - mg * q[2],
        dL_dq=lambda q, v: dLdq_const,
        dL_dv=lambda q, v: (iph * v[0], m * v[1], m * v[2]),
        omega=lambda q: (),
        boundary_gap=lambda q: q[2] - phi(q[0]),
        boundary_gap_grad=lambda q: (-phi_dot(q[0]), 0.0, 1.0),
        tangent_basis=tangent_basis,
        projection=lambda q: P,
        params=params,
        d2L=lambda q, v: hessian,
    )


def make_pendulum(params: PendulumParams = PendulumParams()) -> MechanicalModel:
    """Spherical pendulum inside a cylinder, with the polar and azimuthal
    rates tied by a nonholonomic constraint v_phi = f(theta) v_theta.

    With f identically zero the constraint pins phi and the model reduces to
    a planar pendulum.
    """
    m = params.mass
    g = params.gravity
    length = params.length
    radius = params.radius
    f = params.f
    ml2 = m * length * length
    mgl = m * g * length

    def lagrangian(q, v):
        s, c = math.sin(q[0]), math.cos(q[0])
        v0, v1 = v[0], v[1]
        return 0.5 * ml2 * (v0 * v0 + v1 * v1 * s * s) - mgl * c

    def dL_dq(q, v):
        s, c = math.sin(q[0]), math.cos(q[0])
        v1 = v[1]
        return (ml2 * v1 * v1 * s * c + mgl * s, 0.0)

    def dL_dv(q, v):
        s = math.sin(q[0])
        return (ml2 * v[0], ml2 * s * s * v[1])

    def d2L(q, v):
        s, c = math.sin(q[0]), math.cos(q[0])
        v1 = v[1]
        lqq = ((ml2 * v1 * v1 * (c * c - s * s) + mgl * c, 0.0), (0.0, 0.0))
        lqv = ((0.0, 2.0 * ml2 * v1 * s * c), (0.0, 0.0))
        lvv = ((ml2, 0.0), (0.0, ml2 * s * s))
        return lqq, lqv, lvv

    E = ((0.0,), (1.0,))
    P = ((0.0, 1.0),)

    return MechanicalModel(
        name="pendulum",
        n=2,
        m_con=1,
        coordinate_names=("theta", "phi"),
        lagrangian=lagrangian,
        dL_dq=dL_dq,
        dL_dv=dL_dv,
        omega=lambda q: ((f(q[0]), -1.0),),
        # |sin| lifts the wall to the covering space: the cylinder constrains
        # the distance from the axis on both sides of the pole
        boundary_gap=lambda q: radius - length * abs(math.sin(q[0])),
        boundary_gap_grad=lambda q: (
            -length * math.copysign(1.0, math.sin(q[0])) * math.cos(q[0]), 0.0
        ),
        tangent_basis=lambda q: E,
        projection=lambda q: P,
        params=params,
        d2L=d2L,
    )


def sample_boundary_points(
    model: MechanicalModel, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Random points on the collision surface of a built-in model.

    Used by the validation suites; star corners are avoided because the
    frame is undefined there.
    """
    if model.name == "particle":
        xs = rng.uniform(-5.0, 5.0, count)
        return np.column_stack([xs, np.zeros(count)])
    if model.name == "se2_body":
        pts = np.empty((count, 3))
        is_star = isinstance(model.params.shape, StarShape)
        for i in range(count):
            while True:
                theta = rng.uniform(0.0, 2.0 * math.pi)
                if not is_star or min(
                    abs(math.sin(theta)), abs(math.cos(theta))
                ) > 0.05:
                    break
            q = np.array([theta, rng.uniform(-5.0, 5.0), 0.0])
            q[2] = q[2] - model.boundary_gap(q)  # lift onto y = phi(theta)
            pts[i] = q
        return pts
    if model.name == "pendulum":
        ratio = model.params.radius / model.params.length
        base = math.asin(ratio)
        thetas = np.where(rng.random(count) < 0.5, base, math.pi - base)
        phis = rng.uniform(0.0, 2.0 * math.pi, count)
        return np.column_stack([thetas, phis])
    raise ValueError(f"no boundary sampler for model {model.name!r}")


def sample_interior_points(
    model: MechanicalModel, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Random points strictly inside the admissible set of a built-in model."""
    if model.name == "particle":
        return np.column_stack(
            [rng.uniform(-3.0, 3.0, count), rng.uniform(0.05, 4.0, count)]
        )
    if model.name == "se2_body":
        pts = sample_boundary_points(model, count, rng)
        pts[:, 2] += rng.uniform(0.05, 4.0, count)
        return pts
    if model.name == "pendulum":
        ratio = model.params.radius / model.params.length
        hi = math.pi - math.asin(ratio)  # bottom-cap boundary
        thetas = rng.uniform(hi + 0.05, math.pi - 0.01, count)
        phis = rng.uniform(0.0, 2.0 * math.pi, count)
        return np.column_stack([thetas, phis])
    raise ValueError(f"no interior sampler for model {model.name!r}")

import dataclasses

import numpy as np
import pytest

from nhvi import (
    EllipseShape,
    ParticleParams,
    PendulumParams,
    Se2BodyParams,
    StarShape,
    make_discrete_lagrangian,
    make_particle,
    make_pendulum,
    make_se2_body,
)

PENDULUM_Q0 = np.array([0.75 * np.pi, 0.0])
PENDULUM_V0 = np.array([0.25 * np.pi, 0.25 * (np.pi + 0.5) * np.pi])
ELLIPSE_Q0 = np.array([np.pi / 2, 0.0, 3.5])
ELLIPSE_V0 = np.array([-3.0, 2.0, 0.0])

# `valley_particle` puts a particle over the valley floor y = x^2.  It keeps
# the particle's tangent d/dx, so a bounce reflects only the vertical rate.
# Run from VALLEY_DOC, its first impact, at step 1, re-enters, but within the
# rest of that step the floor rises past the particle: the post-impact node
# lies 0.022 below it.  A PersistentPenetration outside the bounce corpus.
VALLEY_DOC = {
    "model": {"type": "particle"},
    "rule": "midpoint",
    "q0": [-0.1, 0.06],
    "v0": [5.0, -1.0],
    "t_final": 0.5,
    "h": 0.05,
}


def valley_particle(particle):
    return dataclasses.replace(
        particle,
        name="valley",
        boundary_gap=lambda q: q[1] - q[0] * q[0],
        boundary_gap_grad=lambda q: (-2.0 * q[0], 1.0),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)


@pytest.fixture
def particle():
    return make_particle(ParticleParams(mass=1.0, gravity=9.8))


@pytest.fixture
def free_particle():
    return make_particle(ParticleParams(mass=1.0, gravity=0.0))


@pytest.fixture
def ellipse_body():
    return make_se2_body(Se2BodyParams(shape=EllipseShape(a=1.0, b=0.5)))


@pytest.fixture
def ellipse_body_edge_slope():
    return make_se2_body(
        Se2BodyParams(shape=EllipseShape(a=1.0, b=0.5), contact_frame="edge-slope")
    )


@pytest.fixture
def star_body():
    return make_se2_body(Se2BodyParams(shape=StarShape(l=1.0), inertia=0.5))


@pytest.fixture
def pendulum():
    return make_pendulum(PendulumParams())


@pytest.fixture
def particle_mid(particle):
    return make_discrete_lagrangian(particle, "midpoint")


@pytest.fixture
def ellipse_mid(ellipse_body):
    return make_discrete_lagrangian(ellipse_body, "midpoint")


@pytest.fixture
def pendulum_left(pendulum):
    return make_discrete_lagrangian(pendulum, "retraction-left")

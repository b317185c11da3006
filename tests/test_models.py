import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nhvi import (
    EllipseShape,
    NewtonOptions,
    ParameterError,
    ParticleParams,
    PendulumParams,
    Se2BodyParams,
    StarShape,
    build_report,
    make_discrete_lagrangian,
    make_particle,
    make_pendulum,
    make_se2_body,
    simulate,
)
from nhvi.integrator import _step_system
from nhvi.models import sample_boundary_points
from nhvi.validation import run_all_checks


@pytest.mark.parametrize("make, params", [
    (make_particle, ParticleParams(gravity=0.0)),
    (make_se2_body, Se2BodyParams(shape=StarShape(l=1.0), inertia=0.5)),
    (make_pendulum, PendulumParams(length=3.0)),
], ids=["particle", "se2_body", "pendulum"])
def test_params_is_the_record_the_model_was_built_from(make, params):
    assert make(params).params is params


# every numeric field of every parameter record
NUMERIC_FIELDS = [
    (ParticleParams, "mass"), (ParticleParams, "gravity"),
    (EllipseShape, "a"), (EllipseShape, "b"), (StarShape, "l"),
    (Se2BodyParams, "mass"), (Se2BodyParams, "gravity"), (Se2BodyParams, "inertia"),
    (PendulumParams, "mass"), (PendulumParams, "gravity"),
    (PendulumParams, "length"), (PendulumParams, "radius"),
    (NewtonOptions, "tol"), (NewtonOptions, "max_iter"),
]


def test_numeric_fields_list_is_complete():
    records = {record for record, _ in NUMERIC_FIELDS}
    numeric = {
        (record, f.name) for record in records for f in dataclasses.fields(record)
        if f.type in ("float", "int", "float | None")
    }
    assert numeric == set(NUMERIC_FIELDS)


@pytest.mark.parametrize("record, field", NUMERIC_FIELDS, ids=lambda v: getattr(v, "__name__", v))
def test_records_reject_nan_naming_the_field(record, field):
    with pytest.raises(ValueError, match=f"^{field} ") as info:
        record(**{field: math.nan})
    assert isinstance(info.value, ParameterError) and info.value.field == field


@pytest.mark.parametrize("value", [math.inf, -math.inf], ids=["inf", "-inf"])
@pytest.mark.parametrize("record, field", NUMERIC_FIELDS, ids=lambda v: getattr(v, "__name__", v))
def test_records_reject_infinities_naming_the_field(record, field, value):
    # an infinite tolerance would let every Newton solve "converge" at its guess
    with pytest.raises(ParameterError, match=f"^{field} ") as info:
        record(**{field: value})
    assert info.value.field == field


@pytest.mark.parametrize("changes, match", [
    ({"n": 0}, "at least 1"),
    ({"m_con": -1}, "non-negative"),
    ({"coordinate_names": ("x",)}, "length n"),
], ids=["n-below-1", "negative-m_con", "coordinate_names-length"])
def test_mechanical_model_rejects_inconsistent_dimensions(particle, changes, match):
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(particle, **changes)


STAR = StarShape(l=1.0)
# every built-in model variant; `nhvi validate` is tested only on the bundled
# configurations, which have no star
VARIANTS = {
    "particle": (make_particle, ParticleParams()),
    "ellipse-vertical": (make_se2_body, Se2BodyParams()),
    "ellipse-edge-slope": (make_se2_body, Se2BodyParams(contact_frame="edge-slope")),
    "star-vertical": (make_se2_body, Se2BodyParams(shape=STAR, inertia=0.5)),
    "star-edge-slope": (make_se2_body, Se2BodyParams(shape=STAR, inertia=0.5,
                                                     contact_frame="edge-slope")),
    "pendulum": (make_pendulum, PendulumParams()),
    "pendulum-constant-gain": (make_pendulum, PendulumParams(f=lambda theta: 0.5)),
}


@pytest.mark.parametrize("rule", ["midpoint", "retraction-left"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_every_built_in_variant_validates(variant, rule):
    make, params = VARIANTS[variant]
    failed = [(name, detail) for name, passed, detail in run_all_checks(make(params), rule)
              if not passed]
    assert not failed


class TestParticle:
    def test_lagrangian_value(self, particle):
        assert particle.lagrangian(np.array([0.0, 1.0]), np.zeros(2)) == -9.8

    def test_floor_gap(self, particle):
        assert particle.boundary_gap(np.array([3.0, 0.0])) == 0.0
        assert particle.boundary_gap(np.array([0.0, 2.5])) == 2.5

    def test_unconstrained(self, particle):
        assert len(particle.omega(np.zeros(2))) == 0
        assert particle.m_con == 0

    def test_param_validation(self):
        with pytest.raises(ValueError):
            ParticleParams(mass=0.0)
        with pytest.raises(ValueError):
            ParticleParams(gravity=-1.0)
        # free motion is allowed
        assert make_particle(ParticleParams(gravity=0.0)).params.gravity == 0.0


class TestSe2Body:
    def test_ellipse_edge_profile(self, ellipse_body):
        phi0 = 3.5 - ellipse_body.boundary_gap(np.array([0.0, 0.0, 3.5]))
        phi90 = 3.5 - ellipse_body.boundary_gap(np.array([np.pi / 2, 0.0, 3.5]))
        assert abs(phi0 - 0.5) < 1e-12
        assert abs(phi90 - 1.0) < 1e-12

    def test_ellipse_edge_at_quarter_turn(self, ellipse_body_edge_slope):
        q = np.array([np.pi / 4, 0.0, 0.0])
        phi = -ellipse_body_edge_slope.boundary_gap(q)
        assert abs(phi - 0.79057) < 1e-5
        slope = -ellipse_body_edge_slope.boundary_gap_grad(q)[0]
        assert abs(slope - 0.47434) < 1e-5

    def test_star_edge_profile(self):
        model = make_se2_body(Se2BodyParams(shape=StarShape(l=1.0), inertia=0.5))
        phi = -model.boundary_gap(np.array([np.pi / 4, 0.0, 0.0]))
        assert abs(phi - math.sqrt(2.0)) < 1e-12

    def test_default_inertia_is_lamina_value(self, ellipse_body):
        assert ellipse_body.params.inertia == 0.3125

    def test_star_boundary_samples_avoid_corners(self, rng):
        model = make_se2_body(Se2BodyParams(shape=StarShape(l=1.0), inertia=0.5))
        thetas = sample_boundary_points(model, 200, rng)[:, 0]
        assert np.min(np.minimum(np.abs(np.sin(thetas)), np.abs(np.cos(thetas)))) > 0.05

    def test_star_requires_explicit_inertia(self):
        with pytest.raises(ValueError):
            Se2BodyParams(shape=StarShape(l=1.0))

    def test_boundary_parametrization_lies_on_level_set(self, ellipse_body):
        for theta in np.linspace(0.0, 2.0 * np.pi, 41):
            s, c = math.sin(theta), math.cos(theta)
            phi = math.sqrt(s * s + 0.25 * c * c)
            q = np.array([theta, 1.3, phi])
            assert abs(ellipse_body.boundary_gap(q)) <= 1e-12

    def test_reference_initial_state_admissible(self, ellipse_body):
        gap = ellipse_body.boundary_gap(np.array([np.pi / 2, 0.0, 3.5]))
        assert abs(gap - 2.5) < 1e-12

    def test_lagrangian_uses_both_inertias(self, ellipse_body):
        val = ellipse_body.lagrangian(np.zeros(3), np.array([2.0, 1.0, 1.0]))
        assert abs(val - (0.5 * 2.0 + 0.5 * 0.3125 * 4.0)) < 1e-12


class TestPendulum:
    def test_lagrangian_value(self, pendulum):
        val = pendulum.lagrangian(np.array([np.pi / 2, 0.0]), np.array([1.0, 0.5]))
        assert abs(val - 2.5) < 1e-12

    def test_gap_value(self, pendulum):
        gap = pendulum.boundary_gap(np.array([0.25 * np.pi, 123.0]))
        assert abs(gap - (1.5 - 2.0 * math.sin(0.25 * np.pi))) < 1e-14

    def test_omega_annihilates_constraint_direction(self, pendulum):
        q = np.array([np.pi / 2, 0.0])
        f = pendulum.omega(q)[0][0]
        assert abs(f - np.pi) < 1e-12
        assert np.array(pendulum.omega(q)) @ np.array([1.0, f]) == 0.0

    def test_boundary_has_two_components_with_interior_between_caps(self, pendulum):
        base = math.asin(1.5 / 2.0)
        for theta_b in (base, math.pi - base):
            assert abs(pendulum.boundary_gap(np.array([theta_b, 0.0]))) <= 1e-12
        # polar caps are admissible, the equatorial band is not
        assert pendulum.boundary_gap(np.array([base - 0.1, 0.0])) > 0
        assert pendulum.boundary_gap(np.array([math.pi - base + 0.1, 0.0])) > 0
        assert pendulum.boundary_gap(np.array([np.pi / 2, 0.0])) < 0

    def test_reference_initial_state_admissible(self, pendulum):
        gap = pendulum.boundary_gap(np.array([0.75 * np.pi, 0.0]))
        assert abs(gap - 0.08578643762690485) < 1e-12

    def test_param_validation(self):
        with pytest.raises(ValueError):
            PendulumParams(radius=2.5, length=2.0)
        with pytest.raises(ValueError):
            PendulumParams(f=lambda th: th)  # f(0) != f(pi)
        zero_gain = make_pendulum(PendulumParams(f=lambda th: 0.0))
        npt.assert_array_equal(zero_gain.omega(np.array([1.0, 0.0])), [[0.0, -1.0]])


class TestPendulumPole:
    """The polar axis is a coordinate singularity of the metric only: the
    ml^2 sin^2 theta entry of Lvv vanishes there, but the constraint row
    omega = [f, -1] keeps the constrained step regular, with
    |det J| = (ml^2 + f^2 ml^2 sin^2 theta) / h^2 to leading order."""

    @pytest.mark.parametrize("rule", ["retraction-left", "midpoint"])
    @settings(derandomize=True, database=None, deadline=None)
    @given(
        pole=st.sampled_from([0.0, math.pi]),
        offset=st.floats(-1e-3, 1e-3),
        phi=st.floats(-10.0, 10.0),
        rates=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
        h=st.floats(1e-6, 1e-3),
    )
    @example(pole=0.0, offset=0.0, phi=0.0, rates=(0.5, 1.0), h=1e-3)
    @example(pole=math.pi, offset=0.0, phi=0.0, rates=(0.5, 1.0), h=1e-3)
    def test_step_regular_near_pole(self, rule, pole, offset, phi, rates, h):
        model = make_pendulum(PendulumParams())
        q = np.array([pole + offset, phi])
        w = np.array(rates)
        values = [
            model.lagrangian(q, w),
            *model.dL_dq(q, w),
            *model.dL_dv(q, w),
            *(x for block in model.d2L(q, w) for x in np.ravel(block)),
        ]
        assert all(math.isfinite(x) for x in values)

        Ld = make_discrete_lagrangian(model, rule)
        _, jac = _step_system(Ld, model, q, np.zeros(2), h)
        J = jac(np.concatenate([q + h * w, [0.0]]))
        ml2 = model.params.mass * model.params.length ** 2
        assert abs(abs(np.linalg.det(J)) * h * h / ml2 - 1.0) <= 1e-3

    @pytest.mark.parametrize("rule", ["retraction-left", "midpoint"])
    def test_simulate_through_pole(self, pendulum, rule):
        Ld = make_discrete_lagrangian(pendulum, rule)
        traj = simulate(Ld, pendulum, np.array([math.pi, 0.0]),
                        np.array([0.5, 0.5 * (math.pi + 1.0)]), 0.0, 2.0, 1e-3)
        thetas = [s.q[0] for s in traj.states]
        assert min(thetas) < math.pi < max(thetas)
        report = build_report(traj, Ld, pendulum)
        assert report.max_constraint_residual <= 1e-10
        assert report.energy_drift_rel <= 1e-4

import math

import numpy as np
import numpy.testing as npt
import pytest

from nhvi import (
    DimensionMismatch,
    EvaluationFailure,
    InvalidInitialState,
    discrete_energy,
    initial_discretize,
    make_discrete_lagrangian,
    omega_dminus,
    omega_dplus,
)
from nhvi.models import sample_interior_points
from nhvi.numerics import _dot
from tests.conftest import ELLIPSE_Q0, ELLIPSE_V0, PENDULUM_Q0, PENDULUM_V0


class TestEvaluationExamples:
    def test_pure_potential_segment(self, particle_mid):
        # zero displacement: only the gravitational term survives
        q = np.array([0.0, 1.0])
        assert abs(particle_mid.eval(q, q, 0.1) - (-0.98)) < 1e-14

    def test_pure_kinetic_segment(self, particle_mid):
        val = particle_mid.eval(np.array([0.0, 0.0]), np.array([0.1, 0.0]), 0.1)
        assert abs(val - 0.05) < 1e-15

    def test_d2_at_rest_is_gravity_only(self, particle_mid):
        q = np.array([0.0, 1.0])
        npt.assert_allclose(particle_mid.d2(q, q, 0.1), [0.0, -0.49], atol=1e-15)

    def test_rule_definitions_hold(self, particle, particle_mid, pendulum, pendulum_left):
        q = np.array([0.2, 1.3])
        v = np.array([0.25, 1.27])
        h = 0.05
        w = (v - q) / h
        assert particle_mid.eval(q, v, h) == h * particle.lagrangian(0.5 * (q + v), w)
        q = np.array([2.5, 0.4])
        v = np.array([2.51, 0.43])
        w = (v - q) / h
        assert pendulum_left.eval(q, v, h) == h * pendulum.lagrangian(q, w)

    @pytest.mark.parametrize("rule", ["midpoint", "retraction-left"])
    @pytest.mark.parametrize("model_fixture", ["particle", "ellipse_body", "star_body", "pendulum"])
    def test_velocity_form_matches_configuration_form(self, model_fixture, rule, rng, request):
        model = request.getfixturevalue(model_fixture)
        Ld = make_discrete_lagrangian(model, rule)
        for q in sample_interior_points(model, 200, rng):
            w = rng.uniform(-2, 2, model.n)
            h = rng.uniform(1e-4, 1e-1)
            v = q + h * w
            # one definition: the configuration form is the velocity form
            # at w = (v - q)/h, bit for bit
            w_v = (v - q) / h
            npt.assert_array_equal(Ld.d1(q, v, h), Ld.d1_w(q, w_v, h))
            npt.assert_array_equal(Ld.d2(q, v, h), Ld.d2_w(q, w_v, h))
            assert Ld.d3(q, v, h) == Ld.d3_w(q, w_v, h)
            npt.assert_allclose(Ld.d1_w(q, w, h), Ld.d1(q, v, h), rtol=1e-9, atol=1e-9)
            npt.assert_allclose(Ld.d2_w(q, w, h), Ld.d2(q, v, h), rtol=1e-9, atol=1e-9)
            assert Ld.d3_w(q, w, h) == pytest.approx(Ld.d3(q, v, h), rel=1e-9, abs=1e-9)

    def test_unknown_rule_rejected(self, particle):
        with pytest.raises(ValueError):
            make_discrete_lagrangian(particle, "trapezoidal")


class TestDerivativeConsistency:
    @pytest.mark.parametrize(
        "model_fixture,rule",
        [
            ("particle", "midpoint"),
            ("particle", "retraction-left"),
            ("ellipse_body", "midpoint"),
            ("ellipse_body", "retraction-left"),
            ("pendulum", "midpoint"),
            ("pendulum", "retraction-left"),
        ],
    )
    def test_partials_match_central_differences(self, model_fixture, rule, rng, request):
        from nhvi import fd_jacobian

        model = request.getfixturevalue(model_fixture)
        Ld = make_discrete_lagrangian(model, rule)
        worst = 0.0
        for q in sample_interior_points(model, 100, rng):
            h = float(rng.uniform(1e-4, 1e-1))
            v = q + h * rng.uniform(-1.0, 1.0, model.n)
            scale = max(1.0, abs(Ld.eval(q, v, h)))
            fd1 = fd_jacobian(lambda x: np.array([Ld.eval(x, v, h)]), q, 1e-7)[0]
            fd2 = fd_jacobian(lambda x: np.array([Ld.eval(q, x, h)]), v, 1e-7)[0]
            fd3 = fd_jacobian(
                lambda x: np.array([Ld.eval(q, v, float(x[0]))]), np.array([h]), 1e-7
            )[0, 0]
            err = max(
                np.max(np.abs(fd1 - Ld.d1(q, v, h))),
                np.max(np.abs(fd2 - Ld.d2(q, v, h))),
                abs(fd3 - Ld.d3(q, v, h)),
            )
            worst = max(worst, err / scale)
        assert worst <= 1e-6

    def test_d1_dv_matches_finite_differences(self, pendulum_left, particle_mid, rng):
        from nhvi import fd_jacobian

        for Ld, qlo in ((pendulum_left, 2.4), (particle_mid, 0.5)):
            q = np.array([qlo + 0.1, 1.0])
            v = q + 0.01 * rng.uniform(-1, 1, 2)
            h = 0.01
            fd = fd_jacobian(lambda x: Ld.d1(q, x, h), v, 1e-7)
            assert np.max(np.abs(fd - Ld.d1_dv(q, v, h))) < 1e-5

    @pytest.mark.parametrize("rule", ["midpoint", "retraction-left"])
    @pytest.mark.parametrize(
        "model_fixture",
        ["particle", "ellipse_body", "ellipse_body_edge_slope", "star_body", "pendulum"],
    )
    def test_d13_dw_matches_central_differences(self, model_fixture, rule, rng, request):
        # the phase-B Jacobian blocks, down to impact sub-steps of 1e-7
        from nhvi import fd_jacobian

        model = request.getfixturevalue(model_fixture)
        Ld = make_discrete_lagrangian(model, rule)
        worst = 0.0
        for s in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
            for q in sample_interior_points(model, 10, rng):
                w = rng.uniform(-3.0, 3.0, model.n)
                dd1, dd3 = map(np.array, Ld.d13_dw(q, w, s))
                fd1 = fd_jacobian(lambda x: Ld.d1_w(q, x, s), w, 1e-7)
                fd3 = fd_jacobian(lambda x: np.array([Ld.d3_w(q, x, s)]), w, 1e-7)[0]
                assert dd1.shape == (model.n, model.n) and dd3.shape == (model.n,)
                scale = max(1.0, np.max(np.abs(fd1)), np.max(np.abs(fd3)))
                err = max(np.max(np.abs(dd1 - fd1)), np.max(np.abs(dd3 - fd3)))
                worst = max(worst, err / scale)
        # central differences at eps = 1e-7 read about 5e-8 here
        assert worst <= 1e-6

class TestConstraintMaps:
    def test_constraint_satisfying_displacement(self, pendulum):
        h = 0.01
        q = np.array([np.pi / 2, 0.0])
        v = np.array([np.pi / 2 + 0.01, 0.01 * np.pi])
        assert abs(omega_dplus(pendulum, q, v, h)[0]) <= 1e-12

    def test_zero_displacement(self, pendulum, ellipse_body):
        q = np.array([2.5, 0.3])
        npt.assert_array_equal(omega_dplus(pendulum, q, q, 0.01), [0.0])
        assert omega_dplus(ellipse_body, np.zeros(3), np.zeros(3), 0.01) == []

    def test_pure_azimuthal_displacement(self, pendulum):
        q = np.array([np.pi / 2, 0.0])
        v = np.array([np.pi / 2, 0.01])
        npt.assert_allclose(omega_dplus(pendulum, q, v, 0.01), [-1.0], atol=1e-14)

    def test_dminus_is_sign_flipped_swap(self, pendulum):
        q = np.array([np.pi / 2, 0.0])
        v = np.array([np.pi / 2, 0.01])
        npt.assert_allclose(omega_dminus(pendulum, v, q, 0.01), [1.0], atol=1e-14)
        # exact antisymmetry, not approximate
        for qa, qb in ((q, v), (v, q)):
            assert (
                omega_dplus(pendulum, qa, qb, 0.01)[0]
                == -omega_dminus(pendulum, qb, qa, 0.01)[0]
            )

    def test_dminus_zero_cases(self, pendulum):
        q = np.array([2.6, 1.0])
        npt.assert_array_equal(omega_dminus(pendulum, q, q, 0.01), [0.0])
        v = np.array([np.pi / 2 + 0.01, 0.01 * np.pi])
        base = np.array([np.pi / 2, 0.0])
        assert abs(omega_dminus(pendulum, v, base, 0.01)[0]) <= 1e-12


class TestDiscreteEnergy:
    def test_rest_energy_is_potential(self, particle_mid):
        q = np.array([0.0, 1.0])
        assert abs(discrete_energy(particle_mid, q, q, 0.1) - 9.8) < 1e-14

    def test_kinetic_energy(self, particle_mid):
        e = discrete_energy(particle_mid, np.array([0.0, 0.0]), np.array([0.1, 0.0]), 0.1)
        assert abs(e - 0.5) < 1e-14

    def test_ellipse_initial_energy(self, ellipse_body, ellipse_mid):
        q0, v0, _ = initial_discretize(ellipse_body, "midpoint", ELLIPSE_Q0, ELLIPSE_V0, 0.01)
        e = discrete_energy(ellipse_mid, q0, v0, 0.01)
        assert abs(e - 37.70625) < 1e-10

    def test_energy_is_legendre_transform_of_base_point(self, pendulum, pendulum_left, rng):
        # -d3 equals dL/dv . w - L at the rule's base point
        for q in sample_interior_points(pendulum, 100, rng):
            h = float(rng.uniform(1e-4, 1e-1))
            v = q + h * rng.uniform(-1.0, 1.0, 2)
            w = (v - q) / h
            expected = float(pendulum.dL_dv(q, w) @ w) - pendulum.lagrangian(q, w)
            assert abs(pendulum_left.d3(q, v, h) + expected) <= 1e-9

    @pytest.mark.parametrize("rule", ["midpoint", "retraction-left"])
    @pytest.mark.parametrize("model_fixture", ["particle", "ellipse_body", "star_body", "pendulum"])
    def test_d3_w_sums_left_to_right_in_python_floats(self, model_fixture, rule, rng, request):
        # d3_w = L(x, w) - dL/dv(x, w) . w at the rule's point x, the dot
        # product summed by numerics._dot: the energy of every report node
        # and the phase-B energy row, bit for bit
        model = request.getfixturevalue(model_fixture)
        Ld = make_discrete_lagrangian(model, rule)
        for q in sample_interior_points(model, 100, rng).tolist():
            w = rng.uniform(-3.0, 3.0, model.n).tolist()
            h = float(rng.uniform(1e-4, 1e-1))
            half = 0.5 * h
            x = [a + half * b for a, b in zip(q, w)] if rule == "midpoint" else q
            d3 = Ld.d3_w(q, w, h)
            assert type(d3) is float
            assert d3 == model.lagrangian(x, w) - _dot(model.dL_dv(x, w), w)

    def test_midpoint_kinetic_symmetry(self, free_particle):
        Ld = make_discrete_lagrangian(free_particle, "midpoint")
        q = np.array([0.3, 1.7])
        v = np.array([-0.2, 2.4])
        assert Ld.eval(q, v, 0.07) == Ld.eval(v, q, 0.07)


class TestInitialDiscretize:
    def test_particle_conversion(self, particle):
        q0, v0, p0 = initial_discretize(
            particle, "midpoint", np.array([0.0, 1.0]), np.array([2.0, 0.0]), 0.1
        )
        npt.assert_allclose(q0, [-0.1, 1.0], atol=1e-15)
        npt.assert_allclose(v0, [0.1, 1.0], atol=1e-15)
        # p0 = d2(q0, v0, h) = m w - (h m g / 2) e_y with w = v(0)
        npt.assert_allclose(p0, [2.0, -0.49], atol=1e-12)

    def test_rest_state(self, particle):
        q = np.array([0.5, 2.0])
        q0, v0, _ = initial_discretize(particle, "midpoint", q, np.zeros(2), 0.1)
        npt.assert_array_equal(q0, q)
        npt.assert_array_equal(v0, q)

    def test_pendulum_retraction_conversion(self, pendulum):
        h = 1e-3
        q0, v0, _ = initial_discretize(pendulum, "retraction-left", PENDULUM_Q0, PENDULUM_V0, h)
        npt.assert_array_equal(q0, PENDULUM_Q0)
        npt.assert_allclose(
            v0,
            [0.75 * np.pi + 0.25 * np.pi * h, 0.25 * (np.pi + 0.5) * np.pi * h],
            rtol=1e-15,
        )

    def test_outside_admissible_set_rejected(self, particle):
        with pytest.raises(InvalidInitialState):
            initial_discretize(
                particle, "midpoint", np.array([0.0, -0.5]), np.zeros(2), 0.1
            )
        # interior start whose half-step shift leaves the admissible set
        with pytest.raises(InvalidInitialState):
            initial_discretize(
                particle, "midpoint", np.array([0.0, 0.01]), np.array([0.0, 5.0]), 0.1
            )

    @pytest.mark.parametrize("q0, v0, error, match", [
        ([0.0, 1.0, 2.0], [0.0, 0.0, 0.0], DimensionMismatch, "model dimension"),
        ([[0.0, 1.0]], [[0.0, 0.0]], ValueError, "one-dimensional"),
        ([0.0, 1.0], [math.inf, 0.0], EvaluationFailure, "non-finite"),
    ], ids=["wrong-length", "2-D", "non-finite"])
    def test_malformed_initial_conditions_rejected(self, particle, q0, v0, error, match):
        with pytest.raises(error, match=match):
            initial_discretize(particle, "midpoint", np.array(q0), np.array(v0), 0.1)

import dataclasses
import math

import numpy as np
import numpy.testing as npt
import pytest

from nhvi import (
    DegenerateFrame,
    NotOnBoundary,
    Se2BodyParams,
    StarShape,
    boundary_frame,
    fd_jacobian,
    make_se2_body,
    pullback_cotangent,
    push_cotangent,
)
from nhvi.geometry import omega_rank_deficiency, transversality_margin
from nhvi.models import sample_boundary_points, sample_interior_points


def matrices(frame):
    """The frame's E (n x (n-1)) and P ((n-1) x n) as numpy matrices."""
    return np.transpose(frame.ET), np.array(frame.P)


def ellipse_edge_slope(theta, a=1.0, b=0.5):
    s, c = math.sin(theta), math.cos(theta)
    return (a * a - b * b) * s * c / math.sqrt(a * a * s * s + b * b * c * c)


class TestFrameExamples:
    def test_particle_frame(self, particle):
        frame = boundary_frame(particle, np.array([3.0, 0.0]))
        E, P = matrices(frame)
        npt.assert_array_equal(E, [[1.0], [0.0]])
        npt.assert_array_equal(P, [[1.0, 0.0]])
        npt.assert_allclose(P @ E, [[1.0]], atol=0)

    def test_pendulum_frame(self, pendulum):
        theta_b = math.asin(1.5 / 2.0)
        frame = boundary_frame(pendulum, np.array([theta_b, 2.2]))
        E, P = matrices(frame)
        npt.assert_array_equal(E, [[0.0], [1.0]])
        npt.assert_array_equal(P, [[0.0, 1.0]])
        npt.assert_allclose(P @ E, [[1.0]], atol=0)

    def test_se2_edge_slope_frame_at_quarter_turn(self, ellipse_body_edge_slope):
        model = ellipse_body_edge_slope
        theta = math.pi / 4
        q = np.array([theta, 0.0, math.sqrt(0.625)])
        frame = boundary_frame(model, q)
        pd = ellipse_edge_slope(theta)
        assert abs(pd - 0.47434) < 1e-5
        E, P = matrices(frame)
        npt.assert_allclose(E[:, 0], [0.0, 1.0, 0.0], atol=0)
        npt.assert_allclose(E[:, 1], [1.0, 0.0, pd], atol=1e-15)
        npt.assert_allclose(P @ E, np.eye(2), atol=1e-12)

    @pytest.mark.parametrize("q", [[0.0, 0.5], [0.3, math.nan], [math.nan, 0.0]],
                             ids=["off-boundary", "nan-gap", "nan-coordinate"])
    def test_not_on_boundary(self, particle, q):
        with pytest.raises(NotOnBoundary):
            boundary_frame(particle, np.array(q))

    def test_star_corner_is_degenerate(self):
        model = make_se2_body(
            Se2BodyParams(shape=StarShape(l=1.0), inertia=0.5, contact_frame="edge-slope")
        )
        with pytest.raises(DegenerateFrame):
            boundary_frame(model, np.array([0.0, 0.0, 1.0]))


    @pytest.mark.parametrize("E, P, match", [
        ([[1.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 1.0]], "frame shapes"),
        ([[1.0], [0.0]], [[2.0, 0.0]], "not a left inverse"),
    ], ids=["square-E", "P.E-not-identity"])
    def test_inconsistent_frame_is_degenerate(self, particle, E, P, match):
        model = dataclasses.replace(
            particle, tangent_basis=lambda q: np.array(E), projection=lambda q: np.array(P)
        )
        with pytest.raises(DegenerateFrame, match=match):
            boundary_frame(model, np.array([3.0, 0.0]))

    @pytest.mark.parametrize("patch, match", [
        ({"tangent_basis": lambda q: ((math.nan,), (0.0,))}, "not a left inverse"),
        ({"projection": lambda q: ((1.0, math.nan),)}, "not a left inverse"),
        ({"boundary_gap_grad": lambda q: (0.0, math.nan)}, "gap gradient"),
    ], ids=["nan-in-E", "nan-in-P", "nan-in-gradient"])
    def test_non_finite_frame_is_degenerate(self, particle, patch, match):
        # a NaN compares False with every tolerance, so it must fail the
        # checks rather than slip past them
        model = dataclasses.replace(particle, **patch)
        with pytest.raises(DegenerateFrame, match=match):
            boundary_frame(model, np.array([3.0, 0.0]))


class TestCotangentTransfer:
    def test_se2_pullback_matches_edge_formula(self, ellipse_body_edge_slope):
        theta = math.pi / 4
        q = np.array([theta, 0.0, math.sqrt(0.625)])
        frame = boundary_frame(ellipse_body_edge_slope, q)
        pd = ellipse_edge_slope(theta)
        p = np.array([1.0, 2.0, 3.0])  # (p_theta, p_x, p_y)
        npt.assert_allclose(
            pullback_cotangent(frame, p), [2.0, 1.0 + pd * 3.0], atol=1e-12
        )

    def test_se2_push_example(self, ellipse_body_edge_slope):
        q = np.array([math.pi / 4, 0.0, math.sqrt(0.625)])
        frame = boundary_frame(ellipse_body_edge_slope, q)
        npt.assert_allclose(
            push_cotangent(frame, np.array([4.0, 6.0])), [6.0, 4.0, 0.0], atol=0
        )

    def test_zero_covector(self, particle):
        frame = boundary_frame(particle, np.array([0.0, 0.0]))
        npt.assert_array_equal(pullback_cotangent(frame, np.zeros(2)), [0.0])
        npt.assert_array_equal(push_cotangent(frame, np.zeros(1)), [0.0, 0.0])

    def test_particle_pullback_push_examples(self, particle):
        frame = boundary_frame(particle, np.array([1.0, 0.0]))
        npt.assert_array_equal(pullback_cotangent(frame, np.array([5.0, -7.0])), [5.0])
        npt.assert_array_equal(push_cotangent(frame, np.array([9.0])), [9.0, 0.0])

    def test_dimension_mismatch(self, particle):
        frame = boundary_frame(particle, np.array([0.0, 0.0]))
        with pytest.raises(ValueError):
            pullback_cotangent(frame, np.zeros(3))
        with pytest.raises(ValueError):
            push_cotangent(frame, np.zeros(2))


class TestFrameInvariants:
    @pytest.mark.parametrize(
        "model_fixture",
        ["particle", "ellipse_body", "ellipse_body_edge_slope", "pendulum"],
    )
    def test_left_inverse_and_round_trip(self, model_fixture, rng, request):
        model = request.getfixturevalue(model_fixture)
        eye = np.eye(model.n - 1)
        for q in sample_boundary_points(model, 100, rng):
            frame = boundary_frame(model, q)
            E, P = matrices(frame)
            assert np.max(np.abs(P @ E - eye)) <= 1e-12
            p_tilde = rng.standard_normal(model.n - 1)
            back = pullback_cotangent(frame, push_cotangent(frame, p_tilde))
            assert np.max(np.abs(back - p_tilde)) <= 1e-12
            assert transversality_margin(model, frame) > 1e-3

    @pytest.mark.parametrize(
        "model_fixture", ["particle", "ellipse_body", "ellipse_body_edge_slope", "pendulum"]
    )
    def test_gap_gradient_matches_finite_differences(self, model_fixture, rng, request):
        model = request.getfixturevalue(model_fixture)
        for q in sample_interior_points(model, 100, rng):
            fd = fd_jacobian(lambda x: np.array([model.boundary_gap(x)]), q, 1e-6)[0]
            assert np.max(np.abs(fd - model.boundary_gap_grad(q))) <= 1e-6

    def test_pendulum_omega_annihilates_constraint_distribution(self, pendulum, rng):
        for q in sample_interior_points(pendulum, 50, rng):
            f_theta = pendulum.omega(q)[0][0]
            assert np.array(pendulum.omega(q)) @ np.array([1.0, f_theta]) == 0.0

    def test_omega_full_rank_along_interior(self, pendulum, rng):
        for q in sample_interior_points(pendulum, 50, rng):
            assert omega_rank_deficiency(pendulum, q) == 0

import dataclasses
import gc
import json
import math
import sys
import tracemalloc
import types
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

from nhvi import (
    State,
    build_report,
    discrete_energy,
    initial_discretize,
    make_discrete_lagrangian,
    omega_dplus,
    resolve_impact,
    simulate,
    step_minus,
    step_plus,
)
from nhvi import discretization, geometry, integrator, numerics
from nhvi.cli import bundled_config_path
from nhvi.config import build_model, config_from_dict, parse_config
from nhvi.errors import (
    EvaluationFailure,
    NoElasticRebound,
    ParameterError,
    PersistentPenetration,
)
from nhvi.geometry import BoundaryFrame, boundary_frame, pullback_cotangent, push_cotangent
from nhvi.integrator import (
    _arc_seed_b,
    _impact_a_system,
    _impact_b_system,
    _law_line,
    _law_mu,
    _minus_system,
    _resolve_impact_impl,
    _step_plus_impl,
)
from nhvi.models import sample_boundary_points, sample_interior_points
from nhvi.numerics import DEFAULT_NEWTON_OPTIONS, _dot, fd_jacobian
from tests.conftest import (
    ELLIPSE_Q0,
    ELLIPSE_V0,
    PENDULUM_Q0,
    PENDULUM_V0,
    VALLEY_DOC,
    valley_particle,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402


def make_state(Ld, q, v, h, m_con=0):
    return State(k=0, t=0.0, q=q, v=v, p=Ld.d2(q, v, h), lam=np.zeros(m_con))


class TestStepPlus:
    def test_free_particle_uniform_motion(self, free_particle):
        Ld = make_discrete_lagrangian(free_particle, "midpoint")
        st = make_state(Ld, np.array([0.0, 0.0]), np.array([1.0, 0.0]), 0.1)
        nxt = step_plus(Ld, free_particle, st, 0.1)
        npt.assert_allclose(nxt.q, [1.0, 0.0], atol=1e-12)
        npt.assert_allclose(nxt.v, [2.0, 0.0], atol=1e-12)
        npt.assert_allclose(nxt.p, [10.0, 0.0], atol=1e-12)
        assert nxt.k == 1 and nxt.t == 0.1

    def test_gravity_recovers_position_verlet(self, particle, particle_mid):
        q = np.array([0.0, 1.0])
        st = make_state(particle_mid, q, q, 0.1)
        nxt = step_plus(particle_mid, particle, st, 0.1)
        npt.assert_allclose(nxt.p, [0.0, -0.49], atol=1e-14)
        npt.assert_allclose(nxt.v, [0.0, 0.902], atol=1e-12)

    def test_pendulum_step_satisfies_residuals(self, pendulum, pendulum_left):
        h = 1e-3
        q0, v0, p0 = initial_discretize(
            pendulum, "retraction-left", PENDULUM_Q0, PENDULUM_V0, h
        )
        st = State(k=0, t=0.0, q=q0, v=v0, p=p0, lam=np.zeros(1))
        nxt = step_plus(pendulum_left, pendulum, st, h)
        r1 = (
            np.array(pendulum_left.d1(nxt.q, nxt.v, h))
            + nxt.p
            - np.array(pendulum.omega(nxt.q)).T @ nxt.lam
        )
        assert np.max(np.abs(r1)) <= 1e-10
        assert np.max(np.abs(omega_dplus(pendulum, nxt.q, nxt.v, h))) <= 1e-10


class TestPredictor:
    """Smooth steps start Newton from the quadratic extrapolation of the
    last three nodes, except at k = 0 and on the first step after an impact,
    which fall back to the linear seed 2 v_k - q_k."""

    @pytest.mark.parametrize("demo, rule", [
        ("particle", "midpoint"), ("ellipse", "midpoint"), ("particle", "retraction-left"),
    ], ids=["particle", "ellipse", "particle-retraction-left"])
    def test_free_flight_seed_is_exact(self, demo, rule):
        # free flight is exactly quadratic in the nodes under both rules, so
        # the quadratic seed already solves the step; constant metric and
        # gravity make the pre-impact arc exact too, so phases B and D start
        # on their roots
        cfg = parse_config(bundled_config_path(demo))
        model = build_model(cfg)
        Ld = make_discrete_lagrangian(model, rule)
        traj = simulate(Ld, model, cfg.q0, cfg.v0, cfg.t0, cfg.t_final, cfg.h, cfg.solver)
        stats = traj.solver_stats
        linear = 0
        for i, (phase, iters) in enumerate(zip(stats.phases, stats.iterations)):
            if phase in ("impact-B", "impact-D"):
                assert iters == 0, (stats.ks[i], phase)
            if phase != "step":
                continue
            if i == 0 or stats.phases[i - 1] == "impact-D":
                linear += 1
                assert iters == 1, stats.ks[i]
            else:
                assert iters == 0, stats.ks[i]
        assert traj.impacts
        assert linear == 1 + len(traj.impacts)
        assert stats.phases.count("impact-B") == len(traj.impacts)

    def test_pendulum_long_one_iteration_per_step(self, pendulum, pendulum_left):
        # the pendulum_long benchmark configuration: 20 000 steps, one impact
        traj = simulate(pendulum_left, pendulum, PENDULUM_Q0, PENDULUM_V0, 0.0, 2.0, 1e-4)
        assert len(traj.impacts) == 1
        stats = traj.solver_stats
        step_iters = {it for ph, it in zip(stats.phases, stats.iterations) if ph == "step"}
        assert step_iters == {1}
        rep = build_report(traj, pendulum_left, pendulum)
        assert rep.newton_iter_stats["step_mean"] == 1.0
        assert rep.max_constraint_residual <= 1e-10

    def test_public_step_plus_keeps_linear_seed(self, particle, particle_mid):
        h = 1e-2
        traj = simulate(
            particle_mid, particle, np.array([0.0, 1.0]), np.array([2.0, 0.0]), 0.0, 0.05, h
        )
        prev, st = traj.states[1], traj.states[2]
        opts = DEFAULT_NEWTON_OPTIONS
        linear, res_linear = _step_plus_impl(particle_mid, particle, st, h, opts, prev=None)
        quadratic, res_quadratic = _step_plus_impl(particle_mid, particle, st, h, opts, prev)
        assert (res_linear.iterations, res_quadratic.iterations) == (1, 0)
        public = step_plus(particle_mid, particle, st, h)
        for name in ("q", "v", "p", "lam"):
            npt.assert_array_equal(getattr(public, name), getattr(linear, name))
        # simulate seeds from the previous node
        npt.assert_array_equal(quadratic.v, traj.states[3].v)


class TestStepMinus:
    def test_inverse_of_forward_step(self, particle, particle_mid, rng):
        h = 0.05
        worst = 0.0
        for _ in range(100):
            q = rng.uniform(-1.0, 1.0, 2) + np.array([0.0, 3.0])
            v = q + 0.1 * rng.uniform(-1.0, 1.0, 2)
            p = -np.array(particle_mid.d1(q, v, h))  # consistent node momentum
            st = State(k=0, t=0.0, q=q, v=v, p=p, lam=np.zeros(0))
            nxt = step_plus(particle_mid, particle, st, h)
            back = step_minus(particle_mid, particle, nxt.q, nxt.p, h)
            worst = max(
                worst,
                float(np.max(np.abs(back.q_prev - q))),
                float(np.max(np.abs(back.p_prev - p))),
            )
        assert worst <= 1e-8

    def test_free_particle_reversed_uniform_motion(self, free_particle):
        Ld = make_discrete_lagrangian(free_particle, "midpoint")
        # forward nodes of uniform motion: q_k = k e_x, momentum 10 e_x
        back = step_minus(Ld, free_particle, np.array([2.0, 0.0]), np.array([10.0, 0.0]), 0.1)
        npt.assert_allclose(back.q_prev, [1.0, 0.0], atol=1e-10)
        npt.assert_allclose(back.p_prev, [10.0, 0.0], atol=1e-10)

    def test_rest_state_recovered(self, free_particle):
        Ld = make_discrete_lagrangian(free_particle, "midpoint")
        q = np.array([0.4, 1.1])
        back = step_minus(Ld, free_particle, q, np.zeros(2), 0.1)
        npt.assert_array_equal(back.q_prev, q)
        npt.assert_array_equal(back.p_prev, np.zeros(2))

    @pytest.mark.parametrize("rule", ["midpoint", "retraction-left"])
    @pytest.mark.parametrize("model_fixture", ["particle", "ellipse_body"])
    def test_unconstrained_backward_step_takes_one_iteration(self, model_fixture, rule, rng,
                                                             request, monkeypatch):
        # constant metric and a linear potential make p_next - d2(u, q_next, h)
        # linear in u, so the analytic Jacobian's first step is the root
        model = request.getfixturevalue(model_fixture)
        Ld = make_discrete_lagrangian(model, rule)
        iterations = []
        real_newton = integrator.newton_solve

        def newton(*args, **kwargs):
            res = real_newton(*args, **kwargs)
            iterations.append(res.iterations)
            return res

        monkeypatch.setattr(integrator, "newton_solve", newton)
        h = 0.05
        for q in sample_interior_points(model, 20, rng):
            v = q + 0.1 * rng.uniform(-1.0, 1.0, model.n)
            back = step_minus(Ld, model, v.tolist(), Ld.d2(q, v, h), h)
            npt.assert_allclose(back.q_prev, q, rtol=0.0, atol=1e-12)
        assert iterations == [1] * 20

    @pytest.mark.parametrize("rule", ["midpoint", "retraction-left"])
    def test_constrained_backward_step_inverts_to_second_order(self, pendulum, rule):
        # the backward constraint rows sit at q_{k+1}, the forward ones at
        # q_k, so on the pendulum the inverse holds to O(h^2) only
        h = 1e-3
        Ld = make_discrete_lagrangian(pendulum, rule)
        traj = simulate(Ld, pendulum, PENDULUM_Q0, PENDULUM_V0, 0.0, 0.5, h)
        assert not traj.impacts
        worst = 0.0
        for k in range(10, len(traj.t), 10):
            back = step_minus(Ld, pendulum, traj.q[k].tolist(), traj.p[k].tolist(), h)
            worst = max(worst, float(np.max(np.abs(np.subtract(back.q_prev, traj.q[k - 1])))))
        assert worst <= 1e-5


class TestResolveImpact:
    def test_phase_a_matches_quadratic_root(self, particle, particle_mid):
        # free-flight equation m y + s p_y - s^2 m g / 2 = 0 with s = alpha h
        q_k = np.array([0.0, 0.049])
        p_k = np.array([0.0, -0.98])
        h = 0.1
        rejected = q_k + h * p_k - 0.5 * h * h * 9.8 * np.array([0.0, 1.0])
        assert particle.boundary_gap(rejected) < 0
        event, nxt = resolve_impact(particle_mid, particle, q_k, p_k, h, rejected)
        assert abs(event.alpha - (np.sqrt(2.0) - 1.0)) <= 1e-9
        assert abs(particle.boundary_gap(event.q_tilde)) <= 1e-8
        assert particle.boundary_gap(nxt.q) > 0

    def test_crossing_just_after_the_node_resolves(self, particle, particle_mid):
        # 5e-9 above the floor, falling at 1 m/s: the crossing lies at
        # alpha ~ 5e-7, where the velocity form is as regular as anywhere
        q_k = np.array([0.0, 5e-9])
        p_k = np.array([0.0, -1.0])
        h = 1e-2
        rejected = q_k + h * p_k - 0.5 * h * h * 9.8 * np.array([0.0, 1.0])
        event, nxt = resolve_impact(particle_mid, particle, q_k, p_k, h, rejected)
        s_root = 2 * 5e-9 / (1.0 + np.sqrt(1.0 + 2 * 9.8 * 5e-9))
        assert abs(event.alpha - s_root / h) <= 1e-2 * s_root / h
        assert abs(particle.boundary_gap(event.q_tilde)) <= 1e-10
        assert abs(event.energy_jump) <= 1e-12
        assert particle.boundary_gap(nxt.q) > 0

    def test_tangential_momentum_passes_through(self, particle, particle_mid):
        q_k = np.array([0.3, 0.049])
        p_k = np.array([1.7, -0.98])
        h = 0.1
        rejected = q_k + h * p_k - 0.5 * h * h * 9.8 * np.array([0.0, 1.0])
        event, nxt = resolve_impact(particle_mid, particle, q_k, p_k, h, rejected)
        assert abs(event.p_tilde[0] - p_k[0]) <= 1e-10
        assert abs(nxt.p[0] - event.p_tilde[0]) <= 1e-10

    def test_ballistic_drop_oracle(self, particle, particle_mid):
        h = 1e-3
        traj = simulate(
            particle_mid, particle, np.array([0.0, 1.0]), np.zeros(2), 0.0, 1.0, h
        )
        assert len(traj.impacts) == 1
        ev = traj.impacts[0]
        assert abs(ev.t_impact - np.sqrt(2.0 / 9.8)) <= 2 * h
        st = traj.states[ev.k]
        e_pre = discrete_energy(particle_mid, st.q, st.v, ev.alpha * h)
        e_post = discrete_energy(
            particle_mid, ev.q_tilde, ev.v_tilde, (1.0 - ev.alpha) * h
        )
        assert abs(e_pre - e_post) <= 1e-8

    def test_precondition_errors(self, particle, particle_mid):
        with pytest.raises(ValueError):
            resolve_impact(
                particle_mid,
                particle,
                np.array([0.0, 1.0]),
                np.zeros(2),
                0.1,
                np.array([0.0, 0.5]),  # not penetrating
            )
        with pytest.raises(ValueError):
            resolve_impact(
                particle_mid,
                particle,
                np.array([0.0, -0.1]),  # pre-impact node penetrates
                np.zeros(2),
                0.1,
                np.array([0.0, -0.2]),
            )

    def test_pendulum_impact_reverses_constrained_velocity(self, pendulum, pendulum_left):
        h = 1e-3
        traj = simulate(pendulum_left, pendulum, PENDULUM_Q0, PENDULUM_V0, 0.0, 1.5, h)
        assert len(traj.impacts) == 1
        ev = traj.impacts[0]
        q_tilde, v_tilde = np.array(ev.q_tilde), np.array(ev.v_tilde)
        w_in = (q_tilde - traj.states[ev.k].q) / (ev.alpha * h)
        w_out = (v_tilde - q_tilde) / ((1.0 - ev.alpha) * h)
        # both components change sign: the constraint couples them
        assert w_in[0] * w_out[0] < 0
        assert w_in[1] * w_out[1] < 0
        assert np.max(np.abs(omega_dplus(pendulum, ev.q_tilde, ev.v_tilde, (1 - ev.alpha) * h))) <= 1e-10
        # the constraint rows phases A and B solve, at their discrete velocities
        assert np.max(np.abs(np.array(pendulum.omega(traj.q[ev.k])) @ ev.w_in)) <= 1e-10
        assert np.max(np.abs(np.array(pendulum.omega(ev.q_tilde)) @ ev.w_out)) <= 1e-10

    @pytest.mark.parametrize("demo, coordinate", [
        ("particle", "y"), ("ellipse", "y"), ("pendulum", "theta"),
    ])
    def test_compat_residual_is_the_discarded_normal_momentum(self, demo, coordinate):
        # each bundled demo's frame has E spanning every coordinate but the
        # normal one, so push(pull(d2)) - d2 is -d2 along it alone
        cfg = parse_config(bundled_config_path(demo))
        model = build_model(cfg)
        Ld = make_discrete_lagrangian(model, cfg.rule)
        traj = simulate(Ld, model, cfg.q0, cfg.v0, cfg.t0, cfg.t_final, cfg.h, cfg.solver)
        i = model.coordinate_names.index(coordinate)
        assert traj.impacts
        for ev in traj.impacts:
            d2_pre = Ld.d2_w(traj.q[ev.k].tolist(), ev.w_in, ev.alpha * cfg.h)
            assert ev.compat_residual == abs(d2_pre[i]), ev.k

    @pytest.mark.parametrize("rule", ["midpoint", "retraction-left"])
    def test_phase_a_multipliers_balance_the_momentum_rows(self, rule):
        # phase A's momentum rows read omega^T(q_k) lambda_A =
        # d1_w(q_k, w_in, alpha h) + p_k: at the stored alpha and w_in their
        # least-squares solution, found apart from the solver, is lambda_A
        cfg = parse_config(bundled_config_path("pendulum"))
        model = build_model(cfg)
        Ld = make_discrete_lagrangian(model, rule)
        traj = simulate(Ld, model, cfg.q0, cfg.v0, cfg.t0, cfg.t_final, cfg.h, cfg.solver)
        assert traj.impacts
        for ev in traj.impacts:
            q_k = traj.q[ev.k].tolist()
            force = np.add(Ld.d1_w(q_k, ev.w_in, ev.alpha * cfg.h), traj.p[ev.k])
            lam, *_ = np.linalg.lstsq(np.array(model.omega(q_k)).T, force, rcond=None)
            npt.assert_allclose(ev.lambda_A, lam, rtol=1e-6, err_msg=f"impact at step {ev.k}")


IMPACT_MODELS = ["particle", "ellipse_body", "ellipse_body_edge_slope", "star_body", "pendulum"]


class TestImpactJacobians:
    @pytest.mark.parametrize("rule", ["midpoint", "retraction-left"])
    @pytest.mark.parametrize("model_fixture", IMPACT_MODELS)
    def test_phase_b_jacobian_matches_finite_differences(self, model_fixture, rule, rng, request):
        model = request.getfixturevalue(model_fixture)
        Ld = make_discrete_lagrangian(model, rule)
        n, m = model.n, model.m_con
        worst = 0.0
        for q_tilde in sample_boundary_points(model, 20, rng):
            # E^T as float rows and float vectors, as the impact solver passes them
            ET = boundary_frame(model, q_tilde).ET
            s2 = float(10.0 ** rng.uniform(-7.0, -2.0))
            p_tilde = rng.normal(size=n - 1).tolist()
            residual_b, jac_b = _impact_b_system(
                Ld, model, q_tilde.tolist(), ET, p_tilde, float(rng.normal()), s2
            )
            z = rng.uniform(-3.0, 3.0, n + m).tolist()
            fd = fd_jacobian(residual_b, z)
            err = np.abs(np.array(jac_b(z)) - fd)
            worst = max(worst, np.max(err) / max(1.0, np.max(np.abs(fd))))
        assert worst <= 1e-6

    @pytest.mark.parametrize("rule", ["midpoint", "retraction-left"])
    @pytest.mark.parametrize("model_fixture", IMPACT_MODELS)
    def test_phase_a_jacobian_matches_finite_differences(self, model_fixture, rule, rng, request):
        model = request.getfixturevalue(model_fixture)
        Ld = make_discrete_lagrangian(model, rule)
        n, m = model.n, model.m_con
        worst = 0.0
        for q_tilde in sample_boundary_points(model, 20, rng):
            # z puts the boundary point q_k + alpha h w at q_tilde
            h = float(10.0 ** rng.uniform(-4.0, -1.0))
            alpha = float(rng.uniform(0.05, 0.95))
            w = rng.uniform(-3.0, 3.0, n)
            q_k = (q_tilde - alpha * h * w).tolist()
            residual_a, jac_a = _impact_a_system(Ld, model, q_k, rng.normal(size=n).tolist(), h)
            z = [alpha, *w.tolist(), *rng.uniform(-3.0, 3.0, m).tolist()]
            fd = fd_jacobian(residual_a, z)
            err = np.abs(np.array(jac_a(z)) - fd)
            worst = max(worst, np.max(err) / max(1.0, np.max(np.abs(fd))))
        assert worst <= 1e-6

    @pytest.mark.parametrize("rule", ["midpoint", "retraction-left"])
    @pytest.mark.parametrize("model_fixture", IMPACT_MODELS)
    def test_backward_step_jacobian_matches_finite_differences(self, model_fixture, rule, rng,
                                                               request):
        model = request.getfixturevalue(model_fixture)
        Ld = make_discrete_lagrangian(model, rule)
        n, m = model.n, model.m_con
        worst = 0.0
        for q_next in sample_interior_points(model, 20, rng):
            # z puts u one step of a discrete velocity w before q_next
            h = float(10.0 ** rng.uniform(-4.0, -1.0))
            w = rng.uniform(-3.0, 3.0, n)
            residual, jac = _minus_system(
                Ld, model, q_next.tolist(), rng.normal(size=n).tolist(), h
            )
            z = [*(q_next - h * w).tolist(), *rng.uniform(-3.0, 3.0, m).tolist()]
            fd = fd_jacobian(residual, z)
            err = np.abs(np.array(jac(z)) - fd)
            worst = max(worst, np.max(err) / max(1.0, np.max(np.abs(fd))))
        assert worst <= 1e-6

    @staticmethod
    def _assert_only_phase_a_differences(monkeypatch, Ld, model, q_k, p_k, h, rejected,
                                         prev=None):
        calls = []
        real = numerics.fd_jacobian

        def counting(F, x, *args, **kwargs):
            calls.append(len(x))
            return real(F, x, *args, **kwargs)

        monkeypatch.setattr(numerics, "fd_jacobian", counting)
        _, _, records = _resolve_impact_impl(
            Ld, model, q_k, p_k, h, rejected, DEFAULT_NEWTON_OPTIONS, 0, 0.0, prev
        )
        (_, phase_a, iters_a, _), (_, phase_b, iters_b, _), _ = records
        assert (phase_a, phase_b) == ("impact-A", "impact-B")
        assert iters_a >= 1
        # one finite-difference Jacobian per phase-A iteration, none after,
        # each of the alpha column alone
        assert len(calls) == iters_a
        assert calls == [1] * iters_a
        return records

    @staticmethod
    def _particle_impact():
        """Node k of a midpoint particle in free flight, h, the candidate it
        rejects and node k - 1, whose w = (q_k - q_{k-1}) / h is (1.7, -0.49)."""
        q_k = np.array([0.3, 0.049])
        p_k = np.array([1.7, -0.98])
        h = 0.1
        rejected = q_k + h * p_k - 0.5 * h * h * 9.8 * np.array([0.0, 1.0])
        prev = State(-1, -h, [0.13, 0.098], q_k.tolist(), [1.7, 0.0], [])
        return q_k, p_k, h, rejected, prev

    def test_particle_impact_differences_phase_a_only(self, monkeypatch, particle, particle_mid):
        q_k, p_k, h, rejected, _ = self._particle_impact()
        records = self._assert_only_phase_a_differences(
            monkeypatch, particle_mid, particle, q_k, p_k, h, rejected
        )
        # gravity is normal to the floor, so the straight arc's phase-B seed
        # is already the root
        assert records[1][2] == 0

    def test_particle_arc_seed_differences_phase_a_only(self, monkeypatch, particle,
                                                        particle_mid):
        records = self._assert_only_phase_a_differences(
            monkeypatch, particle_mid, particle, *self._particle_impact()
        )
        # the arc seeds of phases B and D are their roots
        assert [rec[2] for rec in records[1:]] == [0, 0]

    @staticmethod
    def _pendulum_impact(pendulum, pendulum_left):
        """Node k before the first impact of the retraction-left pendulum,
        still holding the penetrating v_k, h, and node k - 1."""
        h = 1e-3
        k = simulate(pendulum_left, pendulum, PENDULUM_Q0, PENDULUM_V0, 0.0, 1.5, h).impacts[0].k
        states = simulate(pendulum_left, pendulum, PENDULUM_Q0, PENDULUM_V0, 0.0, k * h, h).states
        st = states[-1]
        assert st.k == k and pendulum.boundary_gap(st.v) < 0
        return st, h, states[-2]

    def test_pendulum_impact_differences_phase_a_only(self, monkeypatch, pendulum, pendulum_left):
        st, h, _ = self._pendulum_impact(pendulum, pendulum_left)
        self._assert_only_phase_a_differences(
            monkeypatch, pendulum_left, pendulum, st.q, st.p, h, st.v
        )

    def test_pendulum_arc_seed_differences_phase_a_only(self, monkeypatch, pendulum,
                                                        pendulum_left):
        st, h, prev = self._pendulum_impact(pendulum, pendulum_left)
        self._assert_only_phase_a_differences(
            monkeypatch, pendulum_left, pendulum, st.q, st.p, h, st.v, prev
        )


def incoming_velocity(model, frame, rng):
    """A random discrete velocity at frame.q_tilde that crosses the boundary
    outward, inside the constraint distribution there, as a list of floats
    like the phase-A solution the impact solver passes on."""
    while True:
        w = rng.uniform(-3.0, 3.0, model.n)
        if model.m_con:
            om = np.array(model.omega(frame.q_tilde))
            w = w - np.linalg.pinv(om) @ (om @ w)
        if frame.normal @ w < -0.1:
            return w.tolist()


def bordered_kernel_system(model, frame, w_in):
    """The law's bordered system as a numpy matrix, and the metric M = Lvv:
    the rows [[E^T M, E^T omega^T], [omega, 0]] over [jump, lambda], then the
    normalising row [grad c^T, 0]."""
    n, m = model.n, model.m_con
    M = np.array(model.d2L(frame.q_tilde, w_in)[2], dtype=float)
    om = np.reshape(np.array(model.omega(frame.q_tilde), dtype=float), (m, n))
    ET = np.array(frame.ET)
    K = np.zeros((n + m, n + m))
    K[: n - 1, :n] = ET @ M
    K[: n - 1, n:] = ET @ om.T
    K[n - 1 : n - 1 + m, :n] = om
    K[-1, :n] = frame.normal
    return K, M


def impact_law(model, frame, w_in):
    """The model's elastic impact law at frame.q_tilde, as phase B computes
    it: (w, lam, law_rate) on the kernel line of one bordered solve; on a
    singular law, (w_in, zeros, grad c . w_in)."""
    line = _law_line(model, frame, w_in)
    rate_in = _dot(frame.normal, w_in)
    if line is None:
        return list(w_in), [0.0] * model.m_con, rate_in
    d, l, _ = line
    mu = _law_mu(line, w_in)
    return [a + mu * b for a, b in zip(w_in, d)], [mu * x for x in l], rate_in + mu


def numpy_impact_law(model, frame, w_in):
    """The impact law written with numpy matrix products, as a reference
    for the float implementation (a regular bordered system assumed)."""
    n = model.n
    K, M = bordered_kernel_system(model, frame, w_in)
    rhs = np.zeros(n + model.m_con)
    rhs[-1] = 1.0
    kernel = np.linalg.solve(K, rhs)
    w_in = np.array(w_in)
    d = kernel[:n]
    Md = M @ d
    mu = -2.0 * float(Md @ w_in) / float(Md @ d)
    return w_in + mu * d, mu * kernel[n:], float(frame.normal @ w_in) + mu


class TestImpactLaw:
    """The phase-B seed: the model's elastic impact law at the boundary."""

    def test_particle_seed_flips_only_vertical_rate(self, particle):
        frame = boundary_frame(particle, np.array([0.3, 0.0]))
        w, lam, law_rate = impact_law(particle, frame, [1.7, -2.3])
        assert w == [1.7, 2.3]
        assert lam == []
        assert law_rate == 2.3

    def test_singular_bordered_system_keeps_incoming_velocity(self, monkeypatch, particle):
        # a tangent basis that contains the normal: the rows [E^T M] and
        # [grad c^T, 0] are parallel, so no kernel direction crosses the boundary
        frame = BoundaryFrame(
            q_tilde=[0.3, 0.0], ET=[(0.0, 1.0)], P=[(0.0, 1.0)], normal=(0.0, 1.0)
        )
        w_in = [1.7, -2.3]
        raised = []
        real_solve = np.linalg.solve

        def solve(K, rhs):
            try:
                return real_solve(K, rhs)
            except np.linalg.LinAlgError:
                raised.append(K)
                raise

        monkeypatch.setattr(numerics.np.linalg, "solve", solve)
        w, lam, law_rate = impact_law(particle, frame, w_in)
        assert len(raised) == 1
        assert w == w_in
        assert lam == []
        assert law_rate == -2.3

    def test_vertical_ellipse_seed_flips_only_vertical_rate(self, ellipse_body, rng):
        for q_tilde in sample_boundary_points(ellipse_body, 20, rng):
            frame = boundary_frame(ellipse_body, q_tilde)
            w_in = incoming_velocity(ellipse_body, frame, rng)
            w, _, law_rate = impact_law(ellipse_body, frame, w_in)
            npt.assert_array_equal(w[:2], w_in[:2])
            npt.assert_allclose(w[2], -w_in[2], rtol=1e-15, atol=1e-15)
            assert law_rate == pytest.approx(np.dot(frame.normal, w), rel=1e-12, abs=1e-12)

    def test_pendulum_seed_in_constraint_kernel_keeps_kinetic_energy(self, pendulum, rng):
        for q_tilde in sample_boundary_points(pendulum, 20, rng):
            frame = boundary_frame(pendulum, q_tilde)
            w_in = incoming_velocity(pendulum, frame, rng)
            w, _, law_rate = impact_law(pendulum, frame, w_in)
            w, w_in = np.array(w), np.array(w_in)
            M = np.array(pendulum.d2L(q_tilde, w_in)[2])
            assert abs(np.array(pendulum.omega(q_tilde)) @ w).max() <= 1e-12 * np.abs(w).max()
            assert w @ M @ w == pytest.approx(w_in @ M @ w_in, rel=1e-12)
            assert law_rate > 0

    @pytest.mark.parametrize("model_fixture", ["ellipse_body_edge_slope", "star_body"])
    def test_seed_jump_in_kernel_keeps_kinetic_energy(self, model_fixture, rng, request):
        model = request.getfixturevalue(model_fixture)
        for q_tilde in sample_boundary_points(model, 20, rng):
            frame = boundary_frame(model, q_tilde)
            w_in = incoming_velocity(model, frame, rng)
            w, lam, law_rate = impact_law(model, frame, w_in)
            K, M = bordered_kernel_system(model, frame, w_in)
            jump = [a - b for a, b in zip(w, w_in)]
            x = np.array(jump + lam)
            assert np.abs(K[:-1] @ x).max() <= 1e-12 * max(1.0, np.abs(x).max())
            w, w_in_arr = np.array(w), np.array(w_in)
            assert w @ M @ w == pytest.approx(w_in_arr @ M @ w_in_arr, rel=1e-12)
            # grad c . d = 1, so the law's mu is the normal part of the jump
            normal = frame.normal
            mu = _dot(normal, jump)
            assert law_rate == pytest.approx(_dot(normal, w_in) + mu, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("model_fixture", IMPACT_MODELS)
    def test_float_law_matches_numpy_products(self, model_fixture, rng, request):
        model = request.getfixturevalue(model_fixture)
        for q_tilde in sample_boundary_points(model, 20, rng):
            frame = boundary_frame(model, q_tilde)
            w_in = incoming_velocity(model, frame, rng)
            w, lam, law_rate = impact_law(model, frame, w_in)
            w_ref, lam_ref, rate_ref = numpy_impact_law(model, frame, w_in)
            scale = max(1.0, np.abs(w_ref).max())
            npt.assert_allclose(w, w_ref, rtol=1e-12, atol=1e-12 * scale)
            npt.assert_allclose(lam, lam_ref, rtol=1e-12, atol=1e-12 * scale)
            assert law_rate == pytest.approx(rate_ref, rel=1e-12, abs=1e-12 * scale)
            assert all(type(x) is float for x in [*w, *lam, law_rate])

    @pytest.mark.parametrize("model_fixture", IMPACT_MODELS)
    def test_law_and_phase_b_make_one_numpy_call(self, model_fixture, rng, monkeypatch,
                                                 request):
        # the integrator's, the discrete Lagrangian's and the geometry's numpy
        # namespaces reduced to nothing: the boundary frame and the cotangent
        # maps make no numpy call, the law makes one linear solve on floats,
        # and the arc seed on the law's line, the phase-B residual (its
        # energy row through d3_w) and Jacobian make no numpy call.  The
        # law's bordered system is n + m square: the particle's 2 x 2 one is
        # the law's one np.linalg.solve, every other model's 3 x 3 one is
        # solved over floats with the numerics' numpy namespace empty too
        model = request.getfixturevalue(model_fixture)
        Ld = make_discrete_lagrangian(model, "midpoint")
        q_tilde = sample_boundary_points(model, 1, rng)[0].tolist()
        w_in = incoming_velocity(model, boundary_frame(model, q_tilde), rng)
        p = rng.normal(size=model.n).tolist()
        systems = []  # _solve_linear calls
        solves = []  # np.linalg.solve calls
        real_solve_linear = numerics._solve_linear

        def solve_linear(K, rhs):
            systems.append(all_floats(rhs, *K))
            return real_solve_linear(K, rhs)

        def solve(K, rhs):
            solves.append(all_floats(rhs, *K))
            return np.linalg.solve(K, rhs)

        lapack = model.n + model.m_con != 3
        numerics_np = types.SimpleNamespace()
        if lapack:
            numerics_np.linalg = types.SimpleNamespace(
                solve=solve, LinAlgError=np.linalg.LinAlgError
            )
        monkeypatch.setattr(numerics, "_solve_linear", solve_linear)
        monkeypatch.setattr(numerics, "np", numerics_np)
        monkeypatch.setattr(integrator, "np", types.SimpleNamespace())
        monkeypatch.setattr(discretization, "np", types.SimpleNamespace())
        monkeypatch.setattr(geometry, "np", types.SimpleNamespace())
        frame = boundary_frame(model, q_tilde)
        p_tilde = pullback_cotangent(frame, p)
        p_back = push_cotangent(frame, p_tilde)
        assert all_floats(frame.q_tilde, frame.normal, *frame.ET, *frame.P, p_tilde, p_back)
        line = _law_line(model, frame, w_in)
        law_rate = _dot(frame.normal, w_in) + _law_mu(line, w_in)
        assert systems == [True]
        assert solves == ([True] if lapack else [])
        d3_pre = Ld.d3_w(q_tilde, w_in, 1e-3)
        seed = _arc_seed_b(Ld, frame, line, d3_pre, w_in, [0.0] * model.n, 1e-3)
        residual_b, jac_b = _impact_b_system(Ld, model, q_tilde, frame.ET, p_tilde, 0.5, 1e-3)
        assert all_floats([law_rate, d3_pre], seed, residual_b(seed), *jac_b(seed))
        assert systems == [True]
        assert solves == ([True] if lapack else [])

    def test_particle_impact_law_solves_through_numerics(self, monkeypatch, particle,
                                                         particle_mid):
        # the law's kernel solve looks up numerics._solve_linear at call
        # time, so a replacement (the traced benchmark's hook) sees it
        in_law = []
        law_solves = []
        real_law_line = integrator._law_line
        real_solve_linear = numerics._solve_linear

        def law_line(*args):
            in_law.append(True)
            try:
                return real_law_line(*args)
            finally:
                in_law.pop()

        def solve_linear(J, F):
            if in_law:
                law_solves.append(len(F))
            return real_solve_linear(J, F)

        monkeypatch.setattr(integrator, "_law_line", law_line)
        monkeypatch.setattr(numerics, "_solve_linear", solve_linear)
        q_k = np.array([0.0, 0.049])
        p_k = np.array([0.0, -0.98])
        h = 0.1
        rejected = q_k + h * p_k - 0.5 * h * h * 9.8 * np.array([0.0, 1.0])
        resolve_impact(particle_mid, particle, q_k, p_k, h, rejected)
        # one bordered 2 x 2 system: the tangent row and the normal row
        assert law_solves == [2]

    def test_arc_seed_without_real_root_takes_law_coefficient(self, particle, particle_mid):
        # d3_pre = 0 lies above the particle's energy row, d3_w = -E < 0, so
        # the quadratic through the three samples has no real root
        frame = boundary_frame(particle, [0.3, 0.0])
        u_minus, drift, s2 = [1.7, -2.3], [0.0, -0.05], 1e-2
        line = _law_line(particle, frame, u_minus)
        d, l, _ = line
        mu_c = _law_mu(line, u_minus)
        samples = [particle_mid.d3_w(frame.q_tilde, [a + x * mu_c * b + c for a, b, c in
                                                     zip(u_minus, d, drift)], s2)
                   for x in (0.0, 0.5, 1.0)]
        assert not np.isreal(np.roots(np.polyfit([0.0, 0.5, 1.0], samples, 2))).any()
        seed = _arc_seed_b(particle_mid, frame, line, 0.0, u_minus, drift, s2)
        expected = [a + mu_c * b + c for a, b, c in zip(u_minus, d, drift)]
        npt.assert_allclose(seed, expected + [mu_c * x for x in l], rtol=1e-15)
        assert seed == [1.7, 2.25]

    def test_pendulum_phase_b_solves_once_per_attempt(self, monkeypatch, pendulum):
        # criterion-4 configuration up to just past its first impact (t = 1.23)
        Ld = make_discrete_lagrangian(pendulum, "retraction-left")
        attempts = []  # Newton solves per impact attempt
        inside = []
        real_attempt = integrator._attempt_impact
        real_newton = integrator.newton_solve

        def attempt(*args):
            attempts.append(0)
            inside.append(True)
            try:
                return real_attempt(*args)
            finally:
                inside.pop()

        def newton(*args, **kwargs):
            if inside:
                attempts[-1] += 1
            return real_newton(*args, **kwargs)

        monkeypatch.setattr(integrator, "_attempt_impact", attempt)
        monkeypatch.setattr(integrator, "newton_solve", newton)
        traj = simulate(Ld, pendulum, PENDULUM_Q0, PENDULUM_V0, 0.0, 1.3, 1e-4)
        assert len(traj.impacts) == 1
        # phases A, B and D, one Newton solve each
        assert attempts == [3]

    def test_singular_law_is_no_elastic_rebound(self, particle):
        # a frame whose "tangent" column is the floor normal: the law's kernel
        # direction d/dx never crosses the boundary, so no bounce exists
        normal_frame = dataclasses.replace(
            particle,
            tangent_basis=lambda q: np.array([[0.0], [1.0]]),
            projection=lambda q: np.array([[0.0, 1.0]]),
        )
        Ld = make_discrete_lagrangian(normal_frame, "midpoint")
        q_k = np.array([0.3, 0.049])
        p_k = np.array([1.7, -0.98])
        h = 0.1
        rejected = q_k + h * p_k - 0.5 * h * h * 9.8 * np.array([0.0, 1.0])
        with pytest.raises(NoElasticRebound) as failure:
            resolve_impact(Ld, normal_frame, q_k, p_k, h, rejected)
        assert failure.value.law_rate < 0
        assert failure.value.k == 0


class TestSimulate:
    def test_rejects_bad_time_arguments(self, particle, particle_mid):
        q0 = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            simulate(particle_mid, particle, q0, np.zeros(2), 1.0, 0.5, 1e-2)
        with pytest.raises(ValueError):
            simulate(particle_mid, particle, q0, np.zeros(2), 0.0, 1.0, -1e-2)
        with pytest.raises(ValueError):
            simulate(particle_mid, particle, q0, np.zeros(2), 0.0, 1e-4, 1e-2)

    @pytest.mark.parametrize("t_final, h, field", [
        (math.inf, 1e-2, "t_final"),
        (1e300, 1e-300, "h"),  # the step count overflows a float
        (1.0, math.nan, "h"),
    ])
    def test_time_span_outside_the_rule_names_its_field(self, particle, particle_mid,
                                                        t_final, h, field):
        q0 = np.array([0.0, 1.0])
        with pytest.raises(ParameterError) as info:
            simulate(particle_mid, particle, q0, np.zeros(2), 0.0, t_final, h)
        assert info.value.field == field

    def test_smooth_step_residuals_reassertable(self, pendulum, pendulum_left):
        h = 1e-3
        traj = simulate(pendulum_left, pendulum, PENDULUM_Q0, PENDULUM_V0, 0.0, 0.5, h)
        assert not traj.impacts
        for st in traj.states[1:]:
            r1 = (
                np.array(pendulum_left.d1(st.q, st.v, h))
                + st.p
                - np.array(pendulum.omega(st.q)).T @ st.lam
            )
            assert np.max(np.abs(r1)) <= 1e-10
            assert np.max(np.abs(omega_dplus(pendulum, st.q, st.v, h))) <= 1e-10

    def test_impact_event_invariants(self, particle, particle_mid):
        h = 1e-3
        traj = simulate(
            particle_mid, particle, np.array([0.0, 1.0]), np.array([2.0, 0.0]), 0.0, 2.0, h
        )
        assert traj.impacts
        e0 = discrete_energy(particle_mid, traj.states[0].q, traj.states[0].v, h)
        for ev in traj.impacts:
            assert 0.0 < ev.alpha < 1.0
            assert abs(particle.boundary_gap(ev.q_tilde)) <= 1e-8
            assert ev.energy_jump <= 1e-7 * max(1.0, abs(e0))
            st = traj.states[ev.k]
            assert st.t < ev.t_impact < st.t + h
            npt.assert_array_equal(st.v, ev.q_tilde)

    def test_tangential_momentum_constant_across_impacts(self, particle, particle_mid):
        traj = simulate(
            particle_mid, particle, np.array([0.0, 1.0]), np.array([2.0, 0.0]), 0.0, 2.0, 1e-3
        )
        px = [st.p[0] for st in traj.states[1:]]
        assert np.max(np.abs(np.diff(px))) <= 1e-10

    def test_trajectory_times_strictly_increasing(self, particle, particle_mid):
        traj = simulate(
            particle_mid, particle, np.array([0.0, 1.0]), np.array([2.0, 0.0]), 0.0, 1.0, 1e-2
        )
        times = [st.t for st in traj.states]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert len(traj.states) == 101

    def test_bitwise_determinism(self, pendulum, pendulum_left):
        kwargs = dict(t0=0.0, t_final=1.5, h=1e-3)
        t1 = simulate(pendulum_left, pendulum, PENDULUM_Q0, PENDULUM_V0, **kwargs)
        t2 = simulate(pendulum_left, pendulum, PENDULUM_Q0, PENDULUM_V0, **kwargs)
        assert len(t1.impacts) == len(t2.impacts) == 1
        for s1, s2 in zip(t1.states, t2.states):
            assert (s1.q == s2.q).all() and (s1.v == s2.v).all()
            assert (s1.p == s2.p).all() and (s1.lam == s2.lam).all()
        for e1, e2 in zip(t1.impacts, t2.impacts):
            assert e1.alpha == e2.alpha
            assert (np.array(e1.v_tilde) == e2.v_tilde).all()

    def test_solver_stats_counted_per_step(self, particle, particle_mid):
        traj = simulate(
            particle_mid, particle, np.array([0.0, 1.0]), np.zeros(2), 0.0, 0.1, 1e-2
        )
        assert len(traj.solver_stats) == 10
        assert set(traj.solver_stats.phases) == {"step"}

    def test_stored_residuals_meet_tolerance(self, particle, particle_mid):
        traj = simulate(
            particle_mid, particle, np.array([0.0, 1.0]), np.array([2.0, 0.0]), 0.0, 2.0, 1e-3
        )
        assert traj.impacts
        # the solve whose v_k an impact deleted converged too
        for phase, residual in zip(traj.solver_stats.phases, traj.solver_stats.residuals):
            assert residual <= 1e-10, phase
        assert traj.solver_stats.phases.count("impact-A") == len(traj.impacts)


def assert_state_equal(a, b):
    assert (a.k, a.t) == (b.k, b.t)
    for name in ("q", "v", "p", "lam"):
        npt.assert_array_equal(getattr(a, name), getattr(b, name))


class TestTrajectoryColumns:
    """simulate stores float64 columns, one row per node k; `states` views
    the rows as State objects."""

    def test_memory_per_stored_state(self, pendulum, pendulum_left):
        # 5000 steps of the pendulum_long configuration: the columns and the
        # solver records keep about 100 B per state
        gc.collect()
        tracemalloc.start()
        try:
            traj = simulate(pendulum_left, pendulum, PENDULUM_Q0, PENDULUM_V0, 0.0, 0.5, 1e-4)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(traj.states) == 5001
        assert kept / len(traj.states) <= 160

    def test_states_view_reads_rows_bitwise(self, pendulum, pendulum_left):
        traj = simulate(pendulum_left, pendulum, PENDULUM_Q0, PENDULUM_V0, 0.0, 1.5, 1e-3)
        states = traj.states
        assert len(states) == len(traj.t) == 1501
        assert traj.q.shape == traj.v.shape == traj.p.shape == (1501, 2)
        assert traj.lam.shape == (1501, 1)
        for k, st in enumerate(states):
            assert st.k == k and st.t == traj.t[k]
            for name in ("q", "v", "p", "lam"):
                npt.assert_array_equal(getattr(st, name), getattr(traj, name)[k])
        assert_state_equal(states[-1], states[1500])
        tail = states[1495::2]
        assert len(tail) == 3
        assert [st.k for st in tail] == [1495, 1497, 1499]
        assert [st.k for st in tail[::-1]] == [1499, 1497, 1495]
        assert_state_equal(tail[1], states[1497])
        with pytest.raises(IndexError):
            states[1501]

    def test_impact_rewrites_row(self, pendulum, pendulum_left):
        traj = simulate(pendulum_left, pendulum, PENDULUM_Q0, PENDULUM_V0, 0.0, 5.0, 1e-3)
        assert len(traj.impacts) == 3
        for ev in traj.impacts:
            npt.assert_array_equal(traj.v[ev.k], ev.q_tilde)
            npt.assert_array_equal(traj.lam[ev.k], ev.lambda_A)
            npt.assert_array_equal(traj.q[ev.k + 1], ev.v_tilde)

    def test_error_carries_last_good_node(self, monkeypatch, particle, particle_mid):
        # a negated phase-A Jacobian makes every Newton step an ascent
        # direction, so the first impact-A solve stalls at its seed whatever
        # the iteration budget
        from nhvi import NewtonFailure

        real_system = integrator._impact_a_system

        def ascending_system(*args):
            residual_a, jac_a = real_system(*args)
            return residual_a, lambda z: [[-x for x in row] for row in jac_a(z)]

        h = 1e-2
        monkeypatch.setattr(integrator, "_impact_a_system", ascending_system)
        with pytest.raises(NewtonFailure) as failure:
            simulate(particle_mid, particle, np.array([0.0, 1.0]), np.zeros(2), 0.0, 1.0, h)
        assert failure.value.phase == "impact-A"
        monkeypatch.undo()
        st = failure.value.state
        traj = simulate(particle_mid, particle, np.array([0.0, 1.0]), np.zeros(2), 0.0, 1.0, h)
        k = traj.impacts[0].k
        assert (failure.value.k, st.k) == (k, k)
        # node k as it stood before the impact rewrote its v and lam
        npt.assert_array_equal(st.q, traj.q[k])
        npt.assert_array_equal(st.p, traj.p[k])
        assert particle.boundary_gap(st.v) < 0


class TestEdgeSlopeVariant:
    def test_coupled_contact_conserves_energy_and_spins_up(
        self, ellipse_body_edge_slope
    ):
        # with the edge-slope frame a bounce exchanges momentum between spin
        # and vertical motion, so the spin rate changes across the impact
        model = ellipse_body_edge_slope
        Ld = make_discrete_lagrangian(model, "midpoint")
        traj = simulate(
            Ld, model, np.array([np.pi / 2, 0.0, 3.5]), np.array([-3.0, 2.0, 0.0]),
            0.0, 2.0, 1e-2,
        )
        assert len(traj.impacts) == 2
        for ev in traj.impacts:
            assert ev.energy_jump <= 1e-7
        ev = traj.impacts[0]
        h = traj.h
        q_tilde, v_tilde = np.array(ev.q_tilde), np.array(ev.v_tilde)
        w_in = (q_tilde - traj.states[ev.k].q) / (ev.alpha * h)
        w_out = (v_tilde - q_tilde) / ((1.0 - ev.alpha) * h)
        assert abs(w_out[0] - w_in[0]) > 0.1  # spin rate changed
        assert abs(w_out[1] - w_in[1]) < 1e-6  # horizontal rate preserved


class TestErrorPaths:
    def test_alpha_out_of_range_on_inconsistent_inputs(self, particle, particle_mid):
        from nhvi import AlphaOutOfRange

        # momentum points away from the floor, so the crossing equation has
        # no root inside the step; the claimed penetration is inconsistent
        with pytest.raises(AlphaOutOfRange):
            resolve_impact(
                particle_mid,
                particle,
                np.array([0.0, 0.01]),
                np.array([0.0, 5.0]),
                0.1,
                np.array([0.0, -0.1]),
            )

    def test_persistent_penetration_after_one_attempt(self, monkeypatch):
        # a particle over a valley floor whose first impact, at step 1, lands
        # below the rising floor: the collision is attempted once, then the
        # run aborts
        cfg = config_from_dict(VALLEY_DOC)
        model = valley_particle(build_model(cfg))
        Ld = make_discrete_lagrangian(model, cfg.rule)
        attempts = []
        real_attempt = integrator._attempt_impact

        def attempt(*args):
            attempts.append(args)
            return real_attempt(*args)

        monkeypatch.setattr(integrator, "_attempt_impact", attempt)
        with pytest.raises(PersistentPenetration) as failure:
            simulate(Ld, model, np.array(cfg.q0), np.array(cfg.v0),
                     cfg.t0, cfg.t_final, cfg.h, cfg.solver)
        assert failure.value.state.k == 1
        assert len(attempts) == 1
        # keyed to the candidate the step rejected
        npt.assert_array_equal(attempts[0][5], failure.value.state.v)

    @pytest.mark.parametrize("gravity", [1e300, 1e200])
    def test_overflowing_energy_is_a_typed_failure(self, gravity):
        # the bundled particle under an absurd gravity: the first impact's
        # energy overflows, which must surface as an NhviError, not as a
        # numpy warning (raised here as an error)
        doc = json.loads(bundled_config_path("particle").read_text())
        doc["model"]["gravity"] = gravity
        doc["t_final"] = doc["t0"] + 20 * doc["h"]
        cfg = config_from_dict(doc)
        model = build_model(cfg)
        Ld = make_discrete_lagrangian(model, cfg.rule)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationFailure):
                simulate(Ld, model, cfg.q0, cfg.v0, cfg.t0, cfg.t_final, cfg.h, cfg.solver)


# model fixture -> (q(0), v(0), h, t_final) of a run with an impact
FLOAT_RUNS = {
    "particle": ([0.0, 1.0], [2.0, 0.0], 1e-2, 1.0),
    "ellipse_body": (ELLIPSE_Q0, ELLIPSE_V0, 1e-2, 2.0),
    "ellipse_body_edge_slope": (ELLIPSE_Q0, ELLIPSE_V0, 1e-2, 2.0),
    "star_body": ([0.3, 0.0, 2.0], [0.5, 0.0, 0.0], 1e-2, 1.0),
    "pendulum": (PENDULUM_Q0, PENDULUM_V0, 1e-3, 1.5),
}


def float_node(traj, k):
    """Row k of a trajectory as a State of Python floats."""
    rows = (getattr(traj, name)[k].tolist() for name in ("q", "v", "p", "lam"))
    return State(k, float(traj.t[k]), *rows)


def all_floats(*vectors):
    return all(type(x) is float for vec in vectors for x in vec)


class TestPythonFloats:
    """From Python-float nodes the step and the impact solves stay in Python
    floats: no numpy scalar enters them, and each smooth Newton iteration
    makes one linear solve, on a system of floats."""

    @pytest.mark.parametrize("rule", ["midpoint", "retraction-left"])
    @pytest.mark.parametrize("model_fixture", list(FLOAT_RUNS))
    def test_step_and_impact_return_python_floats(self, model_fixture, rule, monkeypatch,
                                                  request):
        model = request.getfixturevalue(model_fixture)
        Ld = make_discrete_lagrangian(model, rule)
        q0, v0, h, t_final = FLOAT_RUNS[model_fixture]
        k = simulate(Ld, model, q0, v0, 0.0, t_final, h).impacts[0].k
        # stop before step k, so node k still holds the penetrating v_k
        traj = simulate(Ld, model, q0, v0, 0.0, k * h, h)
        before, node = float_node(traj, k - 1), float_node(traj, k)
        assert model.boundary_gap(node.v) < 0

        systems = []  # _solve_linear calls
        solves = []  # np.linalg.solve calls
        real_solve_linear = numerics._solve_linear
        real_solve = np.linalg.solve

        def solve_linear(J, F):
            systems.append(all_floats(F, *J))
            return real_solve_linear(J, F)

        def solve(J, F):
            solves.append(all_floats(F, *J))
            return real_solve(J, F)

        monkeypatch.setattr(numerics, "_solve_linear", solve_linear)
        monkeypatch.setattr(numerics.np.linalg, "solve", solve)
        new, res = _step_plus_impl(Ld, model, before, h, DEFAULT_NEWTON_OPTIONS)
        assert res.iterations >= 1
        assert systems == [True] * res.iterations
        # the smooth step is n + m square: only the particle's 2 x 2 one
        # reaches LAPACK, every other model's 3 x 3 one is solved over floats
        lapack = model.n + model.m_con != 3
        assert solves == ([True] * res.iterations if lapack else [])
        assert all_floats([new.t, res.residual_norm], new.q, new.v, new.p, new.lam, res.x)

        event, after = resolve_impact(Ld, model, node.q, node.p, h, node.v, k=k, t_k=node.t)
        scalars = [event.alpha, event.t_impact, event.compat_residual, event.energy_jump]
        vectors = (event.q_tilde, event.v_tilde, event.w_in, event.w_out, event.p_tilde,
                   event.lambda_A, event.lambda_B)
        assert all_floats(scalars, *vectors)
        assert all_floats([after.t], after.q, after.v, after.p, after.lam)


BALL = dict(
    name="ball1d",
    n=1,
    m_con=0,
    coordinate_names=("y",),
    lagrangian=lambda q, v: 0.5 * v[0] * v[0] - 9.8 * q[0],
    dL_dq=lambda q, v: np.array([-9.8]),
    dL_dv=lambda q, v: v.copy(),
    d2L=lambda q, v: (np.zeros((1, 1)), np.zeros((1, 1)), np.ones((1, 1))),
    omega=lambda q: np.empty((0, 1)),
    boundary_gap=lambda q: q[0],
    boundary_gap_grad=lambda q: np.array([1.0]),
    tangent_basis=lambda q: np.empty((1, 0)),
    projection=lambda q: np.empty((0, 1)),
)


# BALL with its callables returning floats, tuples and row tuples
BALL_TUPLES = dict(
    BALL,
    dL_dq=lambda q, v: (-9.8,),
    dL_dv=lambda q, v: (v[0],),
    d2L=lambda q, v: (((0.0,),), ((0.0,),), ((1.0,),)),
    omega=lambda q: (),
)


def omega_calls(model, rule, q0, v0, h, t_final):
    """The model.omega calls of each step of the run from (q0, v0), as a
    Counter of ("step" | "impact", calls): every node is advanced by one
    `step_plus` or `resolve_impact` call on a model whose omega counts."""
    calls = []

    def omega(q):
        calls.append(q)
        return model.omega(q)

    counted = dataclasses.replace(model, omega=omega)
    Ld = make_discrete_lagrangian(counted, rule)
    q, v, p = initial_discretize(counted, rule, q0, v0, h)
    state = State(0, 0.0, q, v, p, [0.0] * model.m_con)
    counts = Counter()
    for _ in range(round(t_final / h)):
        calls.clear()
        if model.boundary_gap(state.v) < -geometry.GRAZING_TOL:
            _, state = resolve_impact(Ld, counted, state.q, state.p, h, state.v)
            counts["impact", len(calls)] += 1
        else:
            state = step_plus(Ld, counted, state, h)
            counts["step", len(calls)] += 1
    return counts


class TestOmegaCalls:
    # The counts the traced benchmark's models.omega.calls_per_step reads.
    # An unconstrained model evaluates omega only for the impact law; the
    # pendulum evaluates it once per smooth step, and in phase A, the law,
    # phase B and phase D of an impact.
    @pytest.mark.parametrize("rule", ["midpoint", "retraction-left"])
    @pytest.mark.parametrize("model_fixture, per_step, per_impact",
                             [("particle", 0, 1), ("ellipse_body", 0, 1), ("pendulum", 1, 4)])
    def test_omega_calls_per_node(self, model_fixture, per_step, per_impact, rule, request):
        model = request.getfixturevalue(model_fixture)
        q0, v0, h, t_final = FLOAT_RUNS[model_fixture]
        counts = omega_calls(model, rule, np.array(q0), np.array(v0), h, t_final)
        assert set(counts) == {("step", per_step), ("impact", per_impact)}


class TestCustomModel:
    def test_hessian_blocks_are_required(self):
        from nhvi import MechanicalModel

        fields = {key: value for key, value in BALL.items() if key != "d2L"}
        with pytest.raises(TypeError, match="d2L"):
            MechanicalModel(**fields)

    def test_one_dof_bouncing_ball(self):
        from nhvi import MechanicalModel, build_report

        ball = MechanicalModel(**BALL)
        Ld = make_discrete_lagrangian(ball, "midpoint")
        traj = simulate(Ld, ball, np.array([1.0]), np.zeros(1), 0.0, 1.0, 1e-3)
        rep = build_report(traj, Ld, ball)
        assert rep.impact_count == 1
        ev = traj.impacts[0]
        assert abs(ev.t_impact - np.sqrt(2.0 / 9.8)) <= 2e-3
        assert ev.energy_jump <= 1e-10
        assert len(ev.p_tilde) == 0

    @pytest.mark.parametrize("rule", ["midpoint", "retraction-left"])
    def test_numpy_and_tuple_callables_run_bitwise_equal(self, rule):
        # the integrator only indexes, iterates and zips what a model returns
        from nhvi import ImpactEvent, MechanicalModel

        runs = []
        for fields in (BALL, BALL_TUPLES):
            ball = MechanicalModel(**fields)
            Ld = make_discrete_lagrangian(ball, rule)
            runs.append(simulate(Ld, ball, np.array([1.0]), np.zeros(1), 0.0, 1.0, 1e-3))
        a, b = runs
        (ev_a,), (ev_b,) = a.impacts, b.impacts
        for name in ("t", "q", "v", "p", "lam"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
        for f in dataclasses.fields(ImpactEvent):
            bits = [np.array(getattr(ev, f.name), dtype=float).tobytes() for ev in (ev_a, ev_b)]
            assert bits[0] == bits[1], f.name
        assert a.solver_stats.phases == b.solver_stats.phases
        assert a.solver_stats.iterations == b.solver_stats.iterations
        assert a.solver_stats.residuals.tobytes() == b.solver_stats.residuals.tobytes()

"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The long-horizon pendulum experiment (criterion 4)
integrates one million implicit steps and dominates the module's runtime.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from nhvi import (
    State,
    boundary_frame,
    discrete_energy,
    fd_jacobian,
    make_discrete_lagrangian,
    make_particle,
    make_pendulum,
    resolve_impact,
    simulate,
    step_minus,
    step_plus,
    pullback_cotangent,
    push_cotangent,
    ParticleParams,
    PendulumParams,
)
from nhvi.discretization import omega_dplus
from nhvi.models import sample_boundary_points, sample_interior_points
from tests.conftest import ELLIPSE_Q0, ELLIPSE_V0, PENDULUM_Q0, PENDULUM_V0


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


@pytest.fixture(scope="module")
def pendulum_fig3(pendulum_mod, pendulum_left_mod):
    started = time.perf_counter()
    traj = simulate(
        pendulum_left_mod, pendulum_mod, PENDULUM_Q0, PENDULUM_V0, 0.0, 5.0, 1e-3
    )
    return traj, time.perf_counter() - started


@pytest.fixture(scope="module")
def pendulum_mod():
    return make_pendulum(PendulumParams())


@pytest.fixture(scope="module")
def pendulum_left_mod(pendulum_mod):
    return make_discrete_lagrangian(pendulum_mod, "retraction-left")


def test_criterion_01_ellipse_single_bounce(ellipse_body, ellipse_mid):
    with criterion(1, "ellipse t in [0,2] has exactly 1 impact in under 1 s"):
        started = time.perf_counter()
        traj = simulate(ellipse_mid, ellipse_body, ELLIPSE_Q0, ELLIPSE_V0, 0.0, 2.0, 1e-2)
        elapsed = time.perf_counter() - started
        assert len(traj.impacts) == 1
        assert elapsed < 1.0


def test_criterion_02_ellipse_long_run(ellipse_body, ellipse_mid):
    with criterion(2, "ellipse t in [0,25]: 17 +/- 1 impacts, tight energy behavior, < 10 s"):
        started = time.perf_counter()
        traj = simulate(ellipse_mid, ellipse_body, ELLIPSE_Q0, ELLIPSE_V0, 0.0, 25.0, 1e-2)
        elapsed = time.perf_counter() - started
        assert abs(len(traj.impacts) - 17) <= 1
        from nhvi import build_report

        rep = build_report(traj, ellipse_mid, ellipse_body)
        assert rep.energy_drift_rel <= 0.05
        for ev in traj.impacts:
            assert abs(ev.energy_jump) <= 1e-7
        assert elapsed < 10.0


def test_criterion_03_pendulum_three_collisions(pendulum_fig3):
    with criterion(3, "pendulum t in [0,5], h=1e-3: 3 +/- 1 impacts in under 5 s"):
        traj, elapsed = pendulum_fig3
        assert abs(len(traj.impacts) - 3) <= 1
        assert elapsed < 5.0


def test_criterion_05_ballistic_oracle():
    with criterion(5, "dropped particle: impact time, reflected speed, tangential momentum"):
        h = 1e-3
        model = make_particle(ParticleParams(mass=1.0, gravity=9.8))
        Ld = make_discrete_lagrangian(model, "midpoint")
        traj = simulate(Ld, model, np.array([0.0, 1.0]), np.zeros(2), 0.0, 1.0, h)
        assert len(traj.impacts) == 1
        ev = traj.impacts[0]
        assert abs(ev.t_impact - np.sqrt(2.0 / 9.8)) <= 2 * h
        st = traj.states[ev.k]
        e_pre = discrete_energy(Ld, st.q, st.v, ev.alpha * h)
        e_post = discrete_energy(Ld, ev.q_tilde, ev.v_tilde, (1.0 - ev.alpha) * h)
        # boundary sits at zero potential, so E = m|v|^2/2 there
        speed_pre = np.sqrt(2.0 * e_pre / 1.0)
        speed_post = np.sqrt(2.0 * e_post / 1.0)
        assert abs(speed_pre - speed_post) <= 1e-8
        assert abs(traj.states[ev.k + 1].p[0] - st.p[0]) <= 1e-10


def test_criterion_06_phase_a_quadratic_oracle():
    with criterion(6, "impact fraction matches the closed-form quadratic root"):
        model = make_particle(ParticleParams(mass=1.0, gravity=9.8))
        Ld = make_discrete_lagrangian(model, "midpoint")
        q_k = np.array([0.0, 0.049])
        p_k = np.array([0.0, -0.98])
        h = 0.1
        rejected = q_k + h * p_k - 0.5 * h * h * 9.8 * np.array([0.0, 1.0])
        event, _ = resolve_impact(Ld, model, q_k, p_k, h, rejected)
        # m y + s p_y - s^2 m g / 2 = 0, s = alpha h  =>  alpha = sqrt(2) - 1
        assert abs(event.alpha - (np.sqrt(2.0) - 1.0)) <= 1e-9


def test_criterion_07_derivative_suite(particle, ellipse_body, pendulum):
    with criterion(7, "analytic partials match central differences at 100 points per model/rule"):
        rng = np.random.default_rng(7)
        for model in (particle, ellipse_body, pendulum):
            for rule in ("midpoint", "retraction-left"):
                Ld = make_discrete_lagrangian(model, rule)
                worst = 0.0
                for q in sample_interior_points(model, 100, rng):
                    h = float(rng.uniform(1e-4, 1e-1))
                    v = q + h * rng.uniform(-1.0, 1.0, model.n)
                    scale = max(1.0, abs(Ld.eval(q, v, h)))
                    fd1 = fd_jacobian(lambda x: np.array([Ld.eval(x, v, h)]), q, 1e-7)[0]
                    fd2 = fd_jacobian(lambda x: np.array([Ld.eval(q, x, h)]), v, 1e-7)[0]
                    fd3 = fd_jacobian(
                        lambda x: np.array([Ld.eval(q, v, float(x[0]))]),
                        np.array([h]),
                        1e-7,
                    )[0, 0]
                    err = max(
                        np.max(np.abs(fd1 - Ld.d1(q, v, h))),
                        np.max(np.abs(fd2 - Ld.d2(q, v, h))),
                        abs(fd3 - Ld.d3(q, v, h)),
                    )
                    worst = max(worst, err / scale)
                assert worst <= 1e-6, f"{model.name}/{rule}: {worst:.3e}"


def test_criterion_08_geometry_suite(particle, ellipse_body, ellipse_body_edge_slope, pendulum):
    with criterion(8, "frame identities at 100 boundary points per model; omega annihilation"):
        rng = np.random.default_rng(8)
        for model in (particle, ellipse_body, ellipse_body_edge_slope, pendulum):
            eye = np.eye(model.n - 1)
            for q in sample_boundary_points(model, 100, rng):
                frame = boundary_frame(model, q)
                P, E = np.array(frame.P), np.transpose(frame.ET)
                assert np.max(np.abs(P @ E - eye)) <= 1e-12
                p_tilde = rng.standard_normal(model.n - 1)
                back = pullback_cotangent(frame, push_cotangent(frame, p_tilde))
                assert np.max(np.abs(back - p_tilde)) <= 1e-12
        for q in sample_interior_points(pendulum, 100, rng):
            f_theta = pendulum.omega(q)[0][0]
            assert np.array(pendulum.omega(q)) @ np.array([1.0, f_theta]) == 0.0


def test_criterion_09_constraint_suite(pendulum_mod, pendulum_left_mod, pendulum_fig3):
    with criterion(9, "pendulum run keeps discrete constraint residuals at 1e-10"):
        traj, _ = pendulum_fig3
        h = traj.h
        events = {ev.k: ev for ev in traj.impacts}
        worst = 0.0
        for st in traj.states[1:]:
            ev = events.get(st.k)
            s = ev.alpha * h if ev is not None else h
            worst = max(
                worst, np.max(np.abs(omega_dplus(pendulum_mod, st.q, st.v, s)))
            )
        for ev in traj.impacts:
            worst = max(
                worst,
                np.max(
                    np.abs(
                        omega_dplus(
                            pendulum_mod, ev.q_tilde, ev.v_tilde, (1 - ev.alpha) * h
                        )
                    )
                ),
            )
        assert worst <= 1e-10
        # the constraint rows phases A and B solve, at their discrete velocities
        worst_w = 0.0
        for ev in traj.impacts:
            worst_w = max(
                worst_w,
                np.max(np.abs(np.array(pendulum_mod.omega(traj.q[ev.k])) @ ev.w_in)),
                np.max(np.abs(np.array(pendulum_mod.omega(ev.q_tilde)) @ ev.w_out)),
            )
        assert traj.impacts and worst_w <= 1e-10


def test_criterion_10_reversibility_suite():
    with criterion(10, "backward step inverts the forward step on 100 random states"):
        model = make_particle(ParticleParams(mass=1.0, gravity=9.8))
        Ld = make_discrete_lagrangian(model, "midpoint")
        rng = np.random.default_rng(10)
        h = 0.05
        worst = 0.0
        for _ in range(100):
            q = rng.uniform(-1.0, 1.0, 2) + np.array([0.0, 3.0])
            v = q + 0.1 * rng.uniform(-1.0, 1.0, 2)
            p = -np.array(Ld.d1(q, v, h))
            st = State(k=0, t=0.0, q=q, v=v, p=p, lam=np.zeros(0))
            nxt = step_plus(Ld, model, st, h)
            back = step_minus(Ld, model, nxt.q, nxt.p, h)
            worst = max(
                worst,
                float(np.max(np.abs(back.q_prev - q))),
                float(np.max(np.abs(back.p_prev - p))),
            )
        assert worst <= 1e-8


def test_criterion_11_free_motion_suite():
    with criterion(11, "free particle extrapolates exactly; zero-gain pendulum pins phi"):
        model = make_particle(ParticleParams(mass=1.0, gravity=0.0))
        Ld = make_discrete_lagrangian(model, "midpoint")
        rng = np.random.default_rng(11)
        for _ in range(100):
            q = rng.uniform(-1.0, 1.0, 2) + np.array([0.0, 3.0])
            v = q + 0.1 * rng.uniform(-1.0, 1.0, 2)
            st = State(k=0, t=0.0, q=q, v=v, p=Ld.d2(q, v, 0.05), lam=np.zeros(0))
            nxt = step_plus(Ld, model, st, 0.05)
            assert np.max(np.abs(nxt.v - (2.0 * v - q))) <= 1e-12

        planar = make_pendulum(PendulumParams(f=lambda theta: 0.0))
        Lp = make_discrete_lagrangian(planar, "retraction-left")
        traj = simulate(
            Lp, planar, np.array([0.8 * np.pi, 0.3]), np.array([0.2, 0.0]), 0.0, 1.0, 1e-3
        )
        assert len(traj.states) == 1001
        phis = np.array([st.q[1] for st in traj.states])
        assert np.max(np.abs(phis - 0.3)) <= 1e-9


@pytest.mark.slow
def test_criterion_04_pendulum_long_horizon(pendulum_mod, pendulum_left_mod):
    with criterion(4, "pendulum t in [0,100], h=1e-4: 76 +/- 3 impacts, bounded drift, < 5 min"):
        started = time.perf_counter()
        traj = simulate(
            pendulum_left_mod, pendulum_mod, PENDULUM_Q0, PENDULUM_V0, 0.0, 100.0, 1e-4
        )
        elapsed = time.perf_counter() - started
        assert abs(len(traj.impacts) - 76) <= 3
        from nhvi import build_report

        rep = build_report(traj, pendulum_left_mod, pendulum_mod)
        assert rep.energy_drift_rel <= 0.05
        assert elapsed < 300.0

import dataclasses
import gc
import math
import struct
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from nhvi import (
    PendulumParams,
    RunReport,
    Trajectory,
    build_report,
    discrete_energy,
    energy_series,
    make_discrete_lagrangian,
    simulate,
)
from nhvi.diagnostics import _BLOCK, PHASE_MEANS, recompute_solve_residuals
from nhvi.integrator import SolverStats
from nhvi.numerics import DEFAULT_NEWTON_OPTIONS
from tests.conftest import ELLIPSE_Q0, ELLIPSE_V0, PENDULUM_Q0, PENDULUM_V0


def single_state_trajectory(Ld, q, h):
    """The one node (q, q, d2(q, q, h)) at t = 0, as one-row columns."""
    rows = np.array([q], dtype=float)
    return Trajectory(t=np.zeros(1), q=rows, v=rows, p=np.array([Ld.d2(q, q, h)]),
                      lam=np.zeros((1, 0)), impacts=[], h=h, solver_stats=SolverStats())


def reference_omega_residual(model, q, w):
    """Largest |omega(q) w| over the constraints at discrete velocity w, as a
    loop over Python floats: each rate sums omega_ij w_j from 0.0, left to
    right, and a NaN rate makes the result NaN."""
    worst = 0.0
    for row in model.omega(q):
        rate = 0.0
        for a, b in zip(row, w):
            rate += a * b
        rate = abs(rate)
        if not rate <= worst:
            worst = rate
            if rate != rate:
                break
    return worst


def reference_state_columns(traj, model):
    """The "c" and "max_omega_residual" columns node by node: boundary_gap(q),
    and the worst |omega(q) w| at w = (v - q)/h over Python floats, or at the
    event's w_in on an impact row (0.0 when m = 0)."""
    h = traj.h
    events = {ev.k: ev for ev in traj.impacts}
    gap, omega = [], []
    for k in range(len(traj.t)):
        q, v = traj.q[k].tolist(), traj.v[k].tolist()
        gap.append(model.boundary_gap(q))
        if not model.m_con:
            omega.append(0.0)
        elif k in events:
            omega.append(reference_omega_residual(model, q, events[k].w_in))
        else:
            omega.append(reference_omega_residual(model, q, [(b - a) / h for a, b in zip(q, v)]))
    return {"c": gap, "max_omega_residual": omega}


def assert_columns_bitwise(columns, expected):
    for name, values in expected.items():
        got = columns[name]
        assert got.dtype == np.float64 and got.shape == (len(values),)
        for k, (a, b) in enumerate(zip(got.tolist(), values)):
            assert struct.pack("<d", a) == struct.pack("<d", b), (name, k)


def reference_energy_series(traj, Ld):
    """energy_series as a loop over the states: (t, E) tuples in time order.
    The node of an impact step and its impact node are read at the discrete
    velocities w_in and w_out of the event."""
    events = {ev.k: ev for ev in traj.impacts}
    series = []
    for st in traj.states:
        ev = events.get(st.k)
        if ev is None:
            series.append((st.t, discrete_energy(Ld, st.q, st.v, traj.h)))
        else:
            series.append((st.t, -Ld.d3_w(st.q, ev.w_in, ev.alpha * traj.h)))
            s_after = (1.0 - ev.alpha) * traj.h
            series.append((ev.t_impact, -Ld.d3_w(ev.q_tilde, ev.w_out, s_after)))
    return series


class TestEnergySeries:
    def test_array_equals_per_state_reference(self, impact_runs):
        for traj, Ld, _ in impact_runs:
            series = energy_series(traj, Ld)
            assert series.dtype == np.float64
            assert series.shape == (len(traj.states) + len(traj.impacts), 2)
            npt.assert_array_equal(series, reference_energy_series(traj, Ld))

    def test_single_state_at_rest(self, particle_mid):
        traj = single_state_trajectory(particle_mid, np.array([0.0, 1.0]), 0.1)
        series = energy_series(traj, particle_mid)
        assert len(series) == 1
        t0, e0 = series[0]
        assert t0 == 0.0
        assert abs(e0 - 9.8) < 1e-14

    def test_free_particle_energy_exactly_constant(self, free_particle):
        Ld = make_discrete_lagrangian(free_particle, "midpoint")
        traj = simulate(
            Ld, free_particle, np.array([0.0, 5.0]), np.array([1.0, 0.3]), 0.0, 1.0, 1e-2
        )
        es = np.array([e for _, e in energy_series(traj, Ld)])
        assert np.max(np.abs(es - es[0])) <= 1e-12

    def test_ellipse_initial_energy(self, ellipse_body, ellipse_mid):
        traj = simulate(ellipse_mid, ellipse_body, ELLIPSE_Q0, ELLIPSE_V0, 0.0, 0.1, 1e-2)
        _, e0 = energy_series(traj, ellipse_mid)[0]
        assert abs(e0 - 37.70625) < 1e-10

    def test_impact_nodes_included_with_substeps(self, particle, particle_mid):
        traj = simulate(
            particle_mid, particle, np.array([0.0, 1.0]), np.zeros(2), 0.0, 1.0, 1e-3
        )
        series = energy_series(traj, particle_mid)
        assert len(series) == len(traj.states) + len(traj.impacts)
        times = [t for t, _ in series]
        assert all(b > a for a, b in zip(times, times[1:]))


class TestBuildReport:
    def test_no_impacts(self, particle, particle_mid):
        traj = simulate(
            particle_mid, particle, np.array([0.0, 5.0]), np.zeros(2), 0.0, 0.5, 1e-2
        )
        rep = build_report(traj, particle_mid, particle)
        assert rep.impact_count == 0
        assert rep.impact_times == []
        assert rep.max_constraint_residual == 0.0

    def test_report_invariants(self, particle, particle_mid):
        traj = simulate(
            particle_mid, particle, np.array([0.0, 1.0]), np.array([2.0, 0.0]), 0.0, 2.0, 1e-3
        )
        rep = build_report(traj, particle_mid, particle)
        assert rep.impact_count == len(rep.impact_times) == len(traj.impacts)
        series = energy_series(traj, particle_mid)
        es = np.array([e for _, e in series])
        expected_drift = np.max(np.abs(es - es[0])) / max(1.0, abs(es[0]))
        assert rep.energy_drift_rel == expected_drift
        assert rep.min_boundary_gap >= -1e-12
        assert rep.newton_iter_stats["max"] >= rep.newton_iter_stats["mean"] > 0
        stats = traj.solver_stats
        assert traj.impacts
        for phase, key in PHASE_MEANS.items():
            its = [it for ph, it in zip(stats.phases, stats.iterations) if ph == phase]
            assert rep.newton_iter_stats[key] == np.mean(its)

    def test_pendulum_constraint_residual_recomputed(self, pendulum, pendulum_left):
        traj = simulate(pendulum_left, pendulum, PENDULUM_Q0, PENDULUM_V0, 0.0, 1.5, 1e-3)
        rep = build_report(traj, pendulum_left, pendulum)
        assert rep.impact_count == 1
        assert 0.0 < rep.max_constraint_residual <= 1e-10

    def test_min_boundary_gap_bitwise_builtin_min_on_finite_data(self, impact_runs):
        for traj, Ld, model in impact_runs:
            rep = build_report(traj, Ld, model)
            expected = min(model.boundary_gap(q) for q in traj.q)
            assert struct.pack("<d", rep.min_boundary_gap) == struct.pack("<d", expected)

    @pytest.mark.parametrize(
        "where", ["first", "middle", "last", "end-of-block", "start-of-block"]
    )
    def test_nan_gap_reported_wherever_it_sits(self, particle, particle_mid, where):
        # longer than one block, so a NaN can sit on either side of a block edge
        traj = simulate(
            particle_mid, particle, np.array([0.0, 1.0]), np.array([2.0, 0.0]), 0.0, 3.0, 1e-2
        )
        assert len(traj.t) > _BLOCK + 1
        k = {"first": 0, "middle": len(traj.t) // 2, "last": len(traj.t) - 1,
             "end-of-block": _BLOCK - 1, "start-of-block": _BLOCK}[where]
        bad = traj.q[k].tobytes()

        def gap(q):
            return math.nan if np.array(q).tobytes() == bad else particle.boundary_gap(q)

        # the builtin min skips a NaN that is not first: min([1.0, nan, 0.5]) is 0.5
        rep = build_report(traj, particle_mid, dataclasses.replace(particle, boundary_gap=gap))
        assert math.isnan(rep.min_boundary_gap)

    def test_max_constraint_residual_bitwise_builtin_max_on_finite_data(self, impact_runs):
        for traj, Ld, model in impact_runs:
            rep = build_report(traj, Ld, model)
            if not model.m_con:
                assert rep.max_constraint_residual == 0.0
                continue
            column = rep.state_columns["max_omega_residual"]
            post = [float(np.abs(np.array(model.omega(ev.q_tilde)) @ ev.w_out).max())
                    for ev in traj.impacts]
            expected = max(0.0, *column[1:], *post)
            assert struct.pack("<d", rep.max_constraint_residual) == struct.pack("<d", expected)

    @pytest.mark.parametrize(
        "where", ["first", "middle", "last", "impact", "end-of-block", "start-of-block"]
    )
    def test_nan_omega_residual_reported_wherever_it_sits(self, pendulum, pendulum_left, where):
        traj = simulate(pendulum_left, pendulum, PENDULUM_Q0, PENDULUM_V0, 0.0, 1.5, 1e-3)
        assert len(traj.t) > _BLOCK + 1
        (ev,) = traj.impacts
        if where == "impact":
            ev.w_out[1] = math.nan  # phase B's velocity: only the maximum reads it
        else:
            # row 0 is the initial state, which no solve produced
            row = {"first": 1, "middle": len(traj.t) // 2, "last": len(traj.t) - 1,
                   "end-of-block": _BLOCK - 1, "start-of-block": _BLOCK}[where]
            assert row != ev.k
            traj.v[row, 1] = math.nan
        # the builtin max skips a NaN that is not first: max(0.0, nan) is 0.0
        rep = build_report(traj, pendulum_left, pendulum)
        assert math.isnan(rep.max_constraint_residual)
        if where != "impact":
            assert math.isnan(rep.state_columns["max_omega_residual"][row])

    @pytest.mark.parametrize("rule", ["midpoint", "retraction-left"])
    def test_state_columns_bitwise_per_node_reference(self, pendulum, particle, particle_mid,
                                                      rule):
        """Node by node, "c" and "max_omega_residual" equal the per-node loop
        (`reference_state_columns`), on runs over several blocks whose last
        block is partial.  On the particle (m = 0) the omega column is 0."""
        Ld = make_discrete_lagrangian(pendulum, rule)
        runs = (
            (simulate(Ld, pendulum, PENDULUM_Q0, PENDULUM_V0, 0.0, 1.5, 1e-3), Ld, pendulum),
            (simulate(particle_mid, particle, np.array([0.0, 1.0]), np.array([2.0, 0.0]),
                      0.0, 2.0, 1e-3), particle_mid, particle),
        )
        for traj, Ld, model in runs:
            n = len(traj.t)
            assert n > 2 * _BLOCK and n % _BLOCK
            assert traj.impacts
            columns = build_report(traj, Ld, model).state_columns
            assert_columns_bitwise(columns, reference_state_columns(traj, model))

    def test_two_constraint_columns_bitwise_per_node_reference(self, ellipse_body,
                                                               ellipse_mid):
        """No built-in model has m > 1: give the ellipse's (m = 0) run two
        constraint rows in three coordinates and check the omega column and
        the maximum against the per-node loop, bitwise.  One node has a NaN
        in its second row only, and one has rows whose products are all
        -0.0, so both its rates are zero whatever the sign; both nodes sit
        apart from the impact rows, which read w_in."""
        traj = simulate(ellipse_mid, ellipse_body, ELLIPSE_Q0, ELLIPSE_V0, 0.0, 6.0, 1e-2)
        n = len(traj.t)
        assert n > 2 * _BLOCK and n % _BLOCK
        assert traj.impacts
        h = traj.h
        events = {ev.k for ev in traj.impacts}
        nan_row, zero_row = _BLOCK + 3, n - 2
        assert not events & {nan_row, zero_row}
        nan_q = traj.q[nan_row].tobytes()
        zero_q = traj.q[zero_row].tobytes()
        zero_w = ((traj.v[zero_row] - traj.q[zero_row]) / h).tolist()
        assert all(zero_w)
        signed_zeros = tuple(-0.0 if w > 0.0 else 0.0 for w in zero_w)

        def omega(q):
            key = np.array(q).tobytes()
            if key == zero_q:
                return signed_zeros, signed_zeros
            second = (q[0] * q[1], -1.0, math.sin(q[2]))
            if key == nan_q:
                second = (math.nan, *second[1:])
            return (math.cos(q[0]), 0.3 * q[2], -q[1] / 3.0), second

        model = dataclasses.replace(ellipse_body, m_con=2, omega=omega)
        rep = build_report(traj, ellipse_mid, model)
        expected = reference_state_columns(traj, model)
        column = expected["max_omega_residual"]
        assert math.isnan(column[nan_row]) and sum(map(math.isnan, column)) == 1
        assert struct.pack("<d", column[zero_row]) == struct.pack("<d", 0.0)
        assert_columns_bitwise(rep.state_columns, expected)
        assert math.isnan(rep.max_constraint_residual)

        # without the NaN: the maximum over nodes 1.. and the post-impact
        # samples (q~, w_out), bitwise
        nan_q = b""
        rep = build_report(traj, ellipse_mid, model)
        expected = reference_state_columns(traj, model)
        assert_columns_bitwise(rep.state_columns, expected)
        post = [reference_omega_residual(model, ev.q_tilde, ev.w_out) for ev in traj.impacts]
        expected_max = max(0.0, *expected["max_omega_residual"][1:], *post)
        assert struct.pack("<d", rep.max_constraint_residual) == struct.pack("<d", expected_max)

    def test_round_trips_to_dict(self, particle, particle_mid):
        traj = simulate(
            particle_mid, particle, np.array([0.0, 5.0]), np.zeros(2), 0.0, 0.2, 1e-2
        )
        rep = build_report(traj, particle_mid, particle)
        doc = rep.to_dict()
        assert doc["impact_count"] == 0
        assert set(doc) == {
            "impact_count",
            "impact_times",
            "energy_initial",
            "energy_final",
            "energy_drift_rel",
            "max_constraint_residual",
            "min_boundary_gap",
            "newton_iter_stats",
        }
        names = [f.name for f in dataclasses.fields(RunReport)]
        assert list(doc) == [name for name in names if name != "state_columns"]
        # a shallow read: the report's own values, no copies
        assert doc["impact_times"] is rep.impact_times
        assert doc["newton_iter_stats"] is rep.newton_iter_stats


@pytest.fixture
def impact_runs(pendulum, pendulum_left, particle, particle_mid, ellipse_body,
                ellipse_body_edge_slope, star_body):
    """(traj, Ld, model) of a pendulum, a particle, a vertical-frame and an
    edge-slope ellipse and a star run, each with impacts: every impact kind
    the corpus resolves."""
    ellipse_mid = make_discrete_lagrangian(ellipse_body, "midpoint")
    edge_mid = make_discrete_lagrangian(ellipse_body_edge_slope, "midpoint")
    runs = []
    for Ld, model, q0, v0, h in (
        (pendulum_left, pendulum, PENDULUM_Q0, PENDULUM_V0, 1e-3),
        (particle_mid, particle, np.array([0.0, 1.0]), np.array([2.0, 0.0]), 1e-3),
        (ellipse_mid, ellipse_body, ELLIPSE_Q0, ELLIPSE_V0, 1e-2),
        (edge_mid, ellipse_body_edge_slope, ELLIPSE_Q0, ELLIPSE_V0, 1e-2),
        (make_discrete_lagrangian(star_body, "midpoint"), star_body, [0.3, 0.0, 2.0],
         [0.5, 0.0, 0.0], 1e-2),
    ):
        traj = simulate(Ld, model, q0, v0, 0.0, 2.0, h)
        assert traj.impacts
        runs.append((traj, Ld, model))
    return runs


class TestIntegratorHonesty:
    def test_stored_residuals_recomputable(self, impact_runs):
        for traj, Ld, model in impact_runs:
            recomputed = recompute_solve_residuals(traj, Ld, model)
            npt.assert_array_equal(recomputed, traj.solver_stats.residuals)

    def test_only_deleted_solves_echo_stored_residuals(self, impact_runs):
        sentinel = 12345.0
        for traj, Ld, model in impact_runs:
            stats = traj.solver_stats
            stats.residuals = [sentinel] * len(stats)
            echoed = np.flatnonzero(recompute_solve_residuals(traj, Ld, model) == sentinel)
            before_impact = [i - 1 for i, p in enumerate(stats.phases) if p == "impact-A"]
            assert echoed.tolist() == before_impact
            assert len(before_impact) == len(traj.impacts)

    def test_events_rebuild_from_discrete_velocities(self, impact_runs):
        for traj, Ld, _ in impact_runs:
            h = traj.h
            energies = energy_series(traj, Ld)[:, 1]
            for j, ev in enumerate(traj.impacts):
                w_in, w_out = np.array(ev.w_in), np.array(ev.w_out)
                npt.assert_array_equal(ev.q_tilde, traj.q[ev.k] + (ev.alpha * h) * w_in)
                npt.assert_array_equal(
                    ev.v_tilde, np.array(ev.q_tilde) + ((1.0 - ev.alpha) * h) * w_out
                )
                # node k sits after the j earlier impact samples
                jump = abs(energies[ev.k + j + 1] - energies[ev.k + j])
                assert jump == ev.energy_jump


@pytest.mark.parametrize(
    "theta0, theta_dot0",
    [
        (2.76248672792131, -1.3712903728193908),  # one impact, alpha = 2.41e-3
        (2.8224609252640556, -2.469413687402394),  # one impact, alpha = 0.9967
    ],
)
def test_short_impact_substep_residuals_within_tol(pendulum, pendulum_left, theta0, theta_dot0):
    """An impact sub-step alpha h or (1 - alpha) h of a few microseconds: the
    report and the solver records read the solved equations, not the
    cancellation of (v - q)/s, so both stay within the Newton tolerance."""
    f = PendulumParams().f
    traj = simulate(
        pendulum_left,
        pendulum,
        np.array([theta0, 0.0]),
        np.array([theta_dot0, f(theta0) * theta_dot0]),
        0.0,
        0.6,
        1e-3,
    )
    assert len(traj.impacts) == 1
    rep = build_report(traj, pendulum_left, pendulum)
    assert rep.max_constraint_residual <= 1e-10
    assert max(traj.solver_stats.residuals) <= DEFAULT_NEWTON_OPTIONS.tol


def test_build_report_transient_memory(pendulum, pendulum_left):
    """On the pendulum_long benchmark trajectory (20 000 steps, one impact)
    build_report keeps its three float64 state columns (24 B per node) and
    frees the energy series before it builds the others."""
    traj = simulate(pendulum_left, pendulum, PENDULUM_Q0, PENDULUM_V0, 0.0, 2.0, 1e-4)
    nodes = len(traj.t)
    gc.collect()
    tracemalloc.start()
    try:
        rep = build_report(traj, pendulum_left, pendulum)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.impact_count == 1
    assert kept / nodes <= 30
    assert peak / nodes <= 40

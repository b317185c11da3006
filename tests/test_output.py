import csv
import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from nhvi import build_model, make_discrete_lagrangian, parse_config, simulate
from nhvi.cli import bundled_config_path, main
from nhvi.diagnostics import RunReport, build_report, energy_series, recompute_solve_residuals
from nhvi.discretization import discrete_energy, omega_dplus
from nhvi.integrator import ImpactEvent, SolverStats, Trajectory
from nhvi.output import (
    _ticks,
    svg_line_chart,
    write_impacts_csv,
    write_plots,
    write_trajectory_csv,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _fmt(x) -> str:
    return format(float(x), ".17g")


class TestTrajectoryCsv:
    def test_columns_match_independent_recompute(self, tmp_path):
        # 1.5 s of the pendulum demo holds one impact (t ~ 1.23)
        out = tmp_path / "pendulum"
        assert main(["demo", "pendulum", "--t-final", "1.5", "--out", str(out)]) == 0
        with open(out / "trajectory.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))

        cfg = dataclasses.replace(parse_config(bundled_config_path("pendulum")), t_final=1.5)
        model = build_model(cfg)
        Ld = make_discrete_lagrangian(model, cfg.rule)
        traj = simulate(Ld, model, np.array(cfg.q0), np.array(cfg.v0),
                        cfg.t0, cfg.t_final, cfg.h, cfg.solver)
        assert model.m_con == 1
        assert len(traj.impacts) >= 1
        assert len(rows) == len(traj.states)

        # a row whose step held an impact is read at the event's w_in on alpha*h
        events = {ev.k: ev for ev in traj.impacts}
        for row, st in zip(rows, traj.states):
            assert int(row["k"]) == st.k
            ev = events.get(st.k)
            if ev is None:
                energy = discrete_energy(Ld, st.q, st.v, traj.h)
                omega = np.max(np.abs(omega_dplus(model, st.q, st.v, traj.h)))
            else:
                energy = -Ld.d3_w(st.q, ev.w_in, ev.alpha * traj.h)
                omega = np.max(np.abs(np.array(model.omega(st.q)) @ ev.w_in))
            assert row["E"] == _fmt(energy), st.k
            assert row["c"] == _fmt(model.boundary_gap(st.q)), st.k
            assert row["max_omega_residual"] == _fmt(omega), st.k

        # h in place of the impact row's sub-step would differ there
        for k in events:
            st = traj.states[k]
            assert rows[k]["E"] != _fmt(discrete_energy(Ld, st.q, st.v, traj.h))


def _demo_run(name, t_final):
    cfg = dataclasses.replace(parse_config(bundled_config_path(name)), t_final=t_final)
    model = build_model(cfg)
    Ld = make_discrete_lagrangian(model, cfg.rule)
    traj = simulate(Ld, model, np.array(cfg.q0), np.array(cfg.v0),
                    cfg.t0, cfg.t_final, cfg.h, cfg.solver)
    return cfg, model, Ld, traj


# the cells whose text a format could get wrong: signed zero, NaN, both
# infinities, the smallest subnormal, the largest double, and 17-digit values
AWKWARD = [-0.0, float("nan"), float("inf"), -float("inf"), 5e-324,
           1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.5e-17]


def _csv_lines(path):
    text = Path(path).read_bytes().decode()
    assert text.endswith("\r\n")
    lines = text.split("\r\n")[:-1]
    assert not any("\n" in line or "\r" in line for line in lines)
    return lines


class TestCellFormat:
    def test_every_cell_is_the_17_digit_format(self, tmp_path):
        n, m, rows = 2, 1, 4
        cycle = iter(AWKWARD * 20)

        def column(*shape):
            return np.array([next(cycle) for _ in range(int(np.prod(shape)))]).reshape(shape)

        t, lam = column(rows), column(rows, m)
        q, v, p = column(rows, n), column(rows, n), column(rows, n)
        columns = {"E": column(rows), "c": column(rows), "max_omega_residual": column(rows)}
        event = ImpactEvent(
            k=1_234_567, alpha=5e-324, t_impact=-0.0, q_tilde=[float("nan"), float("inf")],
            v_tilde=[-float("inf"), 1.7976931348623157e308], w_in=[0.0, 0.0], w_out=[0.0, 0.0],
            p_tilde=[0.1], lambda_A=[0.0], lambda_B=[0.0], compat_residual=1.0 / 3.0,
            energy_jump=-2.5e-17,
        )
        traj = Trajectory(t, q, v, p, lam, [event], 0.01, SolverStats())
        report = RunReport(1, [-0.0], 0.0, 0.0, 0.0, 0.0, 0.0, state_columns=columns)
        model = SimpleNamespace(n=n, m_con=m)

        write_trajectory_csv(tmp_path / "trajectory.csv", traj, report, model)
        header, *body = _csv_lines(tmp_path / "trajectory.csv")
        assert header.split(",")[-3:] == list(columns)
        assert len(body) == rows
        for k, line in enumerate(body):
            values = [t[k], *q[k], *v[k], *p[k], *lam[k], *(c[k] for c in columns.values())]
            assert line.split(",") == [str(k)] + [format(float(x), ".17g") for x in values]

        # a trajectory row's k is its index, so the large k goes through the impacts file
        write_impacts_csv(tmp_path / "impacts.csv", traj, model)
        header, line = _csv_lines(tmp_path / "impacts.csv")
        assert header.split(",")[:3] == ["k", "alpha", "t_impact"]
        values = [event.alpha, event.t_impact, *event.q_tilde, *event.v_tilde, *event.p_tilde,
                  event.compat_residual, event.energy_jump]
        assert line.split(",") == [str(event.k)] + [format(x, ".17g") for x in values]


def _address(a: np.ndarray) -> int:
    return a.__array_interface__["data"][0]


class TestStorageLayout:
    @pytest.mark.parametrize("name, t_final, m, impacts", [
        ("pendulum", 5.0, 1, 3),
        ("ellipse", 25.0, 0, 17),  # m = 0: lam is an empty slice of the buffer
    ])
    def test_row_buffer_and_separate_columns_give_equal_outputs(
        self, tmp_path, name, t_final, m, impacts
    ):
        _, model, Ld, traj = _demo_run(name, t_final)
        n = model.n
        assert model.m_con == m and len(traj.impacts) == impacts
        fields = ("t", "q", "v", "p", "lam")
        columns = [getattr(traj, f) for f in fields]

        # simulate's five columns view one row buffer, in trajectory.csv's order
        rows = traj.t.base
        assert rows.shape == (len(traj.t), 1 + 3 * n + m) and rows.flags.c_contiguous
        assert traj.lam.shape == (len(traj.t), m)
        for column, start in zip(columns, [0, 1, 1 + n, 1 + 2 * n, 1 + 3 * n]):
            assert column.base is rows
            if column.size:
                assert np.shares_memory(column, rows)
                assert _address(column) - _address(rows) == start * rows.itemsize
                assert column.strides[0] == rows.strides[0]

        apart = dataclasses.replace(
            traj, **{f: np.ascontiguousarray(c) for f, c in zip(fields, columns)}
        )
        for f in fields:
            column = getattr(apart, f)
            assert column.flags.c_contiguous and not np.shares_memory(column, rows)

        written = []
        for label, tr in (("rows", traj), ("apart", apart)):
            report = build_report(tr, Ld, model)
            path = tmp_path / f"{label}.csv"
            write_trajectory_csv(path, tr, report, model)
            written.append((path.read_bytes(), report.to_dict(),
                            recompute_solve_residuals(tr, Ld, model)))
        (csv_rows, report_rows, res_rows), (csv_apart, report_apart, res_apart) = written
        assert csv_rows == csv_apart
        assert report_rows == report_apart
        assert res_rows.tobytes() == res_apart.tobytes()


class TestEnergyPlot:
    def test_energy_svg_is_the_energy_series_chart(self, tmp_path):
        # 2 s of the ellipse demo hold one impact
        out = tmp_path / "ellipse"
        assert main(["demo", "ellipse", "--t-final", "2", "--out", str(out)]) == 0
        _, _, Ld, traj = _demo_run("ellipse", 2.0)
        assert len(traj.impacts) >= 1
        s = energy_series(traj, Ld)
        expected = svg_line_chart([("", s[:, 0], s[:, 1])], "Discrete energy", "t [s]", "E",
                                  width=720)
        assert (out / "energy.svg").read_text() == expected

    def test_report_and_plots_evaluate_each_node_energy_once(self, tmp_path):
        cfg, model, Ld, traj = _demo_run("ellipse", 2.0)
        assert len(traj.impacts) >= 1 and "energy" in cfg.outputs.plots
        calls = 0
        d3 = Ld.d3

        def counted(*args):
            nonlocal calls
            calls += 1
            return d3(*args)

        Ld.d3 = counted
        report = build_report(traj, Ld, model)
        write_plots(tmp_path, traj, Ld, model, cfg.outputs.plots, report=report)
        assert calls == len(traj.t)


class TestTicks:
    def test_regular_span(self):
        assert _ticks(0.0, 1.0) == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_span_of_one_ulp_returns(self, tmp_path):
        # A series spanning one ulp makes the tick step round away.  Run in a
        # child with a capped address space, so a tick loop that never ends
        # fails on its memory or the timeout instead of hanging the suite.
        code = textwrap.dedent("""
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            import numpy as np
            from nhvi.output import _ticks, svg_line_chart
            lo = 37.70625
            hi = np.nextafter(lo, 100.0)
            assert _ticks(lo, hi) == [lo]
            svg = svg_line_chart([("", np.array([0.0, 1.0]), np.array([lo, hi]))], "t", "x", "y")
            assert svg.endswith("</svg>")
        """)
        env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

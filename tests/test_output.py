import csv
import dataclasses
import gc
import json
import os
import re
import subprocess
import sys
import textwrap
import tracemalloc
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
    _CSV_BLOCK,
    _ticks,
    svg_line_chart,
    write_impacts_csv,
    write_plots,
    write_trajectory_csv,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _reference_trajectory_csv(traj, report, model) -> bytes:
    """trajectory.csv as one "%d,%.17g,..." template per row, every cell printed."""
    columns = report.state_columns
    header = (
        ["k", "t"]
        + [f"{name}{i}" for name in ("q", "v", "p") for i in range(model.n)]
        + [f"lambda{i}" for i in range(model.m_con)]
        + list(columns)
    )
    blocks = [traj.t[:, None], traj.q, traj.v, traj.p, traj.lam]
    blocks += [c[:, None] for c in columns.values()]
    template = "%d," + ",".join(["%.17g"] * (len(header) - 1)) + "\r\n"
    rows = np.hstack(blocks).tolist()
    body = "".join([template % (k, *row) for k, row in enumerate(rows)])
    return (",".join(header) + "\r\n" + body).encode()


def _handmade_run(rows, n, m, seed=36):
    """A Trajectory of five separate random arrays, q_{k+1} = v_k bitwise,
    with its report columns and a model of n coordinates and m constraints."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((rows, n))
    q = np.vstack([rng.standard_normal((1, n)), v[:-1]])
    traj = Trajectory(np.arange(rows) * 0.01, q, v, rng.standard_normal((rows, n)),
                      rng.standard_normal((rows, m)), [], 0.01, SolverStats())
    columns = {name: rng.standard_normal(rows) for name in ("E", "c", "max_omega_residual")}
    report = RunReport(0, [], 0.0, 0.0, 0.0, 0.0, 0.0, state_columns=columns)
    return traj, report, SimpleNamespace(n=n, m_con=m)


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

    def test_peak_memory_does_not_grow_with_rows(self, tmp_path):
        # one block is formatted at a time; the one-template-per-row writer
        # peaked at 1,145 B per block row (n = 3, m = 1) at 3 and at 6 blocks
        peaks = []
        for blocks in (3, 6):
            traj, report, model = _handmade_run(blocks * _CSV_BLOCK, 3, 1)
            gc.collect()
            tracemalloc.start()
            try:
                write_trajectory_csv(tmp_path / "trajectory.csv", traj, report, model)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 64 * 1024
        assert max(peaks) / _CSV_BLOCK <= 1200


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

    def test_q_cells_reuse_the_row_above_only_where_bitwise_equal(self, tmp_path):
        n, m, rows = 2, 1, _CSV_BLOCK + 3
        traj, report, model = _handmade_run(rows, n, m)
        q, v = traj.q, traj.v
        nan_a, nan_b = np.array([0x7FF8000000000001, 0x7FF8000000000002]).view(np.float64)
        # v_k = -0.0 under q_{k+1} = 0.0 and the reverse: == holds, the bits differ
        v[5, 0], q[6, 0] = -0.0, 0.0
        v[7, 0], q[8, 0] = 0.0, -0.0
        # NaNs: different payloads differ in bits, one payload is bitwise equal
        v[11, 1], q[12, 1] = nan_a, nan_b
        v[14, 1] = q[15, 1] = nan_a
        v[20, 0] = q[21, 0] = -0.0
        # impacts on both sides of a block boundary: row k holds q~, row k + 1 v~
        for k in (_CSV_BLOCK - 1, _CSV_BLOCK):
            q[k + 1] = [0.25, -0.5]
        bits_differ = (q[1:].view(np.int64) != v[:-1].view(np.int64)).any(axis=1)
        assert (np.flatnonzero(bits_differ) + 1).tolist() == [6, 8, 12, _CSV_BLOCK,
                                                              _CSV_BLOCK + 1]

        path = tmp_path / "trajectory.csv"
        write_trajectory_csv(path, traj, report, model)
        assert path.read_bytes() == _reference_trajectory_csv(traj, report, model)
        _, *body = _csv_lines(path)
        assert body[5].split(",")[4] == "-0" and body[6].split(",")[2] == "0"
        assert body[7].split(",")[4] == "0" and body[8].split(",")[2] == "-0"


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
            assert path.read_bytes() == _reference_trajectory_csv(tr, report, model)
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
        expected = svg_line_chart([("", s[:, 0], s[:, 1])], "Discrete energy", "t [s]", "E")
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


def _reference_polylines(series, width=720, height=480):
    """Each series' points, "%.2f,%.2f" per point of Python float pixels."""
    ml, mr, mt, mb = 72, 24, 40, 56
    pw, ph = width - ml - mr, height - mt - mb
    xs_all = [float(x) for _, xs, _ in series for x in xs]
    ys_all = [float(y) for _, _, ys in series for y in ys]
    x_lo, x_hi = min(xs_all), max(xs_all)
    pad = 0.04 * (max(ys_all) - min(ys_all))
    y_lo, y_hi = min(ys_all) - pad, max(ys_all) + pad
    return [
        " ".join(["%.2f,%.2f" % (ml + (float(x) - x_lo) / (x_hi - x_lo) * pw,
                                 mt + ph - (float(y) - y_lo) / (y_hi - y_lo) * ph)
                  for x, y in zip(xs, ys)])
        for _, xs, ys in series
    ]


class TestLineChart:
    def test_shared_x_column_prints_the_per_point_pairs(self):
        t = np.linspace(0.0, 3.0, 301)
        series = [("a", t, np.sin(7.0 * t)), ("b", t, np.cos(5.0 * t)),
                  ("c", t.copy(), 0.5 * t - 1.0)]
        svg = svg_line_chart(series, "chart", "t", "y")
        assert re.findall(r'<polyline points="([^"]*)"', svg) == _reference_polylines(series)
        apart = [(label, xs.copy(), ys) for label, xs, ys in series]
        assert svg == svg_line_chart(apart, "chart", "t", "y")

    @pytest.mark.parametrize("model, q0, v0, rule, x_ticks, y_ticks, pixel", [
        # a particle dropped from rest keeps x = 0: the x range widens to [0, 1]
        ({"type": "particle"}, [0.0, 1.0], [0.0, 0.0], "midpoint",
         ["0", "0.25", "0.5", "0.75", "1"], ["0", "0.5", "1"], (0, "72.00")),
        # with f = 0 the pendulum keeps phi = 0: the y range widens to [-0.5, 0.5]
        ({"type": "pendulum", "length": 2.0, "radius": 1.5, "f": 0}, [2.4, 0.0], [0.1, 0.0],
         "retraction-left", ["2.5", "3", "3.5"], ["-0.5", "0", "0.5"], (1, "232.00")),
    ], ids=["particle-constant-x", "pendulum-constant-phi"])
    def test_constant_column_widens_its_range(self, tmp_path, model, q0, v0, rule, x_ticks,
                                              y_ticks, pixel):
        cfg = {"model": model, "rule": rule, "q0": q0, "v0": v0, "t_final": 1.0, "h": 0.01,
               "outputs": {"csv": False, "summary": False, "plots": ["plane_trajectory"]}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        svg = (tmp_path / "out" / "plane_trajectory.svg").read_text()
        label = r'<text [^>]*font-size="11" text-anchor="{}">([^<]*)</text>'
        assert re.findall(label.format("middle"), svg) == x_ticks
        assert re.findall(label.format("end"), svg) == y_ticks
        (points,) = re.findall(r'<polyline points="([^"]*)"', svg)
        pairs = [pair.split(",") for pair in points.split()]
        assert len(pairs) == 101
        xy = np.array(pairs, dtype=float)
        assert np.all(np.isfinite(xy))
        assert np.all((72.0 <= xy[:, 0]) & (xy[:, 0] <= 696.0))
        assert np.all((40.0 <= xy[:, 1]) & (xy[:, 1] <= 424.0))
        axis, text = pixel  # the constant column's one pixel
        assert {pair[axis] for pair in pairs} == {text}


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

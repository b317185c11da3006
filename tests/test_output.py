import csv
import dataclasses
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np

from nhvi import build_model, make_discrete_lagrangian, parse_config, simulate
from nhvi.cli import bundled_config_path, main
from nhvi.discretization import discrete_energy, omega_dplus
from nhvi.output import _ticks

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

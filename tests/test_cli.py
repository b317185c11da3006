import csv
import dataclasses
import json
import logging
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest

import nhvi
from nhvi.cli import bundled_config_path, main

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import workloads  # noqa: E402


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def write_bad_config(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "model": {"type": "particle"},
        "rule": "midpoint",
        "q0": [0.0, -1.0],  # starts below the floor
        "v0": [0.0, 0.0],
        "t_final": 1.0,
        "h": 0.01,
    }))
    return cfg


# node 1 lies 5e-13 below the floor, inside the admissible tolerance; step 1
# penetrates, and its impact fraction solves to a negative root
GRAZING_PARTICLE = {
    "model": {"type": "particle"},
    "rule": "midpoint",
    "q0": [0.0, 5e-13],
    "v0": [0.0, -2e-10],
    "t_final": 0.1,
    "h": 0.01,
}

# the keys error.json adds to the failure's own record
NODES_AND_CONFIG = ("state", "prev", "config")


@pytest.fixture(scope="module")
def particle_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo_particle")
    assert main(["demo", "particle", "--out", str(out)]) == 0
    return out


class TestDemo:
    def test_outputs_written(self, particle_out):
        for name in ("trajectory.csv", "impacts.csv", "summary.json",
                     "energy.svg", "plane_trajectory.svg"):
            assert (particle_out / name).exists()

    def test_row_counts_match_steps_and_impacts(self, particle_out):
        summary = json.loads((particle_out / "summary.json").read_text())
        rows = read_csv_rows(particle_out / "trajectory.csv")
        impact_rows = read_csv_rows(particle_out / "impacts.csv")
        assert len(rows) == 2001  # N + 1 with t_final=2, h=1e-3
        assert len(impact_rows) == summary["impact_count"] > 0

    def test_energy_constant_across_impacts(self, particle_out):
        for row in read_csv_rows(particle_out / "impacts.csv"):
            assert abs(float(row["energy_jump"])) <= 1e-8

    def test_csv_carries_full_precision(self, particle_out):
        row = read_csv_rows(particle_out / "trajectory.csv")[17]
        assert "." in row["q1"] and len(row["q1"]) >= 17

    def test_summary_has_config_echo(self, particle_out):
        summary = json.loads((particle_out / "summary.json").read_text())
        assert summary["config"]["model"]["type"] == "particle"
        assert summary["energy_drift_rel"] <= 1e-5

    def test_svg_plots_are_well_formed(self, particle_out):
        for name in ("energy.svg", "plane_trajectory.svg"):
            text = (particle_out / name).read_text()
            assert text.startswith("<svg")
            assert text.rstrip().endswith("</svg>")
            assert "nan" not in text.lower()
            assert "polyline" in text

    def test_info_log_times_simulate_report_and_writers(self, tmp_path, caplog):
        caplog.set_level(logging.INFO, logger="nhvi.cli")
        assert main(["demo", "particle", "--t-final", "0.5", "--out", str(tmp_path)]) == 0
        messages = [r.getMessage() for r in caplog.records if r.name == "nhvi.cli"]
        assert len(messages) == 2
        assert re.fullmatch(r"particle: 500 steps, \d+ impacts, .*, \d+\.\d\d s", messages[0])
        assert re.fullmatch(r"particle: build_report \d+\.\d{3} s, writers \d+\.\d{3} s",
                            messages[1])


class TestRun:
    def test_final_time_override_reproduces_single_bounce(self, tmp_path):
        out = tmp_path / "ellipse2"
        code = main(
            ["run", "--config", str(bundled_config_path("ellipse")),
             "--t-final", "2", "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["impact_count"] == 1

    def test_reruns_byte_identical(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            main(["run", "--config", str(bundled_config_path("particle")),
                  "--t-final", "0.5", "--out", str(out)])
            outs.append((out / "trajectory.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_config_fails(self, tmp_path):
        out = tmp_path / "out"
        assert main(["run", "--config", "/nonexistent/cfg.json", "--out", str(out)]) == 2
        assert json.loads((out / "error.json").read_text())["error"] == "SchemaError"

    def test_failed_run_writes_diagnostic_json(self, tmp_path, capsys):
        cfg = write_bad_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--t-final", "0.5", "--out", str(out)]) == 2
        diagnostic = json.loads((out / "error.json").read_text())
        assert diagnostic["error"] == "InvalidInitialState"
        assert "admissible" in diagnostic["message"]
        assert "state" not in diagnostic  # no step ran
        # the configuration as run: parsed, defaults filled in, override applied
        resolved = nhvi.config_from_dict(diagnostic["config"])
        assert resolved.t_final == 0.5
        assert resolved == dataclasses.replace(nhvi.parse_config(cfg), t_final=0.5)

    @pytest.mark.parametrize("index, body, error", [
        (121, "ellipse-vertical", "NoElasticRebound"),  # step 7, law rate < 0
        (9, "ellipse-vertical", "NewtonFailure"),  # impact-B at step 34
        (383, "star", "PersistentPenetration"),  # first impact, step 1
        (269, "ellipse-vertical", "RootSelectionAmbiguous"),  # step 44
        (None, "particle", "AlphaOutOfRange"),  # GRAZING_PARTICLE, step 1
    ])
    def test_failed_step_replays_from_error_json(self, tmp_path, index, body, error):
        if index is None:
            doc = GRAZING_PARTICLE
        else:
            kind, doc = workloads.bounce_config(1, index)
            assert kind == body
        path = tmp_path / "member.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        diagnostic = json.loads((out / "error.json").read_text())
        assert diagnostic["error"] == error
        node = diagnostic["state"]
        q, v, p, lam = (np.array(node[name], dtype=float) for name in ("q", "v", "p", "lam"))

        # error.json alone rebuilds the model, h and solver options
        cfg = nhvi.config_from_dict(diagnostic["config"])
        assert cfg == nhvi.parse_config(path)
        model = nhvi.build_model(cfg)
        Ld = nhvi.make_discrete_lagrangian(model, cfg.rule)
        with pytest.raises(getattr(nhvi, error)) as failure:
            nhvi.simulate(Ld, model, np.array(cfg.q0), np.array(cfg.v0),
                          cfg.t0, cfg.t_final, cfg.h, cfg.solver)
        st = failure.value.state
        # the JSON node is the simulated one, bit for bit
        assert (node["k"], node["t"]) == (st.k, st.t)
        for name, a in zip(("q", "v", "p", "lam"), (q, v, p, lam)):
            npt.assert_array_equal(a, getattr(st, name))
        # v is the penetrating candidate the failed impact resolution deleted
        assert model.boundary_gap(v) < 0
        with pytest.raises(getattr(nhvi, error)) as replay:
            nhvi.resolve_impact(Ld, model, q, p, cfg.h, v, cfg.solver, node["k"], node["t"])
        assert str(replay.value) == diagnostic["message"]
        # the rest of error.json is the error's context: each key is the
        # replayed error's attribute, bit for bit
        context = {key: value for key, value in diagnostic.items()
                   if key not in ("error", "message", *NODES_AND_CONFIG)}
        assert context == replay.value.context
        for key, value in context.items():
            assert value == getattr(replay.value, key)
        assert (diagnostic["k"], diagnostic["t"]) == (node["k"], node["t"])
        if error == "NoElasticRebound":
            assert diagnostic["law_rate"] <= 0.0
        elif error == "RootSelectionAmbiguous":
            assert diagnostic["rate"] <= 0.0 < diagnostic["law_rate"]
        elif error == "AlphaOutOfRange":
            assert diagnostic["alpha"] < 0.0

    def test_failed_smooth_step_replays_from_its_two_nodes(self, tmp_path):
        # two Newton iterations are too few for step 30, which Newton starts
        # from the quadratic extrapolation of nodes 29 and 30
        doc = json.loads(bundled_config_path("pendulum").read_text())
        doc.update(h=0.02, t_final=1.0, solver={"max_iter": 2})
        path = tmp_path / "pendulum.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        diagnostic = json.loads((out / "error.json").read_text())
        assert (diagnostic["error"], diagnostic["phase"], diagnostic["k"]) == (
            "NewtonFailure", "step", 30)
        node, prev = (nhvi.State(**diagnostic[name]) for name in ("state", "prev"))
        assert (prev.k, node.k) == (29, 30)
        cfg = nhvi.config_from_dict(diagnostic["config"])
        model = nhvi.build_model(cfg)
        Ld = nhvi.make_discrete_lagrangian(model, cfg.rule)
        with pytest.raises(nhvi.NewtonFailure) as replay:
            nhvi.step_plus(Ld, model, node, cfg.h, cfg.solver, prev)
        assert str(replay.value) == diagnostic["message"]
        assert replay.value.residual_norm == diagnostic["residual_norm"]
        # from the linear seed alone the same step stalls elsewhere
        with pytest.raises(nhvi.NewtonFailure) as linear:
            nhvi.step_plus(Ld, model, node, cfg.h, cfg.solver)
        assert str(linear.value) != diagnostic["message"]

    def test_grazing_node_reaches_impact_resolution(self, tmp_path):
        path = tmp_path / "grazing.json"
        path.write_text(json.dumps(GRAZING_PARTICLE))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        diagnostic = json.loads((out / "error.json").read_text())
        assert diagnostic["error"] == "AlphaOutOfRange"
        assert diagnostic["state"]["k"] == 1
        assert -nhvi.geometry.GRAZING_TOL <= diagnostic["state"]["q"][1] < 0

    @pytest.mark.parametrize("override, key", [
        (["--h", "1000"], "h"),  # longer than the 2 s span
        (["--h", "-1"], "h"),
        (["--t-final", "1e-5"], "h"),  # shorter than one 1e-3 step
        (["--t-final", "-1"], "t_final"),
        (["--h", "nan"], "h"),
        (["--h", "1e-320"], "h"),  # the step count overflows a float
        (["--t-final", "nan"], "t_final"),
        (["--t-final", "inf"], "t_final"),
    ])
    def test_bad_override_writes_error_json(self, tmp_path, override, key):
        out = tmp_path / "out"
        assert main(["demo", "particle", *override, "--out", str(out)]) == 2
        diagnostic = json.loads((out / "error.json").read_text())
        assert diagnostic["error"] == "SchemaError"
        assert diagnostic["message"].startswith(f"{key}:")
        assert "config" not in diagnostic  # no configuration was resolved

    @pytest.mark.parametrize("flags", [
        ["--config", "a.json", "--sweep", "b.json"],
        [],
    ])
    def test_run_takes_exactly_one_source(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", *flags])
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err

    def test_uncreatable_out_is_a_schema_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory")
        assert main(["demo", "particle", "--out", str(taken)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "SchemaError"
        assert error["message"].startswith("out:")
        local = tmp_path / "particle.json"
        local.write_text(bundled_config_path("particle").read_text())
        assert main(["run", "--sweep", str(local), "--out", str(taken)]) == 2
        assert taken.read_text() == "not a directory"

    def test_unwritable_output_is_a_schema_error(self, tmp_path):
        # a directory where a writer expects its file
        out = tmp_path / "out"
        (out / "trajectory.csv").mkdir(parents=True)
        assert main(["demo", "particle", "--t-final", "0.1", "--out", str(out)]) == 2
        diagnostic = json.loads((out / "error.json").read_text())
        assert (diagnostic["error"], diagnostic["key_path"]) == ("SchemaError", "out")
        # in a sweep it fails that member only
        for stem in ("blocked", "free"):
            (tmp_path / f"{stem}.json").write_text(bundled_config_path("particle").read_text())
        sweep = tmp_path / "sweep"
        (sweep / "blocked" / "trajectory.csv").mkdir(parents=True)
        code = main(["run", "--sweep", str(tmp_path / "blocked.json"), str(tmp_path / "free.json"),
                     "--t-final", "0.1", "--out", str(sweep)])
        assert code == 2
        diagnostic = json.loads((sweep / "blocked" / "error.json").read_text())
        assert (diagnostic["error"], diagnostic["key_path"]) == ("SchemaError", "out")
        assert (sweep / "free" / "summary.json").exists()

    def test_sweep_runs_isolated_outputs(self, tmp_path):
        cfg = bundled_config_path("particle")
        local = tmp_path / "particle.json"
        local.write_text(cfg.read_text())
        out = tmp_path / "sweep"
        assert main(["run", "--sweep", str(local), "--out", str(out)]) == 0
        assert (out / "particle" / "summary.json").exists()

    def test_sweep_rejects_members_sharing_a_stem(self, tmp_path, capsys):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / "x.json").write_text(bundled_config_path("particle").read_text())
        out = tmp_path / "sweep"
        code = main(["run", "--sweep", str(tmp_path / "a" / "x.json"),
                     str(tmp_path / "b" / "x.json"), "--out", str(out)])
        assert code == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "SchemaError"
        assert "'x'" in error["message"]
        assert not out.exists()

    def test_sweep_applies_overrides_and_reports_each_failure(self, tmp_path):
        bad = write_bad_config(tmp_path)
        local = tmp_path / "particle.json"
        local.write_text(bundled_config_path("particle").read_text())
        out = tmp_path / "sweep"
        code = main(["run", "--sweep", str(bad), str(local), "--h", "0.002",
                     "--t-final", "0.1", "--out", str(out)])
        assert code == 2
        diagnostic = json.loads((out / "bad" / "error.json").read_text())
        assert diagnostic["error"] == "InvalidInitialState"
        summary = json.loads((out / "particle" / "summary.json").read_text())
        assert summary["config"]["h"] == 0.002
        assert summary["config"]["t_final"] == 0.1


class TestValidate:
    def test_all_bundled_configs_validate(self, capsys):
        for name in ("particle", "ellipse", "pendulum"):
            assert main(["validate", "--config", str(bundled_config_path(name))]) == 0
            out = capsys.readouterr().out
            assert "FAIL" not in out
            assert "PASS  Hessian blocks (Lqq, Lqv, Lvv) vs finite differences" in out

    def test_transposed_lqv_fails_hessian_check(self, pendulum, rng):
        import dataclasses

        from nhvi.validation import check_hessian

        def transposed(q, v):
            lqq, lqv, lvv = pendulum.d2L(q, v)
            return lqq, np.array(lqv).T, lvv

        [(_, ok, _)] = check_hessian(pendulum, rng)
        assert ok
        [(_, ok, detail)] = check_hessian(dataclasses.replace(pendulum, d2L=transposed), rng)
        assert not ok, detail


def test_console_script_installed(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "nhvi.cli", "demo", "particle", "--t-final", "0.1",
         "--out", str(tmp_path / "smoke")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr

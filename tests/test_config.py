import json
import math

import numpy as np
import pytest

from nhvi import (
    DimensionMismatch,
    ParticleParams,
    PendulumParams,
    SchemaError,
    Se2BodyParams,
    StarShape,
    build_model,
    config_from_dict,
    parse_config,
    serialize_config,
)
from nhvi.cli import bundled_config_path
from nhvi.config import config_to_dict


def minimal_config(**overrides):
    cfg = {
        "model": {"type": "particle", "mass": 1.0, "gravity": 9.8},
        "rule": "midpoint",
        "q0": [0.0, 1.0],
        "v0": [2.0, 0.0],
        "t_final": 1.0,
        "h": 0.01,
    }
    cfg.update(overrides)
    return cfg


class TestBundledConfigs:
    def test_ellipse_matches_reference_parameters(self):
        cfg = parse_config(bundled_config_path("ellipse"))
        p = cfg.model
        assert p["type"] == "se2_body"
        assert (p["mass"], p["gravity"]) == (1.0, 9.8)
        assert p["shape"] == {"kind": "ellipse", "a": 1.0, "b": 0.5}
        assert p["inertia"] == 0.3125
        assert cfg.h == 0.01
        assert cfg.q0 == (math.pi / 2, 0.0, 3.5)
        assert cfg.v0 == (-3.0, 2.0, 0.0)
        assert cfg.rule == "midpoint"

    def test_pendulum_matches_reference_parameters(self):
        cfg = parse_config(bundled_config_path("pendulum"))
        p = cfg.model
        assert (p["mass"], p["gravity"], p["length"], p["radius"]) == (1.0, 9.8, 2.0, 1.5)
        assert p["f"] == "default"
        assert cfg.h == 1e-3
        assert cfg.q0 == (0.75 * math.pi, 0.0)
        assert cfg.v0 == (0.25 * math.pi, 0.25 * (math.pi + 0.5) * math.pi)
        assert cfg.rule == "retraction-left"

    def test_bundled_models_build(self):
        for name in ("particle", "ellipse", "pendulum"):
            cfg = parse_config(bundled_config_path(name))
            model = build_model(cfg)
            assert model.n == len(cfg.q0)


class TestValidation:
    def test_zero_timestep_rejected(self):
        with pytest.raises(SchemaError, match="h"):
            config_from_dict(minimal_config(h=0.0))

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(SchemaError, match="timestep"):
            config_from_dict(minimal_config(timestep=0.1))

    def test_unknown_model_key_reports_path(self):
        cfg = minimal_config()
        cfg["model"]["spin"] = 2.0
        with pytest.raises(SchemaError, match="model.spin"):
            config_from_dict(cfg)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            config_from_dict(minimal_config(q0=[0.0, 1.0, 2.0]))

    def test_final_time_must_exceed_start(self):
        with pytest.raises(SchemaError, match="t_final"):
            config_from_dict(minimal_config(t_final=-1.0))

    def test_step_longer_than_time_span_rejected(self):
        with pytest.raises(SchemaError) as info:
            config_from_dict(minimal_config(t_final=1.0, h=2.5))
        assert info.value.key_path == "h"

    def test_step_rounding_to_one_step_accepted(self):
        # simulate runs round((t_final - t0) / h) steps: 1 / 1.6 rounds to 1
        assert config_from_dict(minimal_config(t_final=1.0, h=1.6)).h == 1.6

    @pytest.mark.parametrize("overrides, key_path", [
        ({"h": math.nan}, "h"),
        ({"t_final": math.nan}, "t_final"),
        ({"t_final": 10**400}, "t_final"),  # beyond the float range
        ({"solver": {"tol": math.nan}}, "solver.tol"),
        ({"q0": [0.0, math.nan]}, "q0[1]"),
        ({"model": {"type": "pendulum", "length": 2.0, "radius": 1.5, "f": math.nan}},
         "model.f"),
    ])
    def test_non_finite_numbers_rejected(self, tmp_path, overrides, key_path):
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(minimal_config(**overrides)))  # json writes NaN bare
        with pytest.raises(SchemaError) as info:
            parse_config(path)
        assert info.value.key_path == key_path

    def test_integer_literal_past_digit_limit_rejected(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text(json.dumps(minimal_config()).replace('"h": 0.01', '"h": 1' + "0" * 5000))
        with pytest.raises(SchemaError, match="invalid JSON"):
            parse_config(path)

    def test_bad_rule_rejected(self):
        with pytest.raises(SchemaError, match="rule"):
            config_from_dict(minimal_config(rule="leapfrog"))

    def test_unknown_plot_kind_rejected(self):
        with pytest.raises(SchemaError, match=r"plots\[0\]"):
            config_from_dict(minimal_config(outputs={"plots": ["phase_portrait"]}))

    def test_particle_accepts_zero_gravity(self):
        cfg = config_from_dict(minimal_config(model={"type": "particle", "gravity": 0}))
        assert cfg.model["gravity"] == 0.0
        model = build_model(cfg)
        assert np.all(np.array(model.dL_dq(np.array([0.0, 1.0]), np.array([1.0, 0.0]))) == 0.0)

    def test_particle_rejects_negative_gravity(self):
        with pytest.raises(SchemaError) as info:
            config_from_dict(minimal_config(model={"type": "particle", "gravity": -1.0}))
        assert info.value.key_path == "model.gravity"

    @pytest.mark.parametrize("model, q0", [
        ({"type": "se2_body", "shape": {"kind": "ellipse", "a": 1.0, "b": 0.5}},
         [0.0, 0.0, 3.0]),
        ({"type": "pendulum", "length": 2.0, "radius": 1.5}, [2.4, 0.0]),
    ], ids=["se2_body", "pendulum"])
    def test_other_models_reject_zero_gravity(self, model, q0):
        cfg = minimal_config(model={**model, "gravity": 0}, q0=q0, v0=[0.0] * len(q0))
        with pytest.raises(SchemaError) as info:
            config_from_dict(cfg)
        assert info.value.key_path == "model.gravity"

    def test_pendulum_constant_gain(self):
        cfg = config_from_dict(
            {
                "model": {
                    "type": "pendulum",
                    "length": 2.0,
                    "radius": 1.5,
                    "f": 0.0,
                },
                "rule": "retraction-left",
                "q0": [2.4, 0.0],
                "v0": [0.1, 0.0],
                "t_final": 1.0,
                "h": 0.001,
            }
        )
        model = build_model(cfg)
        assert model.omega(np.array([1.0, 0.0]))[0][0] == 0.0

    def test_se2_contact_frame_validation(self):
        cfg = minimal_config()
        cfg["model"] = {
            "type": "se2_body",
            "shape": {"kind": "ellipse", "a": 1.0, "b": 0.5},
            "contact_frame": "diagonal",
        }
        cfg["q0"] = [0.0, 0.0, 3.0]
        cfg["v0"] = [0.0, 0.0, 0.0]
        with pytest.raises(SchemaError, match="contact_frame"):
            config_from_dict(cfg)


ELLIPSE = {"type": "se2_body", "shape": {"kind": "ellipse", "a": 1.0, "b": 0.5}}
STAR = {"type": "se2_body", "shape": {"kind": "star", "l": 1.0}, "inertia": 0.5}
PENDULUM = {"type": "pendulum", "length": 2.0, "radius": 1.5}


OUT_OF_RANGE = [
    ({"model": {"type": "particle", "mass": 0.0}}, "model.mass"),
    ({"model": {**PENDULUM, "mass": -1.0}}, "model.mass"),
    ({"model": {"type": "particle", "gravity": -1.0}}, "model.gravity"),
    ({"model": {**ELLIPSE, "gravity": 0.0}}, "model.gravity"),
    ({"model": {**ELLIPSE, "shape": {"kind": "ellipse", "a": 0.0, "b": 0.5}}}, "model.shape.a"),
    ({"model": {**ELLIPSE, "shape": {"kind": "ellipse", "a": 1.0, "b": -0.5}}},
     "model.shape.b"),
    ({"model": {**STAR, "shape": {"kind": "star", "l": 0.0}}}, "model.shape.l"),
    ({"model": {**ELLIPSE, "inertia": 0.0}}, "model.inertia"),
    ({"model": {"type": "se2_body", "shape": {"kind": "star", "l": 1.0}}}, "model.inertia"),
    ({"model": {**ELLIPSE, "contact_frame": "diagonal"}}, "model.contact_frame"),
    ({"model": {**PENDULUM, "length": 0.0}}, "model.length"),
    ({"model": {**PENDULUM, "radius": 2.0}}, "model.radius"),
    ({"solver": {"tol": 0.0}}, "solver.tol"),
    ({"solver": {"max_iter": 0}}, "solver.max_iter"),
]


@pytest.mark.parametrize("overrides, key_path", OUT_OF_RANGE, ids=[p for _, p in OUT_OF_RANGE])
def test_out_of_range_value_reported_at_its_key_path(overrides, key_path):
    with pytest.raises(SchemaError) as info:
        config_from_dict(minimal_config(**overrides))
    assert info.value.key_path == key_path


def without(key):
    cfg = minimal_config()
    del cfg[key]
    return cfg


# each JSON-shape rule of config.py, broken once
SHAPE_ERRORS = [
    pytest.param(without("model"), "model", id="missing-model"),
    pytest.param(without("rule"), "rule", id="missing-rule"),
    pytest.param(without("q0"), "q0", id="missing-q0"),
    pytest.param(minimal_config(solver={"max_iter": 2.5}), "solver.max_iter", id="max_iter-float"),
    pytest.param(minimal_config(outputs={"csv": 1}), "outputs.csv", id="csv-int"),
    pytest.param(minimal_config(rule=3), "rule", id="rule-int"),
    pytest.param(minimal_config(q0=[]), "q0", id="empty-q0"),
    pytest.param(minimal_config(model=[]), "model", id="model-array"),
    pytest.param(minimal_config(model={**ELLIPSE, "shape": "ellipse"}), "model.shape",
                 id="shape-string"),
    pytest.param(minimal_config(solver=[]), "solver", id="solver-array"),
    pytest.param(minimal_config(outputs=[]), "outputs", id="outputs-array"),
    pytest.param([], "", id="top-level-array"),
    pytest.param(minimal_config(model={"type": "rocket"}), "model.type", id="unknown-type"),
    pytest.param(minimal_config(solver={"fd_eps": 1e-7}), "solver.fd_eps",
                 id="unknown-solver-key"),
    pytest.param(minimal_config(solver={"max_backtracks": 30}), "solver.max_backtracks",
                 id="max_backtracks-dropped"),
    pytest.param(minimal_config(model={**ELLIPSE, "shape": {"kind": "square"}}),
                 "model.shape.kind", id="unknown-shape-kind"),
    pytest.param(minimal_config(outputs={"plots": "energy"}), "outputs.plots",
                 id="plots-string"),
]


@pytest.mark.parametrize("doc, key_path", SHAPE_ERRORS)
def test_json_shape_error_reported_at_its_key_path(doc, key_path):
    with pytest.raises(SchemaError) as info:
        config_from_dict(doc)
    assert info.value.key_path == key_path
    assert info.value.context == {"key_path": key_path}


def test_overflowing_default_inertia_reported_at_its_key_path():
    # m (a^2 + b^2) / 4 overflows to inf, which the inertia rule rejects
    shape = {"kind": "ellipse", "a": 1e200, "b": 1.0}
    with pytest.raises(SchemaError) as info:
        config_from_dict(minimal_config(model={**ELLIPSE, "shape": shape}))
    assert info.value.key_path == "model.inertia"


class TestRoundTrip:
    def test_parse_serialize_parse_is_identity(self, tmp_path):
        for name in ("particle", "ellipse", "pendulum"):
            cfg = parse_config(bundled_config_path(name))
            path = tmp_path / f"{name}.json"
            path.write_text(serialize_config(cfg))
            assert parse_config(path) == cfg

    @pytest.mark.parametrize("model, q0, expected", [
        ({"shape": {"l": 1.0, "kind": "star"}, "inertia": 0.5, "type": "se2_body"},
         [0.3, 0.0, 3.0],
         {"type": "se2_body", "mass": 1.0, "gravity": 9.8, "shape": {"kind": "star", "l": 1.0},
          "inertia": 0.5, "contact_frame": "vertical"}),
        ({"contact_frame": "edge-slope", "type": "se2_body",
          "shape": {"b": 0.5, "a": 1.0, "kind": "ellipse"}},
         [0.3, 0.0, 3.0],
         {"type": "se2_body", "mass": 1.0, "gravity": 9.8,
          "shape": {"kind": "ellipse", "a": 1.0, "b": 0.5},
          "inertia": 0.3125, "contact_frame": "edge-slope"}),
        ({"f": 0.5, "radius": 1.5, "length": 2.0, "type": "pendulum"},
         [2.4, 0.0],
         {"type": "pendulum", "mass": 1.0, "gravity": 9.8, "length": 2.0, "radius": 1.5,
          "f": 0.5}),
        ({"gravity": 0, "type": "particle"},
         [0.0, 1.0],
         {"type": "particle", "mass": 1.0, "gravity": 0.0}),
    ], ids=["star", "edge-slope-ellipse", "constant-gain-pendulum", "zero-gravity-particle"])
    def test_every_model_variant_round_trips(self, tmp_path, model, q0, expected):
        cfg = config_from_dict(minimal_config(model=model, q0=q0, v0=[0.0] * len(q0)))
        doc = config_to_dict(cfg)
        # defaults filled in, keys in schema order, the shape's too
        assert json.dumps(doc["model"]) == json.dumps(expected)
        path = tmp_path / "cfg.json"
        path.write_text(serialize_config(cfg))
        again = parse_config(path)
        assert again == cfg
        assert serialize_config(again) == serialize_config(cfg)

    def test_built_model_keeps_the_params_record(self):
        star = {"type": "se2_body", "shape": {"kind": "star", "l": 1.0}, "inertia": 0.5}
        cfg = config_from_dict(minimal_config(model=star, q0=[0.3, 0.0, 3.0], v0=[0.0] * 3))
        assert build_model(cfg).params == Se2BodyParams(shape=StarShape(l=1.0), inertia=0.5)
        free = config_from_dict(minimal_config(model={"type": "particle", "gravity": 0}))
        assert build_model(free).params == ParticleParams(gravity=0.0)
        pendulum = {"type": "pendulum", "length": 2.0, "radius": 1.5, "f": 0.5}
        params = build_model(config_from_dict(
            minimal_config(model=pendulum, q0=[2.4, 0.0], v0=[0.0, 0.0]))).params
        assert isinstance(params, PendulumParams)
        assert (params.length, params.radius, params.f(1.0)) == (2.0, 1.5, 0.5)

    def test_defaults_are_materialized(self):
        cfg = config_from_dict(minimal_config())
        doc = config_to_dict(cfg)
        assert doc["t0"] == 0.0
        assert doc["solver"]["tol"] == 1e-10
        assert doc["outputs"]["csv"] is True
        assert json.loads(serialize_config(cfg)) == doc

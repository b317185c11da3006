"""The configuration schema is the records' fields: every field of every
record a configuration reaches is read at its key path, of its JSON kind, and
an absent one takes its record's default."""

import dataclasses

import pytest

from nhvi import (
    EllipseShape,
    PendulumParams,
    SchemaError,
    Se2BodyParams,
    StarShape,
    build_model,
    config_from_dict,
    parse_config,
)
from nhvi.cli import bundled_config_path
from nhvi.config import (
    JSON_KINDS,
    MODEL_TYPES,
    SHAPE_KINDS,
    OutputOptions,
    config_to_dict,
)
from nhvi.numerics import NewtonOptions

STAR = {"type": "se2_body", "shape": {"kind": "star", "l": 1.0}, "inertia": 0.5}


def _config(model=None, **overrides) -> dict:
    model = model or {"type": "particle"}
    n = MODEL_TYPES[model["type"]][2]
    doc = {"model": model, "rule": "midpoint", "q0": [0.0] * n, "v0": [0.0] * n,
           "t_final": 1.0, "h": 0.01}
    return {**doc, **overrides}


# a JSON value of each record field that its record accepts, none the default
FIELD_VALUES = {
    "mass": 2.0, "gravity": 3.0, "inertia": 0.4, "contact_frame": "edge-slope",
    "length": 2.5, "radius": 1.2, "a": 1.5, "b": 0.25, "l": 0.8,
    "tol": 1e-9, "max_iter": 7, "csv": False, "summary": False,
}
# the fields of no JSON kind, each read by its own rule
READ_APART = ("shape", "f", "plots")
# a JSON value of another kind than each JSON kind
WRONG_KIND = {float: "1.0", int: 1.5, bool: 1, str: 1.0}


def _record_fields():
    """(model object, path of the record's object, record) per model type and
    shape kind; a star takes its required inertia."""
    for mtype, (record, _, _) in MODEL_TYPES.items():
        yield {"type": mtype}, "model", record
    for kind, record in SHAPE_KINDS.items():
        model = {"type": "se2_body", "shape": {"kind": kind}}
        yield {**model, "inertia": 0.5} if kind == "star" else model, "model.shape", record


FIELD_CASES = [
    pytest.param(model, path, field, id=f"{model['type']}:{path}.{field.name}")
    for model, path, record in _record_fields()
    for field in dataclasses.fields(record)
    if field.name not in READ_APART
]


def _with_field(model: dict, path: str, name: str, value) -> dict:
    if path == "model":
        return {**model, name: value}
    return {**model, "shape": {**model["shape"], name: value}}


class TestSchemaFromRecords:
    @pytest.mark.parametrize("model, path, field", FIELD_CASES)
    def test_every_field_reaches_the_built_params(self, model, path, field):
        value = FIELD_VALUES[field.name]
        assert type(value) is JSON_KINDS[field.type]
        cfg = config_from_dict(_config(_with_field(model, path, field.name, value)))
        params = build_model(cfg).params
        obj = params if path == "model" else params.shape
        assert getattr(obj, field.name) == value
        doc = cfg.model if path == "model" else cfg.model["shape"]
        assert doc[field.name] == value
        assert config_from_dict(config_to_dict(cfg)) == cfg

    @pytest.mark.parametrize("model, path, field", FIELD_CASES)
    def test_a_value_of_another_kind_is_rejected_at_its_path(self, model, path, field):
        value = WRONG_KIND[JSON_KINDS[field.type]]
        with pytest.raises(SchemaError) as info:
            config_from_dict(_config(_with_field(model, path, field.name, value)))
        assert info.value.key_path == f"{path}.{field.name}"

    @pytest.mark.parametrize("key, record", [("solver", NewtonOptions),
                                             ("outputs", OutputOptions)])
    def test_solver_and_output_fields_are_read_at_their_paths(self, key, record):
        for field in dataclasses.fields(record):
            if field.name in READ_APART:
                continue
            value = FIELD_VALUES[field.name]
            assert type(value) is JSON_KINDS[field.type]
            cfg = config_from_dict(_config(**{key: {field.name: value}}))
            assert getattr(getattr(cfg, key), field.name) == value
            wrong = WRONG_KIND[JSON_KINDS[field.type]]
            with pytest.raises(SchemaError) as info:
                config_from_dict(_config(**{key: {field.name: wrong}}))
            assert info.value.key_path == f"{key}.{field.name}"

    def test_another_records_field_is_rejected_at_its_path(self):
        # model.f on a particle, model.shape and model.inertia on a pendulum among them
        cases = list(_record_fields())
        for model, path, record in cases:
            own = {field.name for field in dataclasses.fields(record)}
            others = {field.name for _, other_path, other in cases if other_path == path
                      for field in dataclasses.fields(other)} - own
            for name in others:
                doc = _config(_with_field(model, path, name, 1.0))
                with pytest.raises(SchemaError, match="unknown key") as info:
                    config_from_dict(doc)
                assert info.value.key_path == f"{path}.{name}"

    @pytest.mark.parametrize("model, field, default", [
        ({"type": "pendulum", "radius": 1.5}, "length", PendulumParams().length),
        ({"type": "pendulum", "length": 2.0}, "radius", PendulumParams().radius),
        ({"type": "se2_body"}, "shape", EllipseShape()),
        ({"type": "se2_body", "shape": {"kind": "ellipse", "b": 0.5}}, "a", EllipseShape().a),
        ({"type": "se2_body", "shape": {"kind": "ellipse", "a": 1.0}}, "b", EllipseShape().b),
        ({**STAR, "shape": {"kind": "star"}}, "l", StarShape().l),
    ], ids=["model.length", "model.radius", "model.shape", "shape.a", "shape.b", "shape.l"])
    def test_an_absent_key_takes_its_record_default(self, model, field, default):
        params = build_model(config_from_dict(_config(model))).params
        obj = params.shape if field in ("a", "b", "l") else params
        assert getattr(obj, field) == default

    def test_the_paper_examples_are_the_record_defaults(self):
        ellipse = config_from_dict(_config({"type": "se2_body"}))
        assert ellipse.model == parse_config(bundled_config_path("ellipse")).model
        assert build_model(ellipse).params == Se2BodyParams()
        pendulum = config_from_dict(_config({"type": "pendulum"}))
        assert pendulum.model == parse_config(bundled_config_path("pendulum")).model
        assert build_model(pendulum).params == PendulumParams()

    def test_every_record_field_has_a_json_kind_or_is_read_apart(self):
        records = [record for record, _, _ in MODEL_TYPES.values()]
        records += [*SHAPE_KINDS.values(), NewtonOptions, OutputOptions]
        for record in records:
            for field in dataclasses.fields(record):
                assert field.type in JSON_KINDS or field.name in READ_APART, (record, field)

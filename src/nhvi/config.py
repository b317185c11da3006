"""Simulation configuration: JSON schema, validation, and model construction.

Schema (all keys shown; unknown keys are rejected with their path):

    {
      "model": {
        "type": "particle" | "se2_body" | "pendulum",
        "mass": number, "gravity": number,   # gravity 0 (free motion): particle only
        # se2_body only:
        "shape": {"kind": "ellipse", "a": number, "b": number}
               | {"kind": "star", "l": number},
        "inertia": number,            # an ellipse's defaults to m (a^2 + b^2) / 4
        "contact_frame": "vertical" | "edge-slope",
        # pendulum only:
        "length": number, "radius": number,
        "f": "default" | number       # constraint gain; number means constant
      },
      "rule": "midpoint" | "retraction-left",
      "q0": [..], "v0": [..],         # continuous initial conditions
      "t0": number,                   # default 0
      "t_final": number,
      "h": number,                    # at least one step: round((t_final - t0) / h) >= 1
      "solver": {"tol": number, "max_iter": integer},
      "outputs": {"csv": bool, "summary": bool,
                  "plots": ["energy" | "coordinates" | "plane_trajectory", ..]}
    }

"model", "rule", "q0", "v0", "t_final", "h", "model.type" and "shape.kind"
are required.  This module checks only what JSON needs: types, finiteness,
unknown and required keys, and the enums of "type", "shape.kind", "rule" and
"plots".  Each object but the top level maps onto a record (a `*Params`
record, a shape, `NewtonOptions` or `OutputOptions`): its keys are the
record's fields, and the record owns every default and range; a value it
rejects is a SchemaError at its key path.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Tuple

from .discretization import RULES
from .errors import DimensionMismatch, ParameterError, SchemaError
from .geometry import MechanicalModel
from .integrator import step_count
from .models import (
    EllipseShape,
    ParticleParams,
    PendulumParams,
    Se2BodyParams,
    StarShape,
    make_particle,
    make_pendulum,
    make_se2_body,
)
from .numerics import NewtonOptions

# each model type's record, factory and coordinate count
MODEL_TYPES = {
    "particle": (ParticleParams, make_particle, 2),
    "se2_body": (Se2BodyParams, make_se2_body, 3),
    "pendulum": (PendulumParams, make_pendulum, 2),
}
SHAPE_KINDS = {"ellipse": EllipseShape, "star": StarShape}
PLOT_KINDS = ("energy", "coordinates", "plane_trajectory")
# the JSON kind of a record field, by its annotation; the fields of none
# (a shape, the pendulum's gain and the plots) are read apart
JSON_KINDS = {"float": float, "float | None": float, "int": int, "bool": bool, "str": str}


@dataclass(frozen=True)
class OutputOptions:
    csv: bool = True
    summary: bool = True
    plots: Tuple[str, ...] = ()


@dataclass(frozen=True)
class SimConfig:
    """A validated configuration.  `model` is the "model" object with its
    defaults filled in (an ellipse's inertia too), the shape nested and the
    keys in the order `config_to_dict` writes them."""

    model: dict
    rule: str
    q0: Tuple[float, ...]
    v0: Tuple[float, ...]
    t0: float
    t_final: float
    h: float
    solver: NewtonOptions = NewtonOptions()
    outputs: OutputOptions = OutputOptions()


def _reject_unknown(d: dict, allowed, path: str):
    for key in d:
        if key not in allowed:
            raise SchemaError(f"unknown key {key!r}", key_path=f"{path}.{key}" if path else key)


def _number(value, key_path: str) -> float:
    """A finite JSON number as a float.  json reads NaN and Infinity too, and
    integer literals past the float range, which float() cannot convert."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not (
        abs(value) <= sys.float_info.max
    ):
        raise SchemaError(f"expected a finite number, got {value!r}", key_path=key_path)
    return float(value)


def _get(d: dict, key: str, kind, path: str, default=...):
    if key not in d:
        if default is ...:
            raise SchemaError("missing required key", key_path=f"{path}.{key}" if path else key)
        return default
    value = d[key]
    full = f"{path}.{key}" if path else key
    if kind is float:
        value = _number(value, full)
    elif kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise SchemaError(f"expected an integer, got {value!r}", key_path=full)
    elif kind is bool:
        if not isinstance(value, bool):
            raise SchemaError(f"expected a boolean, got {value!r}", key_path=full)
    elif kind is str:
        if not isinstance(value, str):
            raise SchemaError(f"expected a string, got {value!r}", key_path=full)
    return value


def _parse_vector(d: dict, key: str, path: str) -> Tuple[float, ...]:
    full = f"{path}.{key}" if path else key
    if key not in d:
        raise SchemaError("missing required key", key_path=full)
    raw = d[key]
    if not isinstance(raw, list) or not raw:
        raise SchemaError("expected a non-empty array of numbers", key_path=full)
    return tuple(_number(entry, f"{full}[{i}]") for i, entry in enumerate(raw))


def _object(d, record, path: str, tag: str | None = None) -> dict:
    """The keys of JSON object `d` that name fields of `record`, in field
    order, each value of its field's JSON kind; a key that is neither a field
    nor the `tag` is rejected at its path.  An absent key is left out, for
    the record's default, and a field of no JSON kind keeps its JSON value."""
    if not isinstance(d, dict):
        raise SchemaError("expected an object", key_path=path)
    kinds = {f.name: JSON_KINDS.get(f.type) for f in dataclasses.fields(record)}
    _reject_unknown(d, {*kinds, tag}, path)
    return {key: _get(d, key, kind, path) for key, kind in kinds.items() if key in d}


def _record(make, fields: dict, path: str):
    """make(**fields), a value the record rejects reported at its key path."""
    try:
        return make(**fields)
    except ParameterError as exc:
        key_path = f"{path}.{exc.field}" if path else exc.field
        raise SchemaError(exc.detail, key_path=key_path) from exc


def _params(model: dict, path: str = "model"):
    """The `*Params` record of a model object of JSON-valid types: the shape
    object becomes its record, and a numeric "f" a constant gain."""
    fields = dict(model)
    record = MODEL_TYPES[fields.pop("type")][0]
    if "shape" in fields:
        shape = dict(fields["shape"])
        fields["shape"] = _record(SHAPE_KINDS[shape.pop("kind")], shape, f"{path}.shape")
    gain = fields.pop("f", "default")
    if gain != "default":
        fields["f"] = lambda theta, _c=gain: _c
    return _record(record, fields, path)


def _parse_shape(d, path: str) -> dict:
    """The shape object's kind and the fields it sets, each of its kind."""
    if not isinstance(d, dict):
        raise SchemaError("expected an object", key_path=path)
    kind = _get(d, "kind", str, path)
    if kind not in SHAPE_KINDS:
        raise SchemaError(
            f"unknown shape kind {kind!r}; expected 'ellipse' or 'star'", key_path=f"{path}.kind"
        )
    return {"kind": kind, **_object(d, SHAPE_KINDS[kind], path, "kind")}


def _parse_model(d, path="model") -> dict:
    """The validated model object: defaults filled in, keys in field order."""
    if not isinstance(d, dict):
        raise SchemaError("expected an object", key_path=path)
    mtype = _get(d, "type", str, path)
    if mtype not in MODEL_TYPES:
        raise SchemaError(
            f"unknown model type {mtype!r}; expected one of {sorted(MODEL_TYPES)}",
            key_path=f"{path}.type",
        )
    fields = _object(d, MODEL_TYPES[mtype][0], path, "type")
    if "shape" in fields:
        fields["shape"] = _parse_shape(fields["shape"], f"{path}.shape")
    if fields.get("f", "default") != "default":
        fields["f"] = _number(fields["f"], f"{path}.f")
    params = _params({"type": mtype, **fields}, path)
    model = {"type": mtype, **dataclasses.asdict(params)}
    if "shape" in model:  # the shape record's fields, after its kind
        kind = next(k for k, shape in SHAPE_KINDS.items() if type(params.shape) is shape)
        model["shape"] = {"kind": kind, **model["shape"]}
    if "f" in model:
        model["f"] = fields.get("f", "default")
    return model


def check_time_span(t0: float, t_final: float, h: float) -> None:
    """`integrator.step_count`'s rule for the time span, a break of it a
    SchemaError at the key it names."""
    _record(step_count, {"t0": t0, "t_final": t_final, "h": h}, "")


def config_from_dict(d: dict) -> SimConfig:
    if not isinstance(d, dict):
        raise SchemaError("top-level configuration must be an object")
    _reject_unknown(d, {f.name for f in dataclasses.fields(SimConfig)}, "")
    if "model" not in d:
        raise SchemaError("missing required key", key_path="model")
    model = _parse_model(d["model"])

    rule = _get(d, "rule", str, "")
    if rule not in RULES:
        raise SchemaError(f"unknown rule {rule!r}; expected one of {RULES}", key_path="rule")

    q0 = _parse_vector(d, "q0", "")
    v0 = _parse_vector(d, "v0", "")
    n = MODEL_TYPES[model["type"]][2]
    if len(q0) != n or len(v0) != n:
        raise DimensionMismatch(
            f"model {model['type']!r} has dimension {n}, got q0 of length {len(q0)} "
            f"and v0 of length {len(v0)}"
        )

    t0 = _get(d, "t0", float, "", default=0.0)
    t_final = _get(d, "t_final", float, "")
    h = _get(d, "h", float, "")
    check_time_span(t0, t_final, h)

    solver = _record(NewtonOptions, _object(d.get("solver", {}), NewtonOptions, "solver"), "solver")

    outputs = _object(d.get("outputs", {}), OutputOptions, "outputs")
    plots = outputs.get("plots", [])
    if not isinstance(plots, list):
        raise SchemaError("expected an array", key_path="outputs.plots")
    for i, kind in enumerate(plots):
        if kind not in PLOT_KINDS:
            raise SchemaError(
                f"unknown plot kind {kind!r}; expected one of {PLOT_KINDS}",
                key_path=f"outputs.plots[{i}]",
            )
    outputs = OutputOptions(**{**outputs, "plots": tuple(plots)})

    return SimConfig(
        model=model,
        rule=rule,
        q0=q0,
        v0=v0,
        t0=t0,
        t_final=t_final,
        h=h,
        solver=solver,
        outputs=outputs,
    )


def parse_config(path) -> SimConfig:
    """Load and validate a configuration file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read configuration file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past int's digit limit
        raise SchemaError(f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(raw)


def config_to_dict(cfg: SimConfig) -> dict:
    """Every field of `cfg`, nested records as objects and tuples as lists."""
    return dataclasses.asdict(cfg, dict_factory=lambda items: {
        key: list(value) if isinstance(value, tuple) else value for key, value in items
    })


def serialize_config(cfg: SimConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2)


def build_model(cfg: SimConfig) -> MechanicalModel:
    """Instantiate the mechanical model described by a configuration."""
    return MODEL_TYPES[cfg.model["type"]][1](_params(cfg.model))

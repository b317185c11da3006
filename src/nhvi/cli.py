"""Command-line interface: run experiments, bundled demos, model validation.

    nhvi run --config cfg.json [--h H] [--t-final T] [--out DIR]
    nhvi run --sweep a.json b.json ... [--out DIR]
    nhvi demo {particle|ellipse|pendulum} [--h H] [--t-final T] [--out DIR]
    nhvi validate --config cfg.json

NHVI_LOG={error|info|debug} controls solver tracing.  `run` exits 0 on
success and nonzero after writing a diagnostic JSON when a solve fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from importlib import resources
from pathlib import Path

import numpy as np

from .config import SimConfig, build_model, check_time_span, config_to_dict, parse_config
from .diagnostics import build_report
from .discretization import make_discrete_lagrangian
from .errors import NhviError, SchemaError
from .integrator import simulate
from .output import (
    write_impacts_csv,
    write_plots,
    write_summary_json,
    write_trajectory_csv,
)
from .validation import run_all_checks

log = logging.getLogger("nhvi.cli")

DEMOS = ("particle", "ellipse", "pendulum")


def _setup_logging() -> None:
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    name = os.environ.get("NHVI_LOG", "error").lower()
    logging.basicConfig(
        level=levels.get(name, logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s",
    )


def _apply_overrides(cfg: SimConfig, args) -> SimConfig:
    """Apply --h / --t-final, checked like the same keys of a config file."""
    updates = {
        key: getattr(args, key)
        for key in ("h", "t_final")
        if getattr(args, key, None) is not None
    }
    cfg = dataclasses.replace(cfg, **updates)
    check_time_span(cfg.t0, cfg.t_final, cfg.h)
    return cfg


def _run_single(cfg: SimConfig, out_dir: Path) -> None:
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SchemaError(f"cannot create output directory {out_dir}: {exc.strerror}",
                          "out") from exc
    model = build_model(cfg)
    Ld = make_discrete_lagrangian(model, cfg.rule)
    t_simulate = time.perf_counter()
    traj = simulate(
        Ld,
        model,
        np.array(cfg.q0),
        np.array(cfg.v0),
        cfg.t0,
        cfg.t_final,
        cfg.h,
        cfg.solver,
    )
    t_report = time.perf_counter()
    report = build_report(traj, Ld, model)
    t_write = time.perf_counter()
    log.info(
        "%s: %d steps, %d impacts, energy drift %.3e, %.2f s",
        model.name,
        len(traj.states) - 1,
        report.impact_count,
        report.energy_drift_rel,
        t_report - t_simulate,
    )
    try:
        if cfg.outputs.csv:
            write_trajectory_csv(out_dir / "trajectory.csv", traj, report, model)
            write_impacts_csv(out_dir / "impacts.csv", traj, model)
        if cfg.outputs.summary:
            write_summary_json(out_dir / "summary.json", report, cfg)
        if cfg.outputs.plots:
            # by keyword: the traced benchmark's hook takes the five positionals
            write_plots(out_dir, traj, Ld, model, cfg.outputs.plots, report=report)
    except OSError as exc:
        raise SchemaError(f"cannot write into output directory {out_dir}: {exc}", "out") from exc
    log.info(
        "%s: build_report %.3f s, writers %.3f s",
        model.name,
        t_write - t_report,
        time.perf_counter() - t_write,
    )


def _diagnostic(exc: NhviError) -> dict:
    """The record of a failure: its type, message and context."""
    return {"error": type(exc).__name__, "message": str(exc), **exc.context}


def _fail_with_diagnostic(exc: NhviError, out_dir: Path, cfg: SimConfig | None) -> int:
    diagnostic = _diagnostic(exc)
    for name in ("state", "prev"):
        # the last good node and, after a smooth step, the one before it; JSON
        # floats round-trip exactly, so the failing step replays from them
        node = getattr(exc, name)
        if node is not None:
            diagnostic[name] = {
                "k": node.k,
                "t": node.t,
                **{key: list(getattr(node, key)) for key in ("q", "v", "p", "lam")},
            }
    if cfg is not None:
        # the resolved configuration, overrides applied: it rebuilds the
        # model, h and solver options the replay needs
        diagnostic["config"] = config_to_dict(cfg)
    text = json.dumps(diagnostic, indent=2)
    print(text, file=sys.stderr)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "error.json").write_text(text + "\n")
    except OSError:
        pass
    return 2


def _run_config(path, args, out_dir: Path) -> int:
    """Parse, override and run one configuration; 2 after writing error.json."""
    cfg = None
    try:
        cfg = _apply_overrides(parse_config(path), args)
        _run_single(cfg, out_dir)
    except NhviError as exc:
        return _fail_with_diagnostic(exc, out_dir, cfg)
    return 0


def cmd_run(args) -> int:
    if args.sweep:
        paths = args.sweep
        out_root = Path(args.out or "nhvi_out")
        stems = [Path(path).stem for path in paths]
        shared = sorted({stem for stem in stems if stems.count(stem) > 1})
        if shared:
            raise SchemaError(f"sweep members share the file stems {shared}; "
                              f"each member needs its own output directory")
        out_dirs = [out_root / stem for stem in stems]
        workers = min(len(paths), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return max(pool.map(_run_config, paths, [args] * len(paths), out_dirs))
    return _run_config(args.config, args, Path(args.out or "nhvi_out"))


def bundled_config_path(name: str):
    """Path-like handle to a packaged demo configuration."""
    return resources.files("nhvi") / "configs" / f"{name}.json"


def cmd_demo(args) -> int:
    out_dir = Path(args.out or f"nhvi_out_{args.name}")
    with resources.as_file(bundled_config_path(args.name)) as path:
        return _run_config(path, args, out_dir)


def cmd_validate(args) -> int:
    cfg = parse_config(args.config)
    model = build_model(cfg)
    results = run_all_checks(model, cfg.rule)
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name}: {detail}")
        failed += 0 if ok else 1
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhvi",
        description="Variational collision integrators for nonholonomic systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="integrate a configuration and write outputs")
    source = run_p.add_mutually_exclusive_group(required=True)
    source.add_argument("--config", help="path to a configuration JSON file")
    source.add_argument("--sweep", nargs="+", metavar="CONFIG",
                        help="run several configs in parallel workers")
    run_p.add_argument("--h", type=float, default=None, help="override timestep")
    run_p.add_argument("--t-final", dest="t_final", type=float, default=None,
                       help="override final time")
    run_p.add_argument("--out", default=None, help="output directory")
    run_p.set_defaults(func=cmd_run)

    demo_p = sub.add_parser("demo", help="run a bundled experiment")
    demo_p.add_argument("name", choices=DEMOS)
    demo_p.add_argument("--h", type=float, default=None, help="override timestep")
    demo_p.add_argument("--t-final", dest="t_final", type=float, default=None,
                        help="override final time")
    demo_p.add_argument("--out", default=None, help="output directory")
    demo_p.set_defaults(func=cmd_demo)

    val_p = sub.add_parser("validate", help="run invariant suites without integrating")
    val_p.add_argument("--config", required=True)
    val_p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NhviError as exc:
        print(json.dumps(_diagnostic(exc)), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of nhvi: three workloads, end-to-end metrics, a traced layer split.

Run from the root of a checkout (nhvi is imported from its src/ directory):

    python3 bench/run.py --workload pendulum_long --seed 1 --seconds 20 --trace 0

Workloads (one operation = one trajectory: set-up, simulate,
post-processing, output check; the operations of one seed form a pass):

  pendulum_long  criterion-4 constrained pendulum, retraction-left, h = 1e-4,
                 20 000 steps, then build_report.  Smooth Newton steps.
  bounce_sweep   384 seeded 2 s bounces (particle, ellipse with both contact
                 frames, star) at midpoint h = 2e-2.  Impact phases.  A typed
                 solver error is an accepted outcome here; it lowers
                 solved_frac and is listed by body kind and error type.
  demo_outputs   the bundled particle, ellipse and pendulum demos through
                 nhvi.cli.main, writing CSV, summary and SVG files.

--trace 0 repeats the pass for --seconds (at least MIN_PASSES times) with
nothing wrapped and reports the end-to-end metrics:
  setup_s           fresh interpreter to first step (setup_probe.py), median
                    of one sample per pass and at least SETUP_SAMPLES;
  us_per_step       simulate time per step of the solved operations;
  post_us_per_node  everything after simulate, per stored node;
  peak_rss_mb       peak resident memory of this process;
  solved_frac       operations that ran to t_final and passed their output
                    checks, over operations attempted.
Times are scaled to a reference host speed (calibration.py) and are the
median over passes; the unscaled figures are in the detail line.

--trace 1 runs the pass once untraced, then traced as often as --seconds
allows, and reports the per-layer metrics (spans.py).  Count metrics must be
identical in every pass.  The spans of the first traced pass are written to
.bench_out/.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it holds the
details (seed, failures by kind and type, layer split).  An operation fails
when an output check fails or it raises anything other than a solver error
its workload accepts.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path
from time import perf_counter

import calibration
import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 15
MIN_PASSES = 3
# the trajectory-memory probe runs at most this many steps under tracemalloc
MEMORY_PROBE_STEPS = 5000
WORKLOADS = ("pendulum_long", "bounce_sweep", "demo_outputs")


def import_nhvi():
    src = ROOT / "src"
    if not (src / "nhvi" / "__init__.py").is_file():
        raise SystemExit(f"bench: no nhvi package under {src}; run from a checkout")
    sys.path.insert(0, str(src))
    import nhvi

    if Path(nhvi.__file__).resolve().parent != (src / "nhvi").resolve():
        raise SystemExit(f"bench: imported nhvi from {nhvi.__file__}, not from {src}")


def setup_seconds(cfg_path: Path, cli: bool) -> float:
    """Seconds from starting a fresh interpreter to its first step, scaled
    to the reference host speed measured in that interpreter."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(ROOT / "src"),
           "cli" if cli else "lib", str(cfg_path)]
    started = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        ready = perf_counter()
        kernel_us = proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise SystemExit(f"bench: set-up probe failed with exit code {proc.returncode}")
    return (ready - started) * calibration.REFERENCE_US / float(kernel_us)


def reraise_hook_errors(exc: Exception) -> None:
    if isinstance(exc, spans.HookMissing):
        raise exc


def per_unit(results, seconds_attr: str, unit_attr: str):
    """Microseconds per unit over the solved operations, or None."""
    solved = [r for r in results if r.solved]
    units = sum(getattr(r, unit_attr) for r in solved)
    if not units:
        return None
    return 1e6 * sum(getattr(r, seconds_attr) for r in solved) / units


def scaled_us_per_unit(results, part: str, unit_attr: str, sampler) -> float:
    """Microseconds per unit over the solved operations, each interval
    scaled to the reference host speed measured while it ran.  `part` is
    "sim" (simulate) or "post" (everything after it)."""
    solved = [r for r in results if r.solved]
    units = sum(getattr(r, unit_attr) for r in solved)
    if not units:
        raise SystemExit("bench: no operation solved, so nothing could be timed")
    total = 0.0
    for r in solved:
        start, end = (r.started, r.simulated) if part == "sim" else (r.simulated, r.finished)
        total += (end - start) * sampler.scale(start, end)
    return 1e6 * total / units


def outcome_detail(workload, results) -> tuple:
    """(failed count, detail dict) over all operation results."""
    failed = [
        r for r in results
        if r.problems or (r.solver_error and not workload.solver_errors_allowed)
    ]
    unsolved = [r for r in results if r.solver_error]
    problems = [f"{r.label}: {p}" for r in results for p in r.problems]
    problems += [f"{r.label}: solver error {r.solver_error}" for r in failed if r.solver_error]
    solved = sum(r.solved for r in results)
    return len(failed), {
        "operations": len(results),
        "solved": solved,
        "solved_frac_base": f"{solved} solved of {len(results)} attempted",
        "solver_errors_by_kind": dict(Counter(r.label for r in unsolved)),
        "solver_errors_by_type": dict(Counter(r.solver_error for r in unsolved)),
        "output_check": "pass" if not failed else "fail",
        "failed_checks": problems[:20],
    }


def timed_run(workload, seed: int, seconds: float, sampler):
    from workloads import run_op

    ops = workload.ops(seed)
    cli = workload.name == "demo_outputs"
    setup_seconds(ops[0][1], cli)  # uncounted: warms the file cache
    setup, passes = [], []
    deadline = perf_counter() + seconds
    while len(passes) < MIN_PASSES or perf_counter() < deadline:
        setup.append(setup_seconds(ops[0][1], cli))
        sampler.start()
        try:
            passes.append([run_op(workload, label, path, reraise_hook_errors)
                           for label, path in ops])
        finally:
            sampler.stop()
        gc.collect()
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_seconds(ops[0][1], cli))
    results = [r for p in passes for r in p]
    failed, detail = outcome_detail(workload, results)
    metrics = {
        "setup_s": statistics.median(setup),
        "us_per_step": statistics.median(
            scaled_us_per_unit(p, "sim", "steps", sampler) for p in passes),
        "post_us_per_node": statistics.median(
            scaled_us_per_unit(p, "post", "nodes", sampler) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "solved_frac": sum(r.solved for r in results) / len(results),
    }
    detail.update(
        passes=len(passes),
        setup_s_samples=setup,
        unscaled_us_per_step=statistics.median(per_unit(p, "sim_s", "steps") for p in passes),
        unscaled_post_us_per_node=statistics.median(
            per_unit(p, "post_s", "nodes") for p in passes),
        reference_kernel_us=statistics.median(sampler.us),
        speed_samples=len(sampler.us),
    )
    return metrics, len(results), failed, detail


def trajectory_bytes_per_state(ops) -> float:
    """Bytes a trajectory keeps alive per stored state, from tracemalloc,
    on the first operation of the pass that simulates without a solver
    error (at most MEMORY_PROBE_STEPS steps of it)."""
    import numpy as np

    import nhvi.config
    import nhvi.discretization
    import nhvi.integrator
    from nhvi.errors import NhviError

    for _, path in ops:
        cfg = nhvi.config.parse_config(path)
        model = nhvi.config.build_model(cfg)
        Ld = nhvi.discretization.make_discrete_lagrangian(model, cfg.rule)
        t_final = min(cfg.t_final, cfg.t0 + MEMORY_PROBE_STEPS * cfg.h)
        q0, v0 = np.array(cfg.q0), np.array(cfg.v0)
        gc.collect()
        tracemalloc.start()
        try:
            traj = nhvi.integrator.simulate(Ld, model, q0, v0, cfg.t0, t_final, cfg.h, cfg.solver)
        except NhviError:
            continue
        finally:
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0]
            tracemalloc.stop()
        return kept / len(traj.states)
    return 0.0


def traced_run(workload, seed: int, seconds: float):
    from workloads import run_op

    ops = workload.ops(seed)
    deadline = perf_counter() + seconds
    plain = [run_op(workload, label, path, reraise_hook_errors) for label, path in ops]
    plain_us = per_unit(plain, "sim_s", "steps")
    all_results = list(plain)
    passes, splits, first = [], [], None
    while not passes or perf_counter() < deadline:
        gc.collect()
        tracer = spans.Tracer()
        results = []
        with spans.installed(tracer):
            for i, (label, path) in enumerate(ops):
                with tracer.operation(i):
                    results.append(run_op(workload, label, path, reraise_hook_errors))
        spans.check_spans_fired(tracer, cli=workload.name == "demo_outputs")
        metrics, split = spans.metrics(tracer)
        traced_us = per_unit(results, "sim_s", "steps")
        metrics["trace.overhead"] = traced_us / plain_us if traced_us and plain_us else 0.0
        passes.append(metrics)
        splits.append(split)
        all_results += results
        if first is None:
            first = tracer
    gc.collect()
    bytes_per_state = trajectory_bytes_per_state(ops)

    failed, detail = outcome_detail(workload, all_results)
    harness = []
    unsteady = [m for m in spans.COUNT_METRICS if len({p[m] for p in passes}) > 1]
    if unsteady:
        harness.append("counts differ between traced passes: " + ", ".join(unsteady))
    for split in splits:
        total = sum(split["self_us_by_layer"].values())
        if abs(total - split["wall_us"]) > 1e-6 * split["wall_us"]:
            harness.append(f"layer self times sum to {total:.1f} us, "
                           f"traced wall time is {split['wall_us']:.1f} us")
    if harness:
        detail["output_check"] = "fail"
        detail["failed_checks"] += harness
    metrics = {
        name: passes[0][name] if name in spans.COUNT_METRICS
        else statistics.median(p[name] for p in passes)
        for name in passes[0]
    }
    metrics["integrator.trajectory.bytes_per_state"] = bytes_per_state

    OUT_DIR.mkdir(exist_ok=True)
    spans_file = OUT_DIR / f"spans-{workload.name}.npz"
    first.save(spans_file)
    detail.update(
        traced_passes=len(passes),
        untraced_us_per_step=plain_us,
        layer_split=splits[0],
        spans_file=str(spans_file.relative_to(ROOT)),
    )
    return metrics, len(all_results), failed, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_nhvi()
    from workloads import make_workload

    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    sampler = calibration.SpeedSampler()
    workload = make_workload(args.workload, workdir,
                             perf_counter if args.trace else sampler.clock)
    try:
        if args.trace:
            values, attempted, failed, detail = traced_run(workload, args.seed, args.seconds)
        else:
            values, attempted, failed, detail = timed_run(
                workload, args.seed, args.seconds, sampler)
    except spans.HookMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise SystemExit("bench: metrics listed in BENCHMARK.json but not measured: "
                         + ", ".join(missing))
    print(json.dumps({"detail": {"workload": args.workload, "seed": args.seed,
                                 "seconds": args.seconds, "trace": args.trace, **detail}}))
    print(json.dumps({
        "correct": failed == 0 and detail["output_check"] == "pass",
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The traced benchmark wraps nhvi functions by name: every hook must still
exist and fire on a short bouncing-particle run and on a short constrained
pendulum run, and the CLI-side hooks on a particle demo run through the CLI."""

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import spans  # noqa: E402
import workloads  # noqa: E402


def test_traced_hooks_exist_and_fire(tmp_path):
    kind, doc = workloads.bounce_config(1, 0)  # bouncing particle, 100 steps
    path = tmp_path / "bounce.json"
    path.write_text(json.dumps(doc))
    tracer = spans.Tracer()
    with spans.installed(tracer), tracer.operation(0):
        res = workloads.run_direct(kind, path, workloads._bounce_checks, perf_counter)
    assert res.solved, (res.solver_error, res.problems)
    spans.check_spans_fired(tracer, cli=False)


def test_traced_hooks_fire_on_the_constrained_pendulum(tmp_path):
    # the pendulum_long model and retraction-left rule, stopped just past
    # its first wall impact (t = 1.23)
    doc = {**workloads.pendulum_config(), "t_final": 1.3}
    path = tmp_path / "pendulum.json"
    path.write_text(json.dumps(doc))
    tracer = spans.Tracer()
    with spans.installed(tracer), tracer.operation(0):
        res = workloads.run_direct("pendulum", path, workloads._pendulum_checks, perf_counter)
    assert res.solved, (res.solver_error, res.problems)
    spans.check_spans_fired(tracer, cli=False)


def test_traced_cli_hooks_exist_and_fire(tmp_path):
    workload = workloads.make_workload("demo_outputs", tmp_path)
    try:
        (label, path), = [op for op in workload.ops(1) if op[0] == "particle"]
        tracer = spans.Tracer()
        with spans.installed(tracer), tracer.operation(0):
            res = workload.runner(label, path)
    finally:
        workload.close()
    assert res.solved, (res.solver_error, res.problems)
    spans.check_spans_fired(tracer, cli=True)

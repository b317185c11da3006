"""Self-checks of the benchmark harness.  Run from the root of a checkout:

    python3 bench/selfcheck.py

1. Counts repeat: for every workload, two traced runs of the same code and
   seed report identical count-type per-layer metrics (spans.COUNT_METRICS).
2. Fresh seed: bounce_sweep, with a seed that was not used while the
   benchmark was built, runs clean: exit 0, correct, no failed operation.
3. Missing hook: removing a wrapped function makes the traced run fail with
   an error that names it, instead of reporting zero.
4. No sources: in a directory holding only BENCHMARK.json and bench/, the
   benchmark exits nonzero without printing a result.

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("pendulum_long", "bounce_sweep", "demo_outputs")
REPEAT_SEED = 11
FRESH_SEED = 104729


def bench(cwd: Path, workload: str, seed: int, seconds: float, trace: int):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def check_counts_repeat() -> list:
    from spans import COUNT_METRICS

    problems = []
    for workload in WORKLOADS:
        results = []
        for _ in range(2):
            proc = bench(ROOT, workload, REPEAT_SEED, 1, trace=1)
            result = last_json(proc.stdout)
            if proc.returncode != 0 or not result or not result["correct"]:
                problems.append(f"{workload}: traced run failed: {proc.stderr.strip()[-300:]}")
                break
            results.append({m: v["value"] for m, v in result["metrics"].items()})
        else:
            differ = [m for m in COUNT_METRICS if results[0][m] != results[1][m]]
            if differ:
                problems.append(f"{workload}: counts differ: {', '.join(differ)}")
    return problems


def check_fresh_seed() -> list:
    proc = bench(ROOT, "bounce_sweep", FRESH_SEED, 10, trace=0)
    result = last_json(proc.stdout)
    if proc.returncode != 0 or not result:
        return [f"seed {FRESH_SEED}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    if not result["correct"] or result["failed"]:
        return [f"seed {FRESH_SEED}: {result['failed']} failed of {result['attempted']}"]
    return []


def check_missing_hook() -> list:
    sys.path.insert(0, str(ROOT / "src"))
    import nhvi.integrator
    import spans

    removed = nhvi.integrator._step_plus_impl
    del nhvi.integrator._step_plus_impl
    try:
        with spans.installed(spans.Tracer()):
            pass
    except spans.HookMissing as exc:
        if "nhvi.integrator._step_plus_impl" in str(exc):
            return []
        return [f"error does not name the hook: {exc}"]
    finally:
        nhvi.integrator._step_plus_impl = removed
    return ["no error for a missing hook"]


def check_no_sources() -> list:
    bare = ROOT / ".bench_work" / "selfcheck-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, "bounce_sweep", 1, 1, trace=0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or last_json(proc.stdout) is not None:
        return [f"exit {proc.returncode}, stdout {proc.stdout.strip()[-200:]!r}"]
    return []


def main() -> int:
    checks = (
        ("counts repeat", check_counts_repeat),
        (f"fresh seed {FRESH_SEED}", check_fresh_seed),
        ("missing hook", check_missing_hook),
        ("no sources", check_no_sources),
    )
    failed = 0
    for name, check in checks:
        problems = check()
        print(f"{'FAIL' if problems else 'PASS'}  {name}" + "".join(f"\n      {p}" for p in problems),
              flush=True)
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

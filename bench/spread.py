"""Run the benchmark once per seed and summarize each metric's spread.

    python3 bench/spread.py --workload pendulum_long --seeds 1-10 [--trace 0]
                            [--seconds S] [--json runs.json]

Runs are sequential, one process each, from the root of the checkout.  For
every metric it prints the median, the quartiles (statistics.quantiles with
n=4), the quartile distance as a share of the median, and the metric's bound
from BENCHMARK.json.  --json writes every run's result for later comparison.
Exits 1 if a run fails or reports correct=false.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--json", default=None, help="write all results here")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    runs = []
    ok = True
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        lines = proc.stdout.strip().splitlines()
        result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
        ok = ok and result["correct"]
        runs.append({"seed": seed, "result": result, "detail": detail})
        values = {m: v["value"] for m, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{m}={values[m]:.6g}" for m in values if not args.trace), flush=True)

    print(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
    for m in listed:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        if len(values) < 2:
            continue
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else 0.0
        print(f"{m['name']:44s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{m.get('bound', ''):>6}")
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

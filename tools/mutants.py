"""A fixed mutation check of nhvi's numerical core and its run report.

Each mutant is one hand-written fault: a file under the repository root, an
exact snippet of it, the snippet's replacement and why the fault matters.
Every snippet must occur exactly once in its file, so a refactor that moves
or rewrites it stops the run as a stale mutant instead of skipping it in
silence.  The unmutated tests run first and must pass.  Then each mutant is
applied to its own temporary copy of the repository, and the quick test
selection (`pytest -x -m "not slow"`) runs there.  A mutant is killed when
a test fails, and the first failing test is printed; it survives when the
whole selection passes.  A survivor is either closed by a new test or marked
`equivalent` below, with the reason it cannot be told apart.

    python3 tools/mutants.py              # every mutant
    python3 tools/mutants.py --list       # names and reasons only
    python3 tools/mutants.py solve-no-first-swap energy-jump-on-s1

It exits non-zero when a mutant that is not marked equivalent survives, or
when a snippet is stale.  It uses the standard library only, and is not part
of the test suite: each mutant reruns the quick selection, about a minute
per survivor on two cores.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    reason: str
    equivalent: bool = False


INTEGRATOR = "src/nhvi/integrator.py"
NUMERICS = "src/nhvi/numerics.py"
DIAGNOSTICS = "src/nhvi/diagnostics.py"

MUTANTS = (
    Mutant(
        "energy-jump-on-s1", INTEGRATOR,
        "energy_jump = abs(d3_pre - Ld.d3_w(q_tilde, w_out, s2))",
        "energy_jump = abs(d3_pre - Ld.d3_w(q_tilde, w_out, s1))",
        "the reported energy jump evaluates the post-impact energy on the "
        "first sub-step instead of the second",
    ),
    Mutant(
        "law-rate-sign", INTEGRATOR,
        "law_rate += mu",
        "law_rate = -(law_rate + mu)",
        "the law's normal rate, which types a failed rebound, has its sign flipped",
    ),
    Mutant(
        "alpha-seed-half", INTEGRATOR,
        "alpha0 = c_k / (c_k - c_v)",
        "alpha0 = 0.5",
        "phase A starts from alpha = 0.5 instead of the chord's crossing, and "
        "the arc's false-position step starts from there",
    ),
    Mutant(
        "law-metric-lqq", INTEGRATOR,
        "M = model.d2L(frame.q_tilde, w_in)[2]",
        "M = model.d2L(frame.q_tilde, w_in)[0]",
        "the impact law's kinetic metric is Lqq instead of Lvv",
    ),
    Mutant(
        "phase-b-shifted-constraint", INTEGRATOR,
        "om_t = model.omega(q_tilde)",
        "om_t = model.omega([x + s2 for x in q_tilde])",
        "the constrained phase-B rows take omega off the boundary point",
    ),
    Mutant(
        "compat-residual-sum", INTEGRATOR,
        "zip(push_cotangent(frame, p_tilde), d2_pre)])",
        "zip(push_cotangent(frame, p_tilde), [-x for x in d2_pre])])",
        "compat_residual is |push(p~) + d2_pre| instead of the discarded "
        "momentum |push(p~) - d2_pre|",
    ),
    Mutant(
        "grazing-tol-1e-9", "src/nhvi/geometry.py",
        "GRAZING_TOL = 1e-12",
        "GRAZING_TOL = 1e-9",
        "near-equivalent: a node whose gap lies in [-1e-9, -1e-12) is admitted "
        "instead of resolved as an impact, and no test reaches such a node",
        equivalent=True,
    ),
    Mutant(
        "phase-a-multiplier-seed-1", INTEGRATOR,
        "z0 = [alpha0, *w0, *[0.0] * m]",
        "z0 = [alpha0, *w0, *[1.0] * m]",
        "near-equivalent: phase A's residual is linear in lambda with constant "
        "columns, so Newton's first step does not depend on the multiplier "
        "seed; only rounding and the line search's first comparison see it",
        equivalent=True,
    ),
    Mutant(
        "phase-a-w-seed-no-arc", INTEGRATOR,
        "        w0 = [w - (1.0 - alpha0) * d for w, d in zip(w0, dw)]\n",
        "",
        "phase A's w seed drops the pre-impact arc's term and keeps the chord's "
        "(v_k - q_k) / h: Newton ends on the same roots, and only the phase-A "
        "iteration ratchet of tests/test_corpus.py sees the extra iterations",
    ),
    Mutant(
        "phase-a-force-sign", INTEGRATOR,
        "r = [a - _dot(col, lam) for a, col in zip(r, omT_k)]",
        "r = [a + _dot(col, lam) for a, col in zip(r, omT_k)]",
        "the constraint force in phase A's momentum rows has its sign flipped, "
        "which negates every lambda_A",
    ),
    Mutant(
        "phase-a-jacobian-lambda-sign", INTEGRATOR,
        "right = [list(map(neg, col)) for col in omT_k]",
        "right = [list(col) for col in omT_k]",
        "phase A's Jacobian has +omega^T(q_k), not -omega^T(q_k), in its "
        "lambda columns",
    ),
    Mutant(
        "phase-a-jacobian-gap-row-no-s", INTEGRATOR,
        "J.append([s * g for g in gap_grad(",
        "J.append([g for g in gap_grad(",
        "phase A's Jacobian gap row has grad c(q~) in its w block, without the "
        "sub-step factor s",
    ),
    Mutant(
        "step-minus-jacobian-untransposed", INTEGRATOR,
        "cols = zip(*Ld.d1_dv(z[:n], q_next, h))",
        "cols = Ld.d1_dv(z[:n], q_next, h)",
        "the backward step's u block reads d1_dv's rows instead of its columns: "
        "D2 d1 where D1 d2 = (D2 d1)^T belongs, which differs where d1_dv is "
        "not symmetric (the pendulum)",
    ),
    Mutant(
        "row-write-v-p-swapped", INTEGRATOR,
        "rows[k + 1] = [new_state.t, *new_state.q, *new_state.v, *new_state.p, *new_state.lam]",
        "rows[k + 1] = [new_state.t, *new_state.q, *new_state.p, *new_state.v, *new_state.lam]",
        "the row write stores each node's p in the v columns and its v in the "
        "p columns of the trajectory buffer",
    ),
    Mutant(
        "impact-keeps-penetrating-v", INTEGRATOR,
        "                v[k] = event.q_tilde\n",
        "",
        "an impact step leaves the deleted, penetrating v_k in the stored "
        "trajectory instead of the phase-A boundary node q~",
    ),
    Mutant(
        "report-velocity-block-late", DIAGNOSTICS,
        "ws = (traj.v[start:stop] - q_block) / h",
        "ws = (traj.v[start + 1 : stop + 1] - q_block) / h",
        "build_report's omega column reads each block's v rows one row late, "
        "so node k's discrete velocity is (v_{k+1} - q_k)/h",
    ),
    Mutant(
        "report-velocity-reciprocal", DIAGNOSTICS,
        "ws = (traj.v[start:stop] - q_block) / h",
        "ws = (traj.v[start:stop] - q_block) * (1.0 / h)",
        "build_report's discrete velocities multiply by 1/h instead of dividing "
        "by h, which moves the omega column's last bits",
    ),
    Mutant(
        "report-omega-first-row-only", DIAGNOSTICS,
        "return np.abs(rates, out=rates).max(axis=1)",
        "return np.abs(rates[:, 0])",
        "the omega residual reads only the first constraint row, so a model "
        "with m > 1 loses the others' rates and their NaNs",
    ),
    Mutant(
        "report-omega-signed-max", DIAGNOSTICS,
        "return np.abs(rates, out=rates).max(axis=1)",
        "return rates.max(axis=1)",
        "the omega residual is the signed maximum of the rates, without abs, "
        "so a negative rate reads as small",
    ),
    Mutant(
        "solve-no-first-swap", NUMERICS,
        "    if abs(r1[0]) > abs(r0[0]):\n"
        "        if abs(r2[0]) > abs(r1[0]):\n"
        "            r0, r2, f0, f2 = r2, r0, f2, f0\n"
        "        else:\n"
        "            r0, r1, f0, f1 = r1, r0, f1, f0\n"
        "    elif abs(r2[0]) > abs(r0[0]):\n"
        "        r0, r2, f0, f2 = r2, r0, f2, f0\n",
        "",
        "the 3 x 3 solve does not pivot its first column",
    ),
    Mutant(
        "solve-last-pivot", NUMERICS,
        "        if abs(r2[0]) > abs(r1[0]):",
        "        if abs(r2[0]) >= abs(r1[0]):",
        "the 3 x 3 solve takes the last, not the first (LAPACK's idamax), of "
        "tied pivot candidates",
    ),
    Mutant(
        "solve-transposed-back-substitution", NUMERICS,
        "    x1 = (f1 - a12 * x2) / a11\n"
        "    return [(f0 - u01 * x1 - u02 * x2) / u00, x1, x2]",
        "    x1 = (f1 - l21 * x2) / a11\n"
        "    return [(f0 - l10 * x1 - l20 * x2) / u00, x1, x2]",
        "the 3 x 3 back substitution reads the factor's entries below the "
        "diagonal instead of above it",
    ),
)

PYTEST = (sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-m", "not slow",
          "-p", "no:cacheprovider")
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks",
    ".bench_*", "nhvi_out*", "*.egg-info",
)
FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.M)


def check_snippets(root: Path, mutants) -> list:
    """The names of mutants whose snippet does not occur exactly once."""
    stale = []
    for m in mutants:
        count = (root / m.path).read_text().count(m.snippet)
        if count != 1:
            print(f"STALE {m.name}: snippet occurs {count} times in {m.path}")
            stale.append(m.name)
    return stale


def run_tests(root: Path, mutant=None, timeout: float = 900.0):
    """Copy the repository, apply `mutant` to the copy, run the quick test
    selection there; return (passed, first failing test, seconds)."""
    with tempfile.TemporaryDirectory(prefix="nhvi-mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(root, copy, ignore=IGNORED)
        if mutant is not None:
            target = copy / mutant.path
            target.write_text(target.read_text().replace(mutant.snippet, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        try:
            proc = subprocess.run(PYTEST, cwd=copy, env=env, capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:  # a mutant that hangs a test is caught too
            return False, f"a timeout after {timeout:.0f} s", timeout
        seconds = time.perf_counter() - start
    failed = FAILED.search(proc.stdout)
    if proc.returncode == 0:
        return True, None, seconds
    if failed is None:  # a collection or usage error: show its last lines
        return False, " | ".join(proc.stdout.strip().splitlines()[-3:]), seconds
    return False, failed.group(1), seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="list the mutants and exit")
    args = parser.parse_args(argv)

    known = {m.name: m for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    mutants = [known[name] for name in args.names] if args.names else list(MUTANTS)
    if args.list:
        for m in mutants:
            tag = " (equivalent)" if m.equivalent else ""
            print(f"{m.name}{tag}  {m.path}: {m.reason}")
        return 0

    root = Path(__file__).resolve().parents[1]
    if check_snippets(root, mutants):
        return 2
    passed, failed, seconds = run_tests(root)
    if not passed:
        print(f"the unmutated tests fail ({failed}); no mutant was run")
        return 2
    print(f"baseline passed in {seconds:.0f} s")

    killed = 0
    missed = []
    for m in mutants:
        passed, failed, seconds = run_tests(root, m)
        if passed:
            label = "survived (equivalent)" if m.equivalent else "SURVIVED"
            print(f"{label} {m.name} in {seconds:.0f} s: {m.reason}")
            if not m.equivalent:
                missed.append(m.name)
        else:
            killed += 1
            print(f"killed {m.name} in {seconds:.0f} s by {failed}")
    print(f"{killed} of {len(mutants)} mutants killed; "
          f"{len(mutants) - killed - len(missed)} equivalent survived; "
          f"{len(missed)} survived: {', '.join(missed) or 'none'}")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())

"""Bit-identity digests of nhvi's numerical results.

Prints eight SHA-256 digests, one per line:

    bounce-solution    the bounce corpus: bench/workloads.py `bounce_config`
    bounce-derived     seeds 1-2, every member (768 midpoint runs of particle,
                       ellipse and star bodies);
    bounce-outcomes    the same 768 runs, and the 576 body members once more
                       under the retraction-left rule (the failure corpus of
                       tests/test_corpus.py);
    pendulum-solution  the pendulum_long benchmark configuration (criterion-4
    pendulum-derived   pendulum, h = 1e-4, 20 000 steps);
    pendulum-wall-solution, pendulum-wall-derived
                       the wall members of tests/test_corpus.py
                       `wall_start` (0-7) with the default gain, under
                       both rules, 3 s at h = 2e-3: 16 runs whose impacts
                       reach the constrained branches of phases A and B;
    demos              every file `nhvi demo NAME --out DIR` writes for the
                       bundled particle, ellipse and pendulum demos (CSV,
                       summary and SVG).

Each run feeds two digests.  Its solution is the stored states, the impact
events (k, alpha, t_impact, compat_residual, energy_jump, q_tilde, v_tilde,
p_tilde, lambda_A, lambda_B), the solver records' steps, phases and
iterations, or, when `simulate` raises a typed error, that error's type and
message.  Its derived numbers are the solver records' residuals,
`build_report` and `recompute_solve_residuals`.  A change to diagnostics
alone moves the derived lines and leaves the solution lines equal.  Floats
enter as their IEEE-754 bytes, so equal digests mean bitwise-equal results.
The bounce-outcomes line hashes only each run's seed, index, body kind, rule
and outcome: `ok` with its impact count, or the type of the error it
raised.  It stays equal when rounding moves the solution lines but every
run ends the same way, with the same number of impacts.  Each demo
contributes its exit code and the name and bytes of every file it wrote.
The two bounce lines that count unsolved runs also count them by error
type; those counts are printed only, not hashed.

After the eight lines, one `bounce-solution[<kind>]` line per body kind of
bench/workloads.py `BOUNCE_KINDS` hashes the solution of that kind's
members alone, so a change whose rounding moves one body kind shows which.
Then one `bounce-iterations[<rule>]` line per rule prints, without
hashing, the Newton iterations of the solved corpus runs summed per solver
phase (`step`, `impact-A`, `impact-B`, `impact-D`), with the solve count.
Last, one `demos[<demo>/<file>]` line per file the demos write hashes that
file's bytes alone, so a change that moves, say, only the summaries shows
which files moved.

Run it from a checkout, and once more against another checkout to compare:

    python3 tools/digest.py
    python3 tools/digest.py --root ../other-checkout

The workload definitions are imported, unchanged, from `<root>/bench`,
`wall_start` from `<root>/tests/test_corpus.py`, and nhvi from
`<root>/src`.  A run takes well under a minute.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import struct
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

SEEDS = (1, 2)
PHASES = ("step", "impact-A", "impact-B", "impact-D")
RULES = ("midpoint", "retraction-left")


def import_checkout(root: Path):
    """nhvi and the benchmark workloads of the checkout at `root`."""
    for sub in ("src", "bench"):
        if not (root / sub).is_dir():
            raise SystemExit(f"digest: {root / sub} is not a directory")
    sys.path[:0] = [str(root / "src"), str(root / "bench")]
    import nhvi
    import nhvi.cli
    import workloads

    if Path(nhvi.__file__).resolve().parent != (root / "src" / "nhvi").resolve():
        raise SystemExit(f"digest: imported nhvi from {nhvi.__file__}, not from {root}")
    return nhvi, workloads


def wall_docs(root: Path, nhvi, workloads):
    """(label, config document) of each default-gain pendulum wall run: the
    `wall_start` members of `<root>/tests/test_corpus.py` under both rules."""
    spec = importlib.util.spec_from_file_location("digest_test_corpus",
                                                  root / "tests" / "test_corpus.py")
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    model = nhvi.make_pendulum()
    for rule in RULES:
        for i in range(corpus.WALL_MEMBERS):
            q0, v0 = corpus.wall_start(model, i)
            yield f"wall {i} {rule}", {**workloads.pendulum_config(), "rule": rule,
                                       "q0": q0.tolist(), "v0": v0.tolist(),
                                       "t_final": 3.0, "h": 2e-3}


class Digest:
    """SHA-256 over a stream of tagged values."""

    def __init__(self):
        self.h = hashlib.sha256()

    def update(self, b: bytes) -> None:
        self.h.update(b)

    def blob(self, b: bytes) -> None:
        self.update(struct.pack("<q", len(b)) + b)

    def text(self, s: str) -> None:
        self.blob(s.encode())

    def floats(self, values) -> None:
        a = np.ascontiguousarray(values, dtype=np.float64)
        self.update(struct.pack("<q", a.size) + a.tobytes())

    def ints(self, values) -> None:
        a = np.ascontiguousarray(values, dtype=np.int64)
        self.update(struct.pack("<q", a.size) + a.tobytes())

    def hexdigest(self) -> str:
        return self.h.hexdigest()


class Tee(Digest):
    """Feeds every value into each of `digests`."""

    def __init__(self, *digests: Digest):
        self.digests = digests

    def update(self, b: bytes) -> None:
        for d in self.digests:
            d.update(b)


def simulate_doc(nhvi, doc: dict):
    """(trajectory, Ld, model) of one configuration document; raises what
    `simulate` raises."""
    cfg = nhvi.config_from_dict(doc)
    model = nhvi.build_model(cfg)
    Ld = nhvi.make_discrete_lagrangian(model, cfg.rule)
    traj = nhvi.simulate(Ld, model, np.array(cfg.q0), np.array(cfg.v0),
                         cfg.t0, cfg.t_final, cfg.h, cfg.solver)
    return traj, Ld, model


def count_iterations(iterations: Counter, traj) -> None:
    """Add a solved run's Newton iterations and solves, per phase."""
    stats = traj.solver_stats
    for phase, iters in zip(stats.phases, stats.iterations):
        iterations[phase] += int(iters)
        iterations[phase, "solves"] += 1


def outcome_of(nhvi, doc: dict, iterations: Counter) -> str:
    """"ok <impact count>", or the type of the error the run raised; a
    solved run's iterations go into `iterations`."""
    try:
        traj, _, _ = simulate_doc(nhvi, doc)
    except nhvi.NhviError as exc:
        return type(exc).__name__
    count_iterations(iterations, traj)
    return f"ok {len(traj.impacts)}"


def digest_run(solution: Digest, derived: Digest, nhvi, doc: dict, iterations: Counter) -> str:
    """Simulate one configuration document into the two digests; returns
    its outcome, and adds a solved run's iterations, as `outcome_of` does."""
    try:
        traj, Ld, model = simulate_doc(nhvi, doc)
    except nhvi.NhviError as exc:
        solution.text(f"error {type(exc).__name__}: {exc}")
        return type(exc).__name__
    count_iterations(iterations, traj)
    solution.text(f"states {len(traj.states)}")
    for st in traj.states:
        solution.ints([st.k])
        solution.floats([st.t])
        for a in (st.q, st.v, st.p, st.lam):
            solution.floats(a)
    solution.text(f"impacts {len(traj.impacts)}")
    for ev in traj.impacts:
        solution.ints([ev.k])
        solution.floats([ev.alpha, ev.t_impact, ev.compat_residual, ev.energy_jump])
        for a in (ev.q_tilde, ev.v_tilde, ev.p_tilde, ev.lambda_A, ev.lambda_B):
            solution.floats(a)
    stats = traj.solver_stats
    solution.ints(stats.ks)
    # older checkouts flag the record an impact deleted with a "-rejected"
    # suffix; that record is derivable (the one before each impact-A), so
    # hashing the bare phase keeps digests comparable across checkouts
    solution.text(",".join(p.removesuffix("-rejected") for p in stats.phases))
    solution.ints(stats.iterations)
    derived.floats(stats.residuals)
    # json writes floats as their shortest round-trip repr, so this is exact
    derived.text(json.dumps(nhvi.build_report(traj, Ld, model).to_dict(), sort_keys=True))
    derived.floats(nhvi.diagnostics.recompute_solve_residuals(traj, Ld, model))
    return f"ok {len(traj.impacts)}"


def digest_demos(d: Digest, cli, names) -> dict:
    """Run each bundled demo through the CLI into `d`; returns each file's
    own SHA-256 by "<demo>/<file>"."""
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name in names:
            out = Path(tmp) / name
            rc = cli.main(["demo", name, "--out", str(out)])
            d.text(f"demo {name} exit {rc}")
            for path in sorted(out.iterdir()):
                data = path.read_bytes()
                d.text(path.name)
                d.blob(data)
                files[f"{name}/{path.name}"] = hashlib.sha256(data).hexdigest()
    return files


def breakdown(unsolved: Counter) -> str:
    """"N unsolved", then each error type's count, the most frequent first."""
    types = ", ".join(f"{name} {count}" for name, count in unsolved.most_common())
    return f"{sum(unsolved.values())} unsolved" + (f": {types}" if types else "")


def phase_totals(iterations: Counter) -> str:
    """"<phase> <iterations>/<solves>" for each solver phase."""
    return ", ".join(f"{phase} {iterations[phase]}/{iterations[phase, 'solves']}"
                     for phase in PHASES)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout to digest (default: this script's checkout)")
    args = parser.parse_args(argv)
    nhvi, workloads = import_checkout(args.root.resolve())

    bounce, bounce_derived, outcomes = Digest(), Digest(), Digest()
    by_kind = {kind: Digest() for kind in workloads.BOUNCE_KINDS}
    kind_members = Counter()
    members = runs = 0
    unsolved, runs_unsolved = Counter(), Counter()
    kind_unsolved = {kind: Counter() for kind in workloads.BOUNCE_KINDS}
    iterations = {rule: Counter() for rule in RULES}
    for seed in SEEDS:
        for index in range(workloads.BOUNCE_MEMBERS):
            kind, doc = workloads.bounce_config(seed, index)
            solution = Tee(bounce, by_kind[kind])
            solution.text(f"member {seed} {index}")
            bounce_derived.text(f"member {seed} {index}")
            outcome = digest_run(solution, bounce_derived, nhvi, doc, iterations["midpoint"])
            members += 1
            kind_members[kind] += 1
            if not outcome.startswith("ok "):
                unsolved[outcome] += 1
                kind_unsolved[kind][outcome] += 1
            rule_outcomes = [("midpoint", outcome)]
            if kind != "particle":
                rule_outcomes.append(
                    ("retraction-left", outcome_of(nhvi, {**doc, "rule": "retraction-left"},
                                                   iterations["retraction-left"])))
            for rule, outcome in rule_outcomes:
                outcomes.text(f"member {seed} {index} {kind} {rule} {outcome}")
                runs += 1
                if not outcome.startswith("ok "):
                    runs_unsolved[outcome] += 1
    print(f"bounce-solution    {bounce.hexdigest()}  "
          f"({members} members, {breakdown(unsolved)})")
    print(f"bounce-derived     {bounce_derived.hexdigest()}")
    print(f"bounce-outcomes    {outcomes.hexdigest()}  ({runs} runs, {breakdown(runs_unsolved)})")

    pendulum, pendulum_derived = Digest(), Digest()
    outcome = digest_run(pendulum, pendulum_derived, nhvi, workloads.pendulum_config(), Counter())
    print(f"pendulum-solution  {pendulum.hexdigest()}  ({outcome})")
    print(f"pendulum-derived   {pendulum_derived.hexdigest()}")

    wall, wall_derived = Digest(), Digest()
    wall_unsolved, wall_impacts, wall_runs = Counter(), 0, 0
    for label, doc in wall_docs(args.root.resolve(), nhvi, workloads):
        wall.text(label)
        wall_derived.text(label)
        outcome = digest_run(wall, wall_derived, nhvi, doc, Counter())
        wall_runs += 1
        if outcome.startswith("ok "):
            wall_impacts += int(outcome.split()[1])
        else:
            wall_unsolved[outcome] += 1
    print(f"pendulum-wall-solution  {wall.hexdigest()}  "
          f"({wall_runs} runs, {wall_impacts} impacts, {breakdown(wall_unsolved)})")
    print(f"pendulum-wall-derived   {wall_derived.hexdigest()}")

    demos = Digest()
    files = digest_demos(demos, nhvi.cli, workloads.DEMOS)
    print(f"demos              {demos.hexdigest()}  "
          f"({len(workloads.DEMOS)} demos, {len(files)} files)")

    for kind, d in by_kind.items():
        print(f"bounce-solution[{kind}]  {d.hexdigest()}  "
              f"({kind_members[kind]} members, {breakdown(kind_unsolved[kind])})")
    for rule, counts in iterations.items():
        print(f"bounce-iterations[{rule}]  {phase_totals(counts)}  (iterations/solves)")
    for name, sha in files.items():
        print(f"demos[{name}]  {sha}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

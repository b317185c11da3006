"""Set-up probe, started by run.py in a fresh interpreter for every sample.

    python3 bench/setup_probe.py SRC_DIR {lib|cli} CONFIG.json

Imports nhvi from SRC_DIR (and its CLI module for `cli`), parses the
configuration, builds the model and the discrete Lagrangian, discretizes the
initial condition, and prints "ready": everything a run does before its
first step.  The parent times the span from starting this process to
reading that line.  Then it prints the reference kernel's microseconds per
iteration in this process (best of three after a warm-up), which the
parent scales the time with.
"""

import sys

src, entry, cfg_path = sys.argv[1:]
sys.path.insert(0, src)

import numpy as np  # noqa: E402

import nhvi  # noqa: E402

if entry == "cli":
    import nhvi.cli  # noqa: E402,F401

cfg = nhvi.parse_config(cfg_path)
model = nhvi.build_model(cfg)
Ld = nhvi.make_discrete_lagrangian(model, cfg.rule)
nhvi.initial_discretize(model, Ld.rule, np.array(cfg.q0), np.array(cfg.v0), cfg.h)
print("ready", flush=True)

import calibration  # noqa: E402

sampler = calibration.SpeedSampler()
for _ in range(4):
    sampler.sample()
print(min(sampler.us[1:]), flush=True)

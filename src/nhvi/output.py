"""File outputs: trajectory/impact CSV, summary JSON, and SVG line plots.

CSV is RFC-4180 with '.' decimal separator and 17 significant digits, so
reruns of the same configuration are byte-identical.  Plots are plain
polyline SVG built by hand; nothing here needs a plotting library.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Sequence, Tuple

import numpy as np

from .config import SimConfig, config_to_dict
from .diagnostics import RunReport, energy_samples
# bench/spans.py wraps nhvi.output.energy_series by name, so it stays importable
from .diagnostics import energy_series  # noqa: F401
from .discretization import DiscreteLagrangian
from .geometry import MechanicalModel
from .integrator import Trajectory

# trajectory CSV rows formatted per write
_CSV_BLOCK = 4096

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _row_template(cols: int) -> str:
    """One CSV row: the integer k, then `cols` cells of 17 significant digits
    ("%.17g" % x equals format(x, ".17g") for every Python float)."""
    return "%d," + ",".join(["%.17g"] * cols) + "\r\n"


def write_trajectory_csv(
    path, traj: Trajectory, report: RunReport, model: MechanicalModel
) -> None:
    """One row per state: k, t, q, v, p, lambda, then the report's per-state
    columns E, c(q) and max_omega_residual (see `build_report`).

    Impact nodes are not rows here; they go to the impacts file.  Rows are
    formatted and written in blocks of _CSV_BLOCK, so memory stays bounded.
    """
    n = model.n
    columns = report.state_columns
    header = (
        ["k", "t"]
        + [f"q{i}" for i in range(n)]
        + [f"v{i}" for i in range(n)]
        + [f"p{i}" for i in range(n)]
        + [f"lambda{i}" for i in range(model.m_con)]
        + list(columns)
    )
    blocks = [traj.t[:, None], traj.q, traj.v, traj.p, traj.lam]
    blocks += [c[:, None] for c in columns.values()]
    template = _row_template(len(header) - 1)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(traj.t), _CSV_BLOCK):
            rows = np.hstack([b[start : start + _CSV_BLOCK] for b in blocks]).tolist()
            fh.write("".join([template % (k, *row) for k, row in enumerate(rows, start)]))


def write_impacts_csv(path, traj: Trajectory, model: MechanicalModel) -> None:
    n = model.n
    header = (
        ["k", "alpha", "t_impact"]
        + [f"q_tilde{i}" for i in range(n)]
        + [f"v_tilde{i}" for i in range(n)]
        + [f"p_tilde{i}" for i in range(n - 1)]
        + ["compat_residual", "energy_jump"]
    )
    template = _row_template(len(header) - 1)
    rows = [
        template % (ev.k, ev.alpha, ev.t_impact, *ev.q_tilde, *ev.v_tilde, *ev.p_tilde,
                    ev.compat_residual, ev.energy_jump)
        for ev in traj.impacts
    ]
    Path(path).write_text(",".join(header) + "\r\n" + "".join(rows))


def write_summary_json(path, report: RunReport, cfg: SimConfig | None = None) -> None:
    doc = report.to_dict()
    if cfg is not None:
        doc["config"] = config_to_dict(cfg)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def _ticks(lo: float, hi: float, count: int = 5) -> List[float]:
    if hi <= lo:
        hi = lo + 1.0
    span = hi - lo
    raw = span / max(count - 1, 1)
    mag = 10.0 ** np.floor(np.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    start = np.ceil(lo / step) * step
    ticks = []
    t = start
    while t <= hi + 1e-12 * span:
        ticks.append(0.0 if abs(t) < 1e-12 * span else float(t))
        if t + step == t:  # a span of a few ulps: the step rounds away
            break
        t += step
    return ticks


def svg_line_chart(
    series: Sequence[Tuple[str, np.ndarray, np.ndarray]],
    title: str,
    xlabel: str,
    ylabel: str,
    width: int = 720,
    height: int = 480,
) -> str:
    """Render labeled (x, y) polylines as a standalone SVG 1.1 document."""
    ml, mr, mt, mb = 72, 24, 40, 56
    pw, ph = width - ml - mr, height - mt - mb

    xs_all = np.concatenate([np.asarray(xs, dtype=float) for _, xs, _ in series])
    ys_all = np.concatenate([np.asarray(ys, dtype=float) for _, _, ys in series])
    x_lo, x_hi = float(np.min(xs_all)), float(np.max(xs_all))
    y_lo, y_hi = float(np.min(ys_all)), float(np.max(ys_all))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_lo -= 0.5
        y_hi += 0.5
    pad = 0.04 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    def sx(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y):
        return mt + ph - (y - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" font-family="sans-serif" font-size="15" '
        f'text-anchor="middle">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="black" stroke-width="1"/>',
    ]
    for t in _ticks(x_lo, x_hi):
        px = sx(t)
        parts.append(
            f'<line x1="{px:.2f}" y1="{mt + ph}" x2="{px:.2f}" y2="{mt + ph + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{px:.2f}" y="{mt + ph + 20}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{t:g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        py = sy(t)
        parts.append(
            f'<line x1="{ml - 5}" y1="{py:.2f}" x2="{ml}" y2="{py:.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{py + 4:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{t:g}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2:.1f}" y="{height - 12}" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{mt + ph / 2:.1f}" font-family="sans-serif" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 18 {mt + ph / 2:.1f})">{ylabel}</text>'
    )
    for idx, (label, xs, ys) in enumerate(series):
        color = _PALETTE[idx % len(_PALETTE)]
        # sx/sy map whole columns: numpy applies the same operations in the
        # same order per element, so the pixels equal the per-point values
        px = sx(np.asarray(xs, dtype=float)).tolist()
        py = sy(np.asarray(ys, dtype=float)).tolist()
        pts = " ".join(["%.2f,%.2f" % xy for xy in zip(px, py)])
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.2"/>'
        )
        if label:
            ly = mt + 16 + 16 * idx
            parts.append(
                f'<line x1="{ml + pw - 70}" y1="{ly - 4}" x2="{ml + pw - 46}" '
                f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>'
            )
            parts.append(
                f'<text x="{ml + pw - 40}" y="{ly}" font-family="sans-serif" '
                f'font-size="12">{label}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts)


# which pair of coordinates makes the planar-trajectory plot, per model
_PLANE_AXES = {"particle": (0, 1), "se2_body": (1, 2), "pendulum": (0, 1)}


def write_plots(
    out_dir,
    traj: Trajectory,
    Ld: DiscreteLagrangian,
    model: MechanicalModel,
    kinds: Sequence[str],
    *,
    report: RunReport,
) -> List[Path]:
    """Write one `<kind>.svg` per plot kind; the energy plot draws the
    report's node energies (its "E" column) and the impact samples."""
    out_dir = Path(out_dir)
    written = []
    for kind in kinds:
        if kind == "energy":
            pts = energy_samples(traj, Ld, report.state_columns["E"])
            svg = svg_line_chart(
                [("", pts[:, 0], pts[:, 1])], "Discrete energy", "t [s]", "E", width=720
            )
        elif kind == "coordinates":
            series = [
                (model.coordinate_names[i], traj.t, traj.q[:, i]) for i in range(model.n)
            ]
            svg = svg_line_chart(series, "Configuration coordinates", "t [s]", "q")
        elif kind == "plane_trajectory":
            i, j = _PLANE_AXES[model.name]
            svg = svg_line_chart(
                [("", traj.q[:, i], traj.q[:, j])],
                "Planar trajectory",
                model.coordinate_names[i],
                model.coordinate_names[j],
            )
        else:
            raise ValueError(f"unknown plot kind {kind!r}")
        path = out_dir / f"{kind}.svg"
        path.write_text(svg)
        written.append(path)
    return written

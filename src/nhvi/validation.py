"""Invariant suites run by the `validate` CLI command (no integration).

Each check returns (name, passed, detail).  The checks mirror the library's
contracts: boundary frames must be left-inverse pairs, the cotangent
round-trip must be the identity, gap gradients must match finite differences
of the gap, constraint one-forms must keep full row rank, the Hessian blocks
must match finite differences of the Lagrangian's partials, and the discrete
Lagrangian partials must match finite differences of the evaluation.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .discretization import DiscreteLagrangian
from .geometry import (
    MechanicalModel,
    boundary_frame,
    omega_rank_deficiency,
    pullback_cotangent,
    push_cotangent,
    transversality_margin,
)
from .models import sample_boundary_points, sample_interior_points
from .numerics import fd_jacobian

CheckResult = Tuple[str, bool, str]


def check_boundary_frames(
    model: MechanicalModel, rng: np.random.Generator, count: int = 100
) -> List[CheckResult]:
    n = model.n
    worst_pe = 0.0
    worst_round = 0.0
    worst_trans = np.inf
    for q in sample_boundary_points(model, count, rng):
        frame = boundary_frame(model, q)
        E = np.reshape(frame.ET, (n - 1, n)).T
        P = np.reshape(frame.P, (n - 1, n))
        pe = np.abs(P @ E - np.eye(n - 1)).max(initial=0.0)
        worst_pe = max(worst_pe, float(pe))
        p_tilde = rng.standard_normal(n - 1)
        back = pullback_cotangent(frame, push_cotangent(frame, p_tilde.tolist()))
        worst_round = max(worst_round, float(np.abs(back - p_tilde).max(initial=0.0)))
        worst_trans = min(worst_trans, transversality_margin(model, frame))
    return [
        ("frame left-inverse P.E = I", worst_pe <= 1e-12, f"max deviation {worst_pe:.3e}"),
        (
            "cotangent round trip",
            worst_round <= 1e-12,
            f"max deviation {worst_round:.3e}",
        ),
        (
            "boundary transversality",
            worst_trans > 1e-8,
            f"min gradient-to-tangent distance {worst_trans:.3e}",
        ),
    ]


def check_gap_gradient(
    model: MechanicalModel, rng: np.random.Generator, count: int = 100
) -> List[CheckResult]:
    worst = 0.0
    for q in sample_interior_points(model, count, rng):
        fd = fd_jacobian(lambda x: np.array([model.boundary_gap(x)]), q, 1e-6)[0]
        err = np.max(np.abs(fd - model.boundary_gap_grad(q)))
        worst = max(worst, float(err))
    return [("gap gradient vs finite differences", worst <= 1e-6, f"max error {worst:.3e}")]


def check_omega_rank(
    model: MechanicalModel, rng: np.random.Generator, count: int = 100
) -> List[CheckResult]:
    if model.m_con == 0:
        return [("constraint rank", True, "unconstrained model")]
    worst = 0
    for q in sample_interior_points(model, count, rng):
        worst = max(worst, omega_rank_deficiency(model, q))
    return [
        (
            "constraint one-forms full row rank",
            worst == 0,
            f"max rank deficiency {worst}",
        )
    ]


def check_hessian(
    model: MechanicalModel, rng: np.random.Generator, count: int = 100
) -> List[CheckResult]:
    """d2L's blocks against central differences of dL_dq and dL_dv, with
    Lqv[i, j] = d(dL/dq_i)/dv_j."""
    worst = 0.0
    for q in sample_interior_points(model, count, rng):
        v = rng.uniform(-3.0, 3.0, model.n)
        fds = (
            fd_jacobian(lambda x: model.dL_dq(x, v), q),
            fd_jacobian(lambda x: model.dL_dq(q, x), v),
            fd_jacobian(lambda x: model.dL_dv(q, x), v),
        )
        for block, fd in zip(model.d2L(q, v), fds):
            err = np.max(np.abs(block - fd)) / max(1.0, np.max(np.abs(fd)))
            worst = max(worst, float(err))
    name = "Hessian blocks (Lqq, Lqv, Lvv) vs finite differences"
    return [(name, worst <= 1e-6, f"max relative error {worst:.3e}")]


def check_discrete_partials(
    model: MechanicalModel,
    rule: str,
    rng: np.random.Generator,
    count: int = 100,
) -> List[CheckResult]:
    Ld = DiscreteLagrangian(model, rule)
    n = model.n
    worst = 0.0
    qs = sample_interior_points(model, count, rng)
    for q in qs:
        h = float(rng.uniform(1e-4, 1e-1))
        v = q + h * rng.uniform(-1.0, 1.0, n)
        scale = max(1.0, abs(Ld.eval(q, v, h)))
        fd_d1 = fd_jacobian(lambda x: np.array([Ld.eval(x, v, h)]), q, 1e-7)[0]
        fd_d2 = fd_jacobian(lambda x: np.array([Ld.eval(q, x, h)]), v, 1e-7)[0]
        fd_d3 = fd_jacobian(
            lambda x: np.array([Ld.eval(q, v, float(x[0]))]), np.array([h]), 1e-7
        )[0, 0]
        err = max(
            float(np.max(np.abs(fd_d1 - Ld.d1(q, v, h)))),
            float(np.max(np.abs(fd_d2 - Ld.d2(q, v, h)))),
            abs(fd_d3 - Ld.d3(q, v, h)),
        )
        worst = max(worst, err / scale)
    return [
        (
            f"discrete partials vs finite differences ({rule})",
            worst <= 1e-6,
            f"max relative error {worst:.3e}",
        )
    ]


def run_all_checks(
    model: MechanicalModel, rule: str, seed: int = 20240901
) -> List[CheckResult]:
    rng = np.random.default_rng(seed)
    results = []
    results += check_boundary_frames(model, rng)
    results += check_gap_gradient(model, rng)
    results += check_omega_rank(model, rng)
    results += check_discrete_partials(model, rule, rng)
    results += check_hessian(model, rng)
    return results

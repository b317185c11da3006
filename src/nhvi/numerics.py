"""Dense small-scale numerics: a damped Newton solver and finite differences.

`newton_solve` takes each system's Jacobian from its caller and never
differences the residual itself; `fd_jacobian` serves the one column that
phase A differences, its alpha column, and the model checks of
`validation`.

Every implicit system in the integrator has at most four unknowns, where a
numpy call's fixed cost outweighs its arithmetic.  So vectors are lists of
Python floats and Jacobians lists of rows, which the functions here only
index, iterate and zip; numpy arrays work too, at numpy's speed.
`_solve_linear` solves a 3 x 3 system (every system of the bodies and the
pendulum but phase A, and the particle's phase A) by an unrolled pivoted
elimination over floats, and every other size with LAPACK.  So a Newton
iteration's numpy calls are LAPACK's dense solve on the 2 x 2 and 4 x 4
systems, and `fd_jacobian` building the array of the one column phase A
differences, its alpha column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import EvaluationFailure, SingularJacobian, require


def as_vector(x, name: str = "vector") -> np.ndarray:
    """Coerce to a 1-D float64 array and reject non-finite entries."""
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise EvaluationFailure(f"{name} contains non-finite entries: {v}")
    return v


@dataclass(frozen=True)
class NewtonOptions:
    """Tolerances and limits for :func:`newton_solve`.

    tol is a bound on the residual infinity norm and max_iter on the
    accepted steps.  Both are finite: a value out of range, NaN or infinity
    included, raises ParameterError naming the field.
    """

    tol: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        require(self, "tol", 0 < self.tol < math.inf, "0 < tol < inf")
        require(self, "max_iter", 1 <= self.max_iter < math.inf, "1 <= max_iter < inf")


DEFAULT_NEWTON_OPTIONS = NewtonOptions()

MAX_HALVINGS = 30  # step halvings tried before a Newton iteration stalls


@dataclass(slots=True)
class NewtonResult:
    """Outcome of :func:`newton_solve`.

    x is the last iterate and residual_norm the infinity norm of F there,
    the smallest seen, since accepted residuals strictly decrease.
    iterations counts accepted steps, and backtracks the halvings of steps
    that did not reduce the residual, a stalled iteration's included.
    converged is residual_norm <= tol.
    """

    x: list
    residual_norm: float
    iterations: int
    converged: bool
    backtracks: int = 0


def _norm(Fx) -> float:
    """Infinity norm of the vector Fx, or inf when any entry is NaN or
    infinite: the finiteness check of Newton, `_solve_linear` and
    `fd_jacobian`.

    One pass over Python floats (a numpy array of any shape is flattened
    first): an infinite entry wins the max, a NaN returns at once.  The
    result is bitwise ``np.abs(Fx).max(initial=0.0)`` on finite input.
    """
    norm = 0.0
    for v in Fx if isinstance(Fx, list) else np.ravel(Fx).tolist():
        a = abs(v)
        if a > norm:
            norm = a
        elif a != a:
            return math.inf
    return norm


def _dot(a, b) -> float:
    """Sum of the products a_i b_i, left to right from 0.0.

    numpy's small products fuse each multiply-add, so this equals numpy's
    ``a @ b`` bitwise whenever every product but the first is exact, as in
    the sparse constraint rows and Hessian blocks of the built-in models.
    """
    s = 0.0
    for x, y in zip(a, b):
        s += x * y
    return s


def _columns(rows, n: int) -> list:
    """The n columns of an m x n matrix given by its rows: n empty tuples
    when m = 0, so a column-wise sum over no rows is 0.0."""
    return list(zip(*rows)) or [()] * n


def fd_jacobian(F: Callable[[list], Sequence[float]], x, eps: float = 1e-7) -> np.ndarray:
    """Central-difference Jacobian of F at x, as a 2-D float64 array.

    Entry (i, j) is (F_i(x + e_j) - F_i(x - e_j)) / (2 e_j) with the step
    e_j = eps * max(1, |x_j|), balancing truncation against round-off.
    F takes a list of floats and returns a sequence of floats; a non-finite
    entry on either side of x_j raises EvaluationFailure naming coordinate j.
    The columns are built over floats and stacked once, into the array the
    dense solve takes without converting it.
    """
    if not 0 < eps < math.inf:  # written so that a NaN eps fails the test
        raise ValueError(f"eps must be finite and positive, got {eps}")
    cols = []
    for j, xj in enumerate(x):
        e = eps * max(1.0, abs(xj))
        xp = list(x)
        xm = list(x)
        xp[j] = xj + e
        xm[j] = xj - e
        fp = F(xp)
        fm = F(xm)
        if _norm(fp) == math.inf or _norm(fm) == math.inf:
            raise EvaluationFailure(
                f"non-finite function value while differencing coordinate {j}"
            )
        d = 2.0 * e
        cols.append([(a - b) / d for a, b in zip(fp, fm)])
    return np.array(cols).T if cols else np.empty((0, 0))


def _solve3(J, F) -> list:
    """Solve the 3 x 3 system J x = F over Python floats by Gaussian
    elimination with row partial pivoting, the algorithm of LAPACK's
    getrf/getrs: each column's pivot is the first of its entries of largest
    magnitude on or below the diagonal (idamax), and the right-hand side is
    eliminated with the rows, then back-substituted.  An exact zero pivot
    raises SingularJacobian."""
    r0, r1, r2 = J
    f0, f1, f2 = F
    if abs(r1[0]) > abs(r0[0]):
        if abs(r2[0]) > abs(r1[0]):
            r0, r2, f0, f2 = r2, r0, f2, f0
        else:
            r0, r1, f0, f1 = r1, r0, f1, f0
    elif abs(r2[0]) > abs(r0[0]):
        r0, r2, f0, f2 = r2, r0, f2, f0
    u00, u01, u02 = r0
    if u00 == 0.0:
        raise SingularJacobian("linear solve failed: zero pivot in column 0")
    a10, a11, a12 = r1
    a20, a21, a22 = r2
    l10 = a10 / u00
    l20 = a20 / u00
    a11 -= l10 * u01
    a12 -= l10 * u02
    f1 -= l10 * f0
    a21 -= l20 * u01
    a22 -= l20 * u02
    f2 -= l20 * f0
    if abs(a21) > abs(a11):
        a11, a12, f1, a21, a22, f2 = a21, a22, f2, a11, a12, f1
    if a11 == 0.0:
        raise SingularJacobian("linear solve failed: zero pivot in column 1")
    l21 = a21 / a11
    a22 -= l21 * a12
    f2 -= l21 * f1
    if a22 == 0.0:
        raise SingularJacobian("linear solve failed: zero pivot in column 2")
    x2 = f2 / a22
    x1 = (f1 - a12 * x2) / a11
    return [(f0 - u01 * x1 - u02 * x2) / u00, x1, x2]


def _solve_linear(J, F) -> list:
    """Solve J dx = F and return dx as a list of Python floats; a singular J
    or a step with a NaN or infinite entry raises SingularJacobian.

    The one linear solve of the package: Newton's, and the impact law's in
    `integrator._law_line`.  A 3 x 3 system is solved by `_solve3` over
    floats (an array is turned into float rows first), every other size by
    one `np.linalg.solve`.  Only size 3 leaves LAPACK because the traced
    benchmark requires its `numerics.dense_solve` span, which wraps
    `np.linalg.solve`, on every workload: the particle reaches LAPACK only
    through its 2 x 2 systems (smooth step, law, phases B and D) and
    `pendulum_long` only through phase A's 4 x 4 system.  Once the
    benchmark no longer requires that span, dropping the size test puts
    every system of the built-in models on floats.
    """
    if len(F) == 3:
        if type(J) is not list:
            J = np.asarray(J, dtype=float).tolist()
        if type(F) is not list:
            F = np.asarray(F, dtype=float).tolist()
        dx = _solve3(J, F)
    else:
        try:
            dx = np.linalg.solve(J, F).tolist()
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(f"linear solve failed: {exc}") from exc
    if _norm(dx) == math.inf:
        raise SingularJacobian("linear solve produced a non-finite step")
    return dx


def newton_solve(
    F: Callable[[list], Sequence[float]],
    x0,
    opts: NewtonOptions = DEFAULT_NEWTON_OPTIONS,
    *,
    jac: Callable[[list], Sequence[Sequence[float]]],
) -> NewtonResult:
    """Damped Newton iteration for F(x) = 0 with backtracking line search.

    The iterate is a list of floats, starting from a copy of the sequence
    x0; F maps it to a sequence of floats, and `jac` maps it to F's
    Jacobian as row sequences (or an array).  Each iteration makes one
    dense solve (:func:`_solve_linear`).
    The trial steps are 1, 1/2, ..., 2^-MAX_HALVINGS of the Newton step,
    and the first that reduces the residual infinity norm is accepted.
    When none does, the iteration has stalled: if the smallest trial is
    non-finite EvaluationFailure is raised, otherwise the solve ends at
    the current iterate.  Returns the last iterate, converged when
    its residual norm is <= opts.tol, and not converged after a stall or
    max_iter iterations.
    """
    tol = opts.tol
    max_iter = opts.max_iter
    x = list(x0)
    Fx = F(x)
    norm = _norm(Fx)
    if norm == math.inf:
        raise EvaluationFailure("residual non-finite at the initial guess")

    iterations = backtracks = 0
    while norm > tol and iterations < max_iter:
        dx = _solve_linear(jac(x), Fx)
        step = 1.0
        for halvings in range(MAX_HALVINGS + 1):
            x_new = [a - step * b for a, b in zip(x, dx)]
            F_new = F(x_new)
            norm_new = _norm(F_new)
            if norm_new < norm:
                break
            step *= 0.5
        backtracks += halvings
        if norm_new >= norm:
            if norm_new == math.inf:
                raise EvaluationFailure("residual non-finite after exhausting backtracking")
            break

        x, Fx, norm = x_new, F_new, norm_new
        iterations += 1

    return NewtonResult(x, norm, iterations, norm <= tol, backtracks)

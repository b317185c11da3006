import math
import struct
import types
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from nhvi import (
    EvaluationFailure,
    NewtonOptions,
    NewtonResult,
    SingularJacobian,
    fd_jacobian,
    newton_solve,
)
from nhvi import numerics
from nhvi.numerics import _norm, _solve_linear

# 0-d, 1-D and 2-D arrays, empty ones included
SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6)
FINITE = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestNorm:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(hnp.arrays(np.float64, SHAPES, elements=FINITE))
    @example(np.zeros(0))
    @example(np.array(-0.0))
    @example(np.array([-0.0, 0.0, -0.0]))
    @example(np.array([5e-324, -5e-324, 2.2e-308]))
    @example(np.array([[-1.5, 1.5], [0.0, -1.5]]))
    @example(np.array([-np.finfo(float).max, 1.0]))
    def test_finite_equals_numpy_max_abs_bitwise(self, x):
        norm = _norm(x)
        assert type(norm) is float
        assert bits(norm) == bits(float(np.abs(x).max(initial=0.0)))

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        st.lists(FINITE, min_size=1, max_size=8),
        st.sampled_from([math.nan, -math.nan, math.inf, -math.inf]),
        st.sampled_from(["first", "middle", "last"]),
        st.booleans(),
    )
    def test_any_nonfinite_entry_gives_inf(self, values, bad, where, two_d):
        i = {"first": 0, "middle": len(values) // 2, "last": len(values) - 1}[where]
        values[i] = bad
        x = np.array(values)
        if two_d:
            x = x.reshape(1, -1)
        assert _norm(x) == math.inf


def exact_residual_norm(J, x, F) -> Fraction:
    """||J x - F||_inf in exact rational arithmetic."""
    return max(
        abs(sum(Fraction(a) * Fraction(b) for a, b in zip(row, x)) - Fraction(f))
        for row, f in zip(J, F)
    )


class TestSolveLinear:
    def test_overflowing_solve_raises(self):
        J, F = np.array([[1e-320]]), np.array([1e300])
        # no LinAlgError: the pivot is nonzero and the quotient overflows
        assert np.isinf(np.linalg.solve(J, F)).all()
        with pytest.raises(SingularJacobian, match="linear solve produced a non-finite step"):
            _solve_linear(J, F)

    def test_overflowing_3x3_solve_raises(self):
        J = [[1e-320, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        with pytest.raises(SingularJacobian, match="linear solve produced a non-finite step"):
            _solve_linear(J, [1e300, 0.0, 0.0])

    def test_nan_3x3_system_raises_non_finite_step(self):
        J = [[math.nan, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 1.0]]
        with pytest.raises(SingularJacobian, match="linear solve produced a non-finite step"):
            _solve_linear(J, [1.0, 1.0, 1.0])

    def test_3x3_agrees_with_lapack(self, rng):
        for _ in range(500):
            J = rng.normal(size=(3, 3)) * 10.0 ** rng.uniform(-3, 3, size=(3, 1))
            F = rng.normal(size=3)
            x = _solve_linear(J.tolist(), F.tolist())
            ref = np.linalg.solve(J, F)
            npt.assert_allclose(x, ref, rtol=0.0, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize(
        "J, F, x",
        [
            # row 0 leads with a zero: the first pivot is row 1, then row 2
            ([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], [1.0, 2.0, 3.0],
             [2.0, 1.0, 3.0]),
            ([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]], [1.0, 2.0, 3.0],
             [3.0, 2.0, 1.0]),
            # the first stage leaves a zero in the (1, 1) position: the
            # second stage must swap rows 1 and 2
            ([[2.0, 1.0, 1.0], [1.0, 0.5, 1.0], [0.0, 1.0, 0.0]], [7.0, 5.0, 2.0],
             [1.0, 2.0, 3.0]),
        ],
        ids=["swap-01", "swap-02", "second-stage-swap"],
    )
    def test_3x3_pivots_past_zero_leading_entries(self, J, F, x):
        assert _solve_linear(J, F) == x

    def test_3x3_pivot_is_first_row_of_largest_magnitude(self):
        # rows 1 and 2 tie at |3| > |1|.  LAPACK's idamax takes row 1, and
        # its elimination is exact here; the same system with rows 1 and 2
        # swapped, which takes the other row, rounds
        J = [[1.0, -6.0, 5.0], [3.0, 2.0, -2.0], [-3.0, -6.0, 5.0]]
        F = [4.0, 1.0, 0.0]
        assert _solve_linear(J, F) == [1.0, 2.0, 3.0]
        assert _solve_linear([J[0], J[2], J[1]], [F[0], F[2], F[1]]) != [1.0, 2.0, 3.0]

    def test_ill_conditioned_3x3_has_small_backward_error(self, rng):
        eps = np.finfo(float).eps
        for _ in range(50):
            U, _r = np.linalg.qr(rng.normal(size=(3, 3)))
            V, _r = np.linalg.qr(rng.normal(size=(3, 3)))
            J = U @ np.diag([1.0, 1e-5, 1e-10]) @ V.T
            assert 1e9 < np.linalg.cond(J) < 1e11
            J, F = J.tolist(), rng.normal(size=3).tolist()
            x = _solve_linear(J, F)
            bound = 10.0 * eps * _norm([sum(map(abs, row)) for row in J]) * _norm(x)
            assert exact_residual_norm(J, x, F) <= bound

    @pytest.mark.parametrize(
        "J",
        [
            [[0.0, 1.0, 2.0], [0.0, 3.0, 4.0], [0.0, 5.0, 6.0]],
            [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 1.0, 1.0]],
            [[2.0, 1.0, 1.0], [4.0, 2.0, 5.0], [6.0, 3.0, 4.0]],
        ],
        ids=["zero-column", "parallel-rows", "dependent-column"],
    )
    def test_singular_3x3_raises(self, J):
        with pytest.raises(SingularJacobian, match="linear solve failed"):
            _solve_linear(J, [1.0, 2.0, 3.0])

    def test_3x3_array_input_returns_python_floats(self, rng):
        J, F = rng.normal(size=(3, 3)), rng.normal(size=3)
        x = _solve_linear(J, F)
        assert type(x) is list
        assert all(type(a) is float for a in x)
        assert x == _solve_linear(J.tolist(), F.tolist())

    def test_3x3_list_input_makes_no_numpy_call(self, monkeypatch):
        monkeypatch.setattr(numerics, "np", types.SimpleNamespace())
        J = [[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]]
        x = _solve_linear(J, [5.0, 5.0, 3.0])
        assert x == pytest.approx([1.0, 1.0, 1.0], rel=1e-15)


class TestFdJacobian:
    def test_identity_map(self):
        J = fd_jacobian(lambda x: x, np.array([0.3, -1.7]), 1e-7)
        npt.assert_allclose(J, np.eye(2), atol=1e-9)

    def test_hand_differentiated_example(self):
        def F(z):
            x, y = z
            return np.array([x * y, x + y])

        J = fd_jacobian(F, np.array([2.0, 3.0]), 1e-7)
        npt.assert_allclose(J, [[3.0, 2.0], [1.0, 1.0]], atol=1e-7)

    def test_constant_map(self):
        J = fd_jacobian(lambda x: np.array([4.0, 5.0]), np.array([1.0, 2.0, 3.0]), 1e-7)
        npt.assert_allclose(J, np.zeros((2, 3)), atol=1e-9)

    def test_linear_map_recovered(self, rng):
        A = rng.uniform(-1e3, 1e3, (4, 3))
        x = rng.uniform(-5, 5, 3)
        J = fd_jacobian(lambda z: A @ z, x, 1e-7)
        assert np.max(np.abs(J - A)) <= 1e-8 * max(1.0, np.max(np.abs(A)))

    def test_nonfinite_identifies_coordinate(self):
        def F(z):
            with np.errstate(invalid="ignore"):
                return np.array([np.sqrt(z[1])])

        with pytest.raises(EvaluationFailure, match="coordinate 1"):
            fd_jacobian(F, np.array([1.0, 0.0]), 1e-7)

    @pytest.mark.parametrize(
        "side, bad",
        [(1.0, np.inf), (-1.0, np.inf), (1.0, np.nan), (-1.0, np.nan)],
        ids=["1.0", "-1.0", "1.0-nan", "-1.0-nan"],
    )
    def test_one_sided_nonfinite_identifies_coordinate(self, side, bad):
        x = np.array([0.5, 2.0])

        def F(z):
            # non-finite only in the last row, on one side of coordinate 1
            return np.array([z[0], bad if side * (z[1] - x[1]) > 0 else z[1]])

        with pytest.raises(EvaluationFailure, match="coordinate 1"):
            fd_jacobian(F, x, 1e-7)

    def test_rejects_nonpositive_eps(self):
        with pytest.raises(ValueError):
            fd_jacobian(lambda x: x, np.array([1.0]), 0.0)


class TestNewtonSolve:
    def test_scalar_quadratic_root(self):
        res = newton_solve(
            lambda x: np.square(x) - 4.0, np.array([1.0]), NewtonOptions(tol=1e-12)
        )
        assert res.converged
        npt.assert_allclose(res.x, [2.0], atol=1e-12)

    def test_linear_shift_one_iteration(self):
        res = newton_solve(
            lambda x: np.subtract(x, 7.5), np.array([123.0]), jac=lambda x: np.eye(1)
        )
        assert res.converged
        assert res.iterations == 1
        npt.assert_allclose(res.x, [7.5], atol=1e-12)
        # finite-difference Jacobian carries rounding noise but still converges
        res_fd = newton_solve(lambda x: np.subtract(x, 7.5), np.array([123.0]))
        assert res_fd.converged and res_fd.iterations <= 2
        npt.assert_allclose(res_fd.x, [7.5], atol=1e-10)

    def test_two_by_two_linear_system(self):
        def F(z):
            x, y = z
            return np.array([x + 2 * y - 5.0, 3 * x - y - 1.0])

        res = newton_solve(F, np.zeros(2), NewtonOptions(tol=1e-12))
        assert res.converged
        npt.assert_allclose(res.x, [1.0, 2.0], atol=1e-12)

    def test_converged_residual_bound_holds(self, rng):
        def F(z):
            return np.array([np.tanh(z[0]) - 0.3, z[1] ** 3 - 2.0])

        opts = NewtonOptions(tol=1e-11)
        res = newton_solve(F, rng.uniform(0.5, 1.5, 2), opts)
        assert res.converged
        assert np.max(np.abs(F(res.x))) <= opts.tol

    def test_analytic_jacobian_used(self):
        calls = {"n": 0}

        def F(z):
            calls["n"] += 1
            return np.array([z[0] ** 2 - 4.0])

        def J(z):
            return np.array([[2.0 * z[0]]])

        res = newton_solve(F, np.array([1.0]), jac=J)
        assert res.converged
        # one call per iterate plus backtracking probes only; no FD stencils
        assert calls["n"] <= res.iterations * 2 + 1

    def test_nonconvergence_returns_best_iterate(self):
        res = newton_solve(
            lambda x: np.square(x) + 1.0, np.array([0.7]), NewtonOptions(max_iter=8)
        )
        assert not res.converged
        assert res.iterations == 8
        assert np.isfinite(res.residual_norm)
        # best iterate cannot have a worse residual than the start
        assert res.residual_norm <= 0.7**2 + 1.0

    def test_nonfinite_initial_residual_raises(self):
        with pytest.raises(EvaluationFailure, match="initial guess"):
            newton_solve(lambda x: np.array([np.nan, 0.0]), np.zeros(2))

    def test_nonfinite_through_all_backtracks_raises(self):
        x0 = np.array([3.0])

        def F(x):
            # finite only at the starting point, so every damped trial fails
            return np.square(x) - 4.0 if x[0] == x0[0] else np.array([np.inf])

        with pytest.raises(EvaluationFailure, match="after exhausting backtracking"):
            newton_solve(F, x0, jac=lambda x: np.array([[2.0 * x[0]]]))

    def test_exactly_singular_first_jacobian_raises_after_one_solve(self, monkeypatch):
        def F(z):
            x, y = z
            return np.array([x * x - 4.0 + y, y * (x - 1.0)])

        def J(z):
            x, y = z
            return np.array([[2.0 * x, 1.0], [y, x - 1.0]])

        z0 = np.array([1.0, 0.0])
        solves = []
        real_solve = np.linalg.solve

        def solve(A, b):
            solves.append(A)
            return real_solve(A, b)

        monkeypatch.setattr(numerics.np.linalg, "solve", solve)
        with pytest.raises(SingularJacobian, match="linear solve failed"):
            newton_solve(F, z0, NewtonOptions(tol=1e-12), jac=J)
        assert len(solves) == 1

    def test_stall_ends_the_solve_at_the_current_iterate(self):
        # F has no root and its full step from near 0 overshoots; no damped
        # trial down to 2^-30 reduces |F| = 1, so the solve stops at x0
        x0 = np.array([1e-9])
        res = newton_solve(
            lambda x: np.square(x) + 1.0, x0, jac=lambda x: np.array([[2.0 * x[0]]])
        )
        assert not res.converged
        assert res.iterations == 0
        assert res.backtracks == numerics.MAX_HALVINGS == 30
        npt.assert_array_equal(res.x, x0)
        assert res.residual_norm == 1.0

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(
        st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
        hnp.arrays(np.float64, 2, elements=st.floats(-3.0, 3.0)),
        st.integers(1, 50),
    )
    @example([0.0, 1.0, 1.0, 0.0], np.array([1e-9, 0.5]), 50)
    def test_accepted_residuals_strictly_decrease(self, coef, z0, max_iter):
        a, b, c, d = coef

        def F(z):
            with np.errstate(over="ignore", invalid="ignore"):
                return np.array([z[0] ** 2 + a * z[1] + b, z[1] ** 3 / 3.0 + c * z[0] + d])

        jac_norms = []

        def J(z):
            jac_norms.append(_norm(F(z)))
            return np.array([[2.0 * z[0], a], [c, z[1] ** 2]])

        opts = NewtonOptions(max_iter=max_iter)
        try:
            res = newton_solve(F, z0, opts, jac=J)
        except (SingularJacobian, EvaluationFailure):
            res = None
        assert all(n1 < n0 for n0, n1 in zip(jac_norms, jac_norms[1:]))
        if res is None:
            return
        assert res.residual_norm == _norm(F(res.x))
        stalled = not res.converged and res.iterations < max_iter
        # a stall ends the solve at the iterate whose Jacobian was just used
        assert len(jac_norms) == res.iterations + stalled
        if stalled:
            assert res.residual_norm == jac_norms[-1]
        elif jac_norms:
            assert res.residual_norm < jac_norms[-1]

    def test_backtracks_counted(self):
        calls = {"n": 0}

        def F(x):
            calls["n"] += 1
            return np.arctan(x)

        # the full Newton step from 3 overshoots to about -9.5
        res = newton_solve(F, np.array([3.0]), jac=lambda x: np.array([[1.0 / (1.0 + x[0] ** 2)]]))
        assert res.converged
        assert res.backtracks > 0
        # one evaluation at the start, one per iteration, one per backtrack
        assert calls["n"] == 1 + res.iterations + res.backtracks

    def test_result_backtracks_default_zero(self):
        assert NewtonResult(np.zeros(1), 0.0, 0, True).backtracks == 0

    def test_zero_fd_jacobian_raises_singular(self):
        with pytest.raises(SingularJacobian):
            newton_solve(lambda x: np.array([1.0]), np.array([0.0]))

    def test_deterministic_iterate_sequence(self):
        def make_recorder():
            seen = []

            def F(z):
                seen.append(z.copy())
                return np.array([np.sin(z[0]) - 0.42 * z[0]])

            return F, seen

        F1, s1 = make_recorder()
        F2, s2 = make_recorder()
        r1 = newton_solve(F1, np.array([2.0]))
        r2 = newton_solve(F2, np.array([2.0]))
        assert r1.x[0] == r2.x[0]
        assert len(s1) == len(s2)
        for a, b in zip(s1, s2):
            assert a[0] == b[0]

    def test_option_validation(self):
        with pytest.raises(ValueError):
            NewtonOptions(tol=0.0)
        with pytest.raises(ValueError):
            NewtonOptions(max_iter=0)

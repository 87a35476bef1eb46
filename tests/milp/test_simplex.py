"""Tests for the dense two-phase simplex LP solver (:mod:`tests.milp.simplex`),
the tableau reference the other LP tests compare against."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.milp.scipy_backend import scipy_lp_backend
from repro.milp.status import SolveStatus

from .simplex import solve_lp_arrays


def _solve(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, lower=None, upper=None):
    n = len(c)
    c = np.asarray(c, dtype=float)
    a_ub = np.zeros((0, n)) if a_ub is None else np.asarray(a_ub, dtype=float)
    b_ub = np.zeros(0) if b_ub is None else np.asarray(b_ub, dtype=float)
    a_eq = np.zeros((0, n)) if a_eq is None else np.asarray(a_eq, dtype=float)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float)
    lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
    upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    return solve_lp_arrays(c, a_ub, b_ub, a_eq, b_eq, lower, upper)


class TestBasicLPs:
    def test_simple_maximization_as_min(self):
        # max 3x + 2y s.t. x + y <= 4, x + 3y <= 6, x,y >= 0  -> x=4, y=0, obj=12
        sol = _solve([-3, -2], a_ub=[[1, 1], [1, 3]], b_ub=[4, 6])
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(-12.0)
        np.testing.assert_allclose(sol.x, [4.0, 0.0], atol=1e-8)

    def test_classic_two_constraint_problem(self):
        # min -x - y s.t. 2x + y <= 10, x + 3y <= 15 -> optimum at (3, 4), obj = -7
        sol = _solve([-1, -1], a_ub=[[2, 1], [1, 3]], b_ub=[10, 15])
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(-7.0)
        np.testing.assert_allclose(sol.x, [3.0, 4.0], atol=1e-8)

    def test_equality_constraint(self):
        # min x + 2y s.t. x + y = 5 -> x=5, y=0
        sol = _solve([1, 2], a_eq=[[1, 1]], b_eq=[5])
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(5.0)
        np.testing.assert_allclose(sol.x, [5.0, 0.0], atol=1e-8)

    def test_ge_constraint_via_negated_ub(self):
        # min x s.t. x >= 3 expressed as -x <= -3
        sol = _solve([1], a_ub=[[-1]], b_ub=[-3])
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(3.0)

    def test_upper_bounds_respected(self):
        # min -x with x <= 2.5 as a variable bound
        sol = _solve([-1], upper=[2.5])
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(2.5)

    def test_shifted_lower_bounds(self):
        # min x + y with x >= 2, y >= 3 and x + y <= 10
        sol = _solve([1, 1], a_ub=[[1, 1]], b_ub=[10], lower=[2, 3])
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(5.0)

    def test_negative_lower_bounds(self):
        # min x with x in [-4, -1]
        sol = _solve([1], lower=[-4], upper=[-1])
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(-4.0)

    def test_free_variable(self):
        # min x s.t. x >= -7 (as a constraint, variable itself free)
        sol = _solve([1], a_ub=[[-1]], b_ub=[7], lower=[-np.inf], upper=[np.inf])
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(-7.0)

    def test_upper_bounded_only_variable(self):
        # max x (min -x) with x <= 9 and no lower bound but constraint x >= 0
        sol = _solve(
            [-1], a_ub=[[-1]], b_ub=[0], lower=[-np.inf], upper=[9]
        )
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(9.0)

    def test_degenerate_problem_terminates(self):
        # Classic degenerate LP (multiple constraints active at the optimum).
        sol = _solve(
            [-0.75, 150, -0.02, 6],
            a_ub=[
                [0.25, -60, -0.04, 9],
                [0.5, -90, -0.02, 3],
                [0, 0, 1, 0],
            ],
            b_ub=[0, 0, 1],
        )
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(-0.05, abs=1e-6)


class TestInfeasibleAndUnbounded:
    def test_infeasible_contradictory_constraints(self):
        sol = _solve([1], a_ub=[[1], [-1]], b_ub=[1, -3])  # x <= 1 and x >= 3
        assert sol.status is SolveStatus.INFEASIBLE

    def test_infeasible_bounds(self):
        sol = _solve([1], lower=[5], upper=[1])
        assert sol.status is SolveStatus.INFEASIBLE

    def test_infeasible_equality(self):
        sol = _solve([1, 1], a_eq=[[1, 1], [1, 1]], b_eq=[2, 5])
        assert sol.status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        sol = _solve([-1])  # min -x, x >= 0 unbounded
        assert sol.status is SolveStatus.UNBOUNDED

    def test_unbounded_with_constraint_not_binding_direction(self):
        sol = _solve([-1, 0], a_ub=[[0, 1]], b_ub=[5])
        assert sol.status is SolveStatus.UNBOUNDED

    def test_no_constraints_bounded_by_default_lower(self):
        sol = _solve([2, 3])
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(0.0)


class TestAgainstScipy:
    """Cross-check the native simplex against SciPy/HiGHS on random LPs."""

    @staticmethod
    def _random_lp(rng: np.random.Generator, n: int, m: int):
        c = rng.uniform(-5, 5, size=n)
        a_ub = rng.uniform(-1, 3, size=(m, n))
        # Make the feasible region non-empty and bounded: x in [0, ub], b >= A @ x0
        x0 = rng.uniform(0, 2, size=n)
        b_ub = a_ub @ x0 + rng.uniform(0.1, 2.0, size=m)
        lower = np.zeros(n)
        upper = rng.uniform(2.5, 6.0, size=n)
        return c, a_ub, b_ub, lower, upper

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 6), m=st.integers(1, 6))
    def test_matches_scipy_on_random_bounded_lps(self, seed, n, m):
        rng = np.random.default_rng(seed)
        c, a_ub, b_ub, lower, upper = self._random_lp(rng, n, m)
        a_eq = np.zeros((0, n))
        b_eq = np.zeros(0)
        ours = solve_lp_arrays(c, a_ub, b_ub, a_eq, b_eq, lower, upper)
        ref = scipy_lp_backend(c, a_ub, b_ub, a_eq, b_eq, lower, upper)
        assert ours.status is SolveStatus.OPTIMAL
        assert ref.status is SolveStatus.OPTIMAL
        assert ours.objective == pytest.approx(ref.objective, rel=1e-6, abs=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_solution_is_feasible(self, seed):
        rng = np.random.default_rng(seed)
        c, a_ub, b_ub, lower, upper = self._random_lp(rng, 5, 4)
        sol = solve_lp_arrays(c, a_ub, b_ub, np.zeros((0, 5)), np.zeros(0), lower, upper)
        assert sol.status is SolveStatus.OPTIMAL
        assert np.all(a_ub @ sol.x <= b_ub + 1e-6)
        assert np.all(sol.x >= lower - 1e-8)
        assert np.all(sol.x <= upper + 1e-8)

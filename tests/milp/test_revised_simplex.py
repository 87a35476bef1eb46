"""Unit tests for the bounded-variable revised simplex
(:mod:`repro.milp.revised_simplex`)."""

import numpy as np
import pytest

from repro.milp.revised_simplex import BASIC, Basis, BoundedLP, solve_lp_revised
from repro.milp.scipy_backend import scipy_lp_backend
from repro.milp.status import SolveStatus

from .simplex import solve_lp_arrays


def _solve(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, lower=None, upper=None,
           **kwargs):
    c = np.asarray(c, dtype=float)
    n = len(c)
    return solve_lp_revised(
        c,
        np.asarray(a_ub, dtype=float) if a_ub is not None else np.zeros((0, n)),
        np.asarray(b_ub, dtype=float) if b_ub is not None else np.zeros(0),
        np.asarray(a_eq, dtype=float) if a_eq is not None else np.zeros((0, n)),
        np.asarray(b_eq, dtype=float) if b_eq is not None else np.zeros(0),
        np.asarray(lower, dtype=float) if lower is not None else np.zeros(n),
        np.asarray(upper, dtype=float) if upper is not None else np.full(n, np.inf),
        **kwargs,
    )


class TestBasics:
    def test_production_lp(self):
        # max 40x + 30y (as min of negation): optimum 2600 at (20, 60).
        sol, basis = _solve(
            c=[-40.0, -30.0],
            a_ub=[[2.0, 1.0], [1.0, 1.0]], b_ub=[100.0, 80.0],
        )
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(-2600.0)
        assert sol.x == pytest.approx([20.0, 60.0])
        assert basis is not None and basis.num_rows == 2

    def test_equality_rows(self):
        sol, _ = _solve(c=[1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[3.0], upper=[2.0, 2.0])
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.x == pytest.approx([2.0, 1.0])

    def test_free_variable(self):
        sol, _ = _solve(
            c=[1.0], a_ub=[[-1.0]], b_ub=[5.0], lower=[-np.inf], upper=[np.inf]
        )
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(-5.0)

    def test_upper_bounded_only_variable(self):
        sol, _ = _solve(c=[1.0], lower=[-np.inf], upper=[4.0], a_ub=[[-1.0]], b_ub=[2.0])
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(-2.0)

    def test_bound_flip_path(self):
        # Optimum sits at the upper bounds; reaching it needs bound handling,
        # not rows.
        sol, _ = _solve(c=[-1.0, -1.0], upper=[2.0, 3.0])
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.x == pytest.approx([2.0, 3.0])

    def test_infeasible(self):
        sol, _ = _solve(c=[1.0], a_ub=[[1.0]], b_ub=[-1.0])  # x <= -1, x >= 0
        assert sol.status is SolveStatus.INFEASIBLE

    def test_unbounded(self):
        sol, _ = _solve(c=[-1.0])  # minimize -x, x >= 0 unbounded
        assert sol.status is SolveStatus.UNBOUNDED

    def test_crossed_bounds_infeasible(self):
        sol, _ = _solve(c=[1.0], lower=[2.0], upper=[1.0])
        assert sol.status is SolveStatus.INFEASIBLE


class TestAgainstReferences:
    def test_matches_dense_reference_and_scipy(self):
        rng = np.random.default_rng(3)
        for _ in range(60):
            n = int(rng.integers(1, 7))
            m_ub = int(rng.integers(0, 5))
            m_eq = int(rng.integers(0, 3))
            c = rng.normal(size=n).round(2)
            a_ub = rng.normal(size=(m_ub, n)).round(2)
            b_ub = rng.normal(size=m_ub).round(2)
            a_eq = rng.normal(size=(m_eq, n)).round(2)
            b_eq = rng.normal(size=m_eq).round(2)
            lower = np.where(rng.random(n) < 0.2, -np.inf, rng.uniform(-2, 0, n).round(2))
            upper = np.where(rng.random(n) < 0.2, np.inf, rng.uniform(0, 2, n).round(2))
            upper = np.maximum(upper, lower)

            revised, _ = solve_lp_revised(c, a_ub, b_ub, a_eq, b_eq, lower, upper)
            dense = solve_lp_arrays(c, a_ub, b_ub, a_eq, b_eq, lower, upper)
            scipy_sol = scipy_lp_backend(c, a_ub, b_ub, a_eq, b_eq, lower, upper)
            assert revised.status == scipy_sol.status
            assert revised.status == dense.status
            if revised.status is SolveStatus.OPTIMAL:
                assert revised.objective == pytest.approx(scipy_sol.objective, abs=1e-6)
                assert revised.objective == pytest.approx(dense.objective, abs=1e-6)


class TestWarmStart:
    def test_optimal_basis_restarts_in_zero_iterations(self):
        args = dict(
            c=[-40.0, -30.0], a_ub=[[2.0, 1.0], [1.0, 1.0]], b_ub=[100.0, 80.0]
        )
        sol, basis = _solve(**args)
        again, _ = _solve(**args, basis=basis)
        assert again.status is SolveStatus.OPTIMAL
        assert again.iterations == 0
        assert again.objective == pytest.approx(sol.objective)

    def test_warm_start_after_bound_change_matches_cold(self):
        lp = BoundedLP(
            np.array([-40.0, -30.0]),
            np.array([[2.0, 1.0], [1.0, 1.0]]), np.array([100.0, 80.0]),
            np.zeros((0, 2)), np.zeros(0),
            np.zeros(2), np.full(2, np.inf),
        )
        sol, basis = lp.solve()
        tight = np.array([10.0, np.inf])  # branch-style cut below x0* = 20
        cold, _ = lp.solve(upper=tight)
        warm, _ = lp.solve(upper=tight, basis=basis)
        assert cold.status is warm.status is SolveStatus.OPTIMAL
        assert warm.objective == pytest.approx(cold.objective)
        assert warm.iterations <= cold.iterations

    def test_invalid_basis_falls_back_to_cold_start(self):
        lp = BoundedLP(
            np.array([1.0, 1.0]),
            np.array([[1.0, 1.0]]), np.array([4.0]),
            np.zeros((0, 2)), np.zeros(0),
            np.zeros(2), np.full(2, np.inf),
        )
        bogus = Basis(
            status=np.full(99, BASIC, dtype=np.int8),
            basic_idx=np.arange(7, dtype=np.int64),
        )
        sol, _ = lp.solve(basis=bogus)
        assert sol.status is SolveStatus.OPTIMAL
        assert sol.objective == pytest.approx(0.0)

    def test_free_column_basis_adapts_to_new_finite_bounds(self):
        # A basis recorded while a variable was free must not leave that
        # variable nonbasic at 0 when reused on a problem where its box is
        # [1, 2] — the adopted basis has to seat it on a finite bound.
        lp = BoundedLP(
            np.array([0.0, 1.0]),
            np.array([[1.0, 1.0]]), np.array([10.0]),
            np.zeros((0, 2)), np.zeros(0),
            np.array([-np.inf, 0.0]), np.array([np.inf, 5.0]),
        )
        sol, basis = lp.solve()
        assert sol.status is SolveStatus.OPTIMAL
        warm, _ = lp.solve(
            lower=np.array([1.0, 0.0]), upper=np.array([2.0, 5.0]), basis=basis
        )
        assert warm.status is SolveStatus.OPTIMAL
        assert 1.0 - 1e-8 <= warm.x[0] <= 2.0 + 1e-8

    def test_warm_used_reports_what_actually_happened(self):
        lp = BoundedLP(
            np.array([1.0, 1.0]),
            np.array([[1.0, 1.0]]), np.array([4.0]),
            np.zeros((0, 2)), np.zeros(0),
            np.zeros(2), np.full(2, np.inf),
        )
        cold, basis = lp.solve()
        assert cold.warm_used is False
        warm, _ = lp.solve(basis=basis)
        assert warm.warm_used is True
        # A shape-mismatched basis is rejected → the solve is a cold start
        # and must be accounted as one.
        bogus = Basis(
            status=np.full(99, BASIC, dtype=np.int8),
            basic_idx=np.arange(7, dtype=np.int64),
        )
        rejected, _ = lp.solve(basis=bogus)
        assert rejected.status is SolveStatus.OPTIMAL
        assert rejected.warm_used is False

    def test_duplicate_basic_indices_rejected(self):
        lp = BoundedLP(
            np.array([1.0]),
            np.array([[1.0], [1.0]]), np.array([1.0, 2.0]),
            np.zeros((0, 1)), np.zeros(0),
            np.zeros(1), np.ones(1),
        )
        bogus = Basis(
            status=np.array([BASIC, BASIC, 0], dtype=np.int8),
            basic_idx=np.array([0, 0], dtype=np.int64),
        )
        sol, _ = lp.solve(basis=bogus)
        assert sol.status is SolveStatus.OPTIMAL

    def test_prepared_lp_reuse_across_many_bounds(self):
        rng = np.random.default_rng(8)
        n = 6
        lp = BoundedLP(
            rng.normal(size=n),
            rng.normal(size=(4, n)), rng.uniform(1, 3, 4),
            np.zeros((0, n)), np.zeros(0),
            np.zeros(n), np.full(n, 2.0),
        )
        sol, basis = lp.solve()
        assert sol.status is SolveStatus.OPTIMAL
        for _ in range(10):
            upper = rng.uniform(0.5, 2.0, n)
            cold, _ = lp.solve(upper=upper)
            warm, _ = lp.solve(upper=upper, basis=basis)
            assert cold.status == warm.status
            if cold.status is SolveStatus.OPTIMAL:
                assert warm.objective == pytest.approx(cold.objective, abs=1e-7)


class TestDeterminism:
    def test_repeated_solves_are_bit_identical(self):
        rng = np.random.default_rng(21)
        n = 8
        c = rng.normal(size=n)
        a_ub = rng.normal(size=(5, n))
        b_ub = rng.uniform(0.5, 2.0, 5)
        first, _ = solve_lp_revised(
            c, a_ub, b_ub, np.zeros((0, n)), np.zeros(0), np.zeros(n), np.ones(n)
        )
        for _ in range(3):
            again, _ = solve_lp_revised(
                c, a_ub, b_ub, np.zeros((0, n)), np.zeros(0), np.zeros(n), np.ones(n)
            )
            assert again.status == first.status
            assert np.array_equal(again.x, first.x)
            assert again.iterations == first.iterations

"""Tests for the native branch & bound MILP solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.milp.branch_and_bound import solve_milp_arrays
from repro.milp.scipy_backend import solve_form_scipy
from repro.milp.status import SolveStatus

from .forms import standard_form


def _knapsack_form(values, weights, capacity):
    # Maximizing the packed value is minimizing its negation, so the solvers
    # report the best value negated.
    return standard_form(
        -np.asarray(values, dtype=float), a_ub=[weights], b_ub=[capacity], upper=1.0,
        integrality=True,
    )


def _brute_force_knapsack(values, weights, capacity):
    n = len(values)
    best = 0.0
    for mask in range(1 << n):
        weight = sum(weights[i] for i in range(n) if mask >> i & 1)
        if weight <= capacity:
            best = max(best, sum(values[i] for i in range(n) if mask >> i & 1))
    return best


class TestKnapsack:
    def test_small_knapsack_exact(self):
        values = [10, 13, 18, 31, 7, 15]
        weights = [2, 3, 4, 5, 1, 4]
        capacity = 10
        result = solve_milp_arrays(_knapsack_form(values, weights, capacity))
        assert result.status is SolveStatus.OPTIMAL
        assert -result.objective == pytest.approx(
            _brute_force_knapsack(values, weights, capacity)
        )

    def test_solution_is_binary(self):
        result = solve_milp_arrays(_knapsack_form([4, 5, 6], [2, 3, 4], 5))
        assert set(np.round(result.x).tolist()) <= {0.0, 1.0}

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 5000), n=st.integers(2, 8))
    def test_random_knapsacks_match_brute_force(self, seed, n):
        rng = np.random.default_rng(seed)
        values = rng.integers(1, 20, size=n).tolist()
        weights = rng.integers(1, 10, size=n).tolist()
        capacity = int(max(1, rng.integers(1, max(2, sum(weights)))))
        result = solve_milp_arrays(_knapsack_form(values, weights, capacity))
        assert result.status is SolveStatus.OPTIMAL
        assert -result.objective == pytest.approx(
            _brute_force_knapsack(values, weights, capacity)
        )

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 5000), n=st.integers(2, 7))
    def test_native_matches_scipy_milp(self, seed, n):
        rng = np.random.default_rng(seed)
        values = rng.integers(1, 20, size=n).tolist()
        weights = rng.integers(1, 10, size=n).tolist()
        capacity = int(max(1, rng.integers(1, max(2, sum(weights)))))
        form = _knapsack_form(values, weights, capacity)
        native = solve_milp_arrays(form)
        status, _x, objective, _nodes, _t = solve_form_scipy(form)
        assert native.status is SolveStatus.OPTIMAL
        assert status is SolveStatus.OPTIMAL
        assert native.objective == pytest.approx(objective, abs=1e-6)


class TestGeneralMILP:
    def test_integer_rounding_not_valid_shortcut(self):
        # Classic example where rounding the LP relaxation is wrong:
        # max x + y s.t. -2x + 2y >= 1, -8x + 10y <= 13, x, y integer >= 0.
        form = standard_form(
            [-1.0, -1.0], a_ub=[[2.0, -2.0], [-8.0, 10.0]], b_ub=[-1.0, 13.0],
            integrality=True,
        )
        result = solve_milp_arrays(form, node_limit=5000)
        assert result.status is SolveStatus.OPTIMAL
        x, y = result.x
        assert y - x >= 0.5  # first constraint holds
        assert -result.objective == pytest.approx(3.0)  # known optimum x=1, y=2

    def test_equality_constrained_assignment(self):
        # 3 jobs x 3 machines assignment with distinct costs has a unique optimum.
        costs = np.array([[4.0, 2.0, 8.0], [4.0, 3.0, 7.0], [3.0, 1.0, 6.0]])
        # x[i, j] row-major; each job and each machine is used exactly once.
        a_eq = np.vstack([np.kron(np.eye(3), np.ones(3)), np.tile(np.eye(3), 3)])
        form = standard_form(
            costs.ravel(), a_eq=a_eq, b_eq=np.ones(6), upper=1.0, integrality=True,
        )
        result = solve_milp_arrays(form)
        assert result.status is SolveStatus.OPTIMAL
        # Hungarian-optimal assignment cost for this matrix is 2 + 4 + 6 = 12 ... verify
        # by brute force over permutations.
        import itertools

        best = min(sum(costs[i, p[i]] for i in range(3)) for p in itertools.permutations(range(3)))
        assert result.objective == pytest.approx(best)

    def test_infeasible_milp(self):
        # x >= 2 is impossible for a binary variable.
        form = standard_form([1.0], a_ub=[[-1.0]], b_ub=[-2.0], upper=1.0, integrality=True)
        result = solve_milp_arrays(form)
        assert result.status is SolveStatus.INFEASIBLE

    def test_unbounded_milp(self):
        # max x over the non-negative integers.
        form = standard_form([-1.0], integrality=True)
        result = solve_milp_arrays(form)
        assert result.status is SolveStatus.UNBOUNDED

    def test_node_limit_returns_limit_status(self):
        rng = np.random.default_rng(7)
        n = 14
        values = rng.uniform(1, 30, size=n)
        weights = rng.uniform(1, 10, size=n)
        form = _knapsack_form(values.tolist(), weights.tolist(), float(weights.sum()) / 2)
        result = solve_milp_arrays(form, node_limit=1)
        assert result.status in (SolveStatus.NODE_LIMIT, SolveStatus.OPTIMAL)

    def test_mixed_integer_continuous(self):
        # min 2x + 3y, x integer in [0, 10], y continuous >= 0, x + y >= 3.5
        form = standard_form(
            [2.0, 3.0], a_ub=[[-1.0, -1.0]], b_ub=[-3.5], upper=[10.0, np.inf],
            integrality=[True, False],
        )
        result = solve_milp_arrays(form)
        assert result.status is SolveStatus.OPTIMAL
        # cheapest: x = 3 (cost 6) + y = 0.5 (cost 1.5) = 7.5 vs x=4 -> 8.0
        assert result.objective == pytest.approx(7.5)

    def test_gap_zero_on_full_exploration(self):
        result = solve_milp_arrays(_knapsack_form([5, 4, 3], [3, 2, 2], 4))
        assert result.gap == pytest.approx(0.0, abs=1e-9)

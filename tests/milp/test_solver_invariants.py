"""Property-based invariants for the array-level LP/MILP solvers.

Random small LPs and MILPs are generated from hypothesis-drawn seeds and the
solvers are checked against invariants that must hold for *any* exact solver:

* ``solve_lp_arrays`` (the dense tableau reference) — returned points are
  feasible, agree with the SciPy/HiGHS backend on status and objective, and
  are optimal among the box corners of bounded problems;
* ``branch_and_bound.solve_milp_arrays`` — returned points are integral and
  feasible, never beat the LP relaxation, and match brute-force enumeration
  on small bounded integer boxes.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.milp import SolveStatus
from repro.milp.branch_and_bound import solve_milp_arrays
from repro.milp.scipy_backend import scipy_lp_backend

from .forms import standard_form
from .simplex import solve_lp_arrays

TOL = 1e-6


def random_bounded_lp(seed: int):
    """A random LP with finite box bounds (hence never unbounded)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 6))
    m = int(rng.integers(0, 5))
    c = rng.uniform(-5.0, 5.0, size=n)
    lower = rng.uniform(-3.0, 0.0, size=n)
    upper = lower + rng.uniform(0.5, 4.0, size=n)
    a_ub = rng.uniform(-2.0, 2.0, size=(m, n))
    # RHS chosen so the lower corner satisfies every row: feasibility is
    # guaranteed, so the only legal outcomes are OPTIMAL.
    slack = rng.uniform(0.1, 3.0, size=m)
    b_ub = a_ub @ lower + slack if m else np.zeros(0)
    return c, a_ub, b_ub, np.zeros((0, n)), np.zeros(0), lower, upper


def assert_lp_feasible(x, a_ub, b_ub, lower, upper):
    assert np.all(x >= lower - TOL)
    assert np.all(x <= upper + TOL)
    if a_ub.size:
        assert np.all(a_ub @ x <= b_ub + TOL)


class TestSimplexInvariants:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_feasible_bounded_lps_solve_to_scipy_objective(self, seed):
        c, a_ub, b_ub, a_eq, b_eq, lower, upper = random_bounded_lp(seed)
        native = solve_lp_arrays(c, a_ub, b_ub, a_eq, b_eq, lower, upper)
        reference = scipy_lp_backend(c, a_ub, b_ub, a_eq, b_eq, lower, upper)
        assert native.status is SolveStatus.OPTIMAL
        assert reference.status is SolveStatus.OPTIMAL
        assert_lp_feasible(native.x, a_ub, b_ub, lower, upper)
        assert native.objective == pytest.approx(reference.objective, rel=1e-6, abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_optimum_never_beaten_by_random_feasible_points(self, seed):
        c, a_ub, b_ub, a_eq, b_eq, lower, upper = random_bounded_lp(seed)
        native = solve_lp_arrays(c, a_ub, b_ub, a_eq, b_eq, lower, upper)
        assert native.status is SolveStatus.OPTIMAL
        rng = np.random.default_rng(seed + 1)
        for _ in range(25):
            candidate = rng.uniform(lower, upper)
            if a_ub.size and not np.all(a_ub @ candidate <= b_ub + 1e-12):
                continue
            assert native.objective <= float(c @ candidate) + TOL

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_infeasible_lps_are_reported(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        c = rng.uniform(-1.0, 1.0, size=n)
        # x_0 >= 1 and x_0 <= 0 simultaneously: blatantly infeasible.
        a_ub = np.zeros((2, n))
        a_ub[0, 0] = -1.0
        a_ub[1, 0] = 1.0
        b_ub = np.array([-1.0, 0.0])
        lower = np.zeros(n)
        upper = np.full(n, 2.0)
        result = solve_lp_arrays(c, a_ub, b_ub, np.zeros((0, n)), np.zeros(0), lower, upper)
        assert result.status is SolveStatus.INFEASIBLE

    def test_unbounded_lp_detected(self):
        # min -x with x free and unconstrained below/above.
        c = np.array([-1.0])
        result = solve_lp_arrays(
            c, np.zeros((0, 1)), np.zeros(0), np.zeros((0, 1)), np.zeros(0),
            np.array([-np.inf]), np.array([np.inf]),
        )
        assert result.status is SolveStatus.UNBOUNDED


def random_bounded_milp(seed: int):
    """A random small MILP over a bounded integer box."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 4))
    m = int(rng.integers(1, 4))
    bounds = rng.integers(1, 4, size=n)  # each var in [0, bound]
    c = rng.uniform(-5.0, 5.0, size=n)
    a = rng.uniform(-2.0, 2.0, size=(m, n))
    # RHS keeps the origin feasible.
    b = rng.uniform(0.5, 4.0, size=m)

    form = standard_form(c, a_ub=a, b_ub=b, upper=bounds, integrality=True)
    return form, c, a, b, bounds


def brute_force_optimum(c, a, b, bounds):
    """Enumerate the integer box (≤ 4^3 points) for the true optimum."""
    grids = np.meshgrid(*[np.arange(bound + 1) for bound in bounds], indexing="ij")
    points = np.stack([grid.ravel() for grid in grids], axis=1).astype(float)
    feasible = np.all(points @ a.T <= b + 1e-9, axis=1)
    assert feasible.any()  # the origin is always feasible
    return float(np.min(points[feasible] @ c))


class TestBranchAndBoundInvariants:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_solution_integral_feasible_and_brute_force_optimal(self, seed):
        form, c, a, b, bounds = random_bounded_milp(seed)
        result = solve_milp_arrays(form)
        assert result.status is SolveStatus.OPTIMAL
        x = result.x
        assert np.allclose(x, np.round(x), atol=1e-6)  # integrality
        assert np.all(x >= -1e-6) and np.all(x <= bounds + 1e-6)  # box bounds
        assert np.all(a @ x <= b + 1e-6)  # constraints
        assert result.objective == pytest.approx(float(c @ x), abs=1e-6)
        assert result.objective == pytest.approx(brute_force_optimum(c, a, b, bounds), abs=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_milp_never_beats_lp_relaxation(self, seed):
        form, *_ = random_bounded_milp(seed)
        milp = solve_milp_arrays(form)
        relaxation = solve_lp_arrays(
            form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq, form.lower, form.upper
        )
        assert milp.status is SolveStatus.OPTIMAL
        assert relaxation.status is SolveStatus.OPTIMAL
        assert milp.objective >= relaxation.objective - 1e-6

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=100_000))
    def test_gap_zero_and_bound_consistent_on_full_exploration(self, seed):
        form, *_ = random_bounded_milp(seed)
        result = solve_milp_arrays(form)
        assert result.status is SolveStatus.OPTIMAL
        assert result.gap == 0.0
        assert result.nodes >= 1

    def test_infeasible_milp_reported(self):
        # x in 0..3 with x >= 10.
        form = standard_form([1.0], a_ub=[[-1.0]], b_ub=[-10.0], upper=3.0, integrality=True)
        result = solve_milp_arrays(form)
        assert result.status is SolveStatus.INFEASIBLE

"""Property-based tests for the MILP layer as a whole.

Random placement MILPs (WaterWise's own builder with every delay row slack,
leaving the assignment + capacity structure) are solved with both the
native core and the SciPy/HiGHS backend; the two exact solvers must agree
and their solutions must satisfy every constraint.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import WaterWiseConfig
from repro.core.objective import build_placement_form
from repro.milp import SolveStatus, solve_standard_form


def _placement_form(costs: np.ndarray, capacities: np.ndarray):
    """min sum c[m,n] x[m,n]  s.t. each job assigned once, capacity per region.

    One-server jobs with zero transfer latency, so every delay row holds.
    """
    m_jobs, n_regions = costs.shape
    return build_placement_form(
        costs, np.zeros((m_jobs, n_regions)), np.ones(m_jobs), np.ones(m_jobs),
        capacities, WaterWiseConfig(),
    )


@st.composite
def placement_instance(draw):
    m_jobs = draw(st.integers(min_value=1, max_value=6))
    n_regions = draw(st.integers(min_value=2, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = np.random.default_rng(seed)
    costs = rng.uniform(0.1, 5.0, size=(m_jobs, n_regions))
    # Guarantee feasibility: total capacity >= number of jobs.
    capacities = rng.integers(0, m_jobs + 1, size=n_regions)
    deficit = m_jobs - int(capacities.sum())
    if deficit > 0:
        capacities[0] += deficit
    return costs, capacities


class TestPlacementMILPs:
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instance=placement_instance())
    def test_backends_agree_and_solutions_feasible(self, instance):
        costs, capacities = instance
        form = _placement_form(costs, capacities)
        native_status, x, native_objective, *_ = solve_standard_form(form, solver="native")
        scipy_status, _x, scipy_objective, *_ = solve_standard_form(form, solver="scipy")
        assert native_status is SolveStatus.OPTIMAL
        assert scipy_status is SolveStatus.OPTIMAL
        assert native_objective == pytest.approx(scipy_objective, rel=1e-6, abs=1e-6)

        # Verify the native solution.
        assignment = x.reshape(costs.shape)
        np.testing.assert_allclose(assignment.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(assignment.sum(axis=0) <= capacities + 1e-6)
        assert native_objective == pytest.approx(float((assignment * costs).sum()), abs=1e-6)

    @settings(max_examples=15, deadline=None)
    @given(
        m_jobs=st.integers(min_value=2, max_value=5),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_infeasible_when_capacity_short(self, m_jobs, seed):
        rng = np.random.default_rng(seed)
        n_regions = 3
        costs = rng.uniform(0.1, 5.0, size=(m_jobs, n_regions))
        capacities = np.zeros(n_regions, dtype=int)
        capacities[0] = m_jobs - 1  # one job too many
        form = _placement_form(costs, capacities)
        for solver in ("native", "scipy"):
            assert solve_standard_form(form, solver=solver)[0] is SolveStatus.INFEASIBLE

    @settings(max_examples=15, deadline=None)
    @given(instance=placement_instance())
    def test_optimal_is_lower_bound_of_greedy(self, instance):
        """The MILP optimum is never worse than a greedy capacity-respecting assignment."""
        costs, capacities = instance
        optimal = solve_standard_form(_placement_form(costs, capacities))[2]

        remaining = capacities.astype(float).copy()
        greedy_total = 0.0
        for m in range(costs.shape[0]):
            order = np.argsort(costs[m])
            for n in order:
                if remaining[n] >= 1.0:
                    remaining[n] -= 1.0
                    greedy_total += costs[m, n]
                    break
        assert optimal <= greedy_total + 1e-6

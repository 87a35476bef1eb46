"""Hypothesis cross-check of the sparse/warm-started native solver core.

Random LPs and MILPs are solved three ways — native branch & bound over the
revised simplex, the dense tableau reference (:func:`solve_lp_arrays`), and
SciPy/HiGHS — and must agree on status and optimum.  Dedicated properties
cover the degenerate, infeasible, unbounded and warm-start-after-perturbation
cases the WaterWise rounds actually produce.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.milp.branch_and_bound import solve_milp_arrays
from repro.milp.problem import StandardForm
from repro.milp.revised_simplex import solve_lp_revised
from repro.milp.scipy_backend import scipy_lp_backend, solve_form_scipy
from repro.milp.status import SolveStatus

from .forms import standard_form
from .simplex import solve_lp_arrays

_SETTINGS = dict(max_examples=40, deadline=None)


@st.composite
def lp_instances(draw, allow_eq=True, integer=False):
    """Small random LP/MILP instances with mixed bound shapes."""
    n = draw(st.integers(1, 6))
    m_ub = draw(st.integers(0, 4))
    m_eq = draw(st.integers(0, 2)) if allow_eq else 0
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.normal(size=n).round(2)
    a_ub = rng.normal(size=(m_ub, n)).round(2)
    b_ub = rng.normal(size=m_ub).round(2)
    a_eq = rng.normal(size=(m_eq, n)).round(2)
    b_eq = rng.normal(size=m_eq).round(2)
    if integer:
        lower = np.zeros(n)
        upper = rng.integers(1, 5, n).astype(float)
        integrality = rng.random(n) < 0.7
    else:
        lower = np.where(rng.random(n) < 0.2, -np.inf, rng.uniform(-2, 0, n).round(2))
        upper = np.where(rng.random(n) < 0.2, np.inf, rng.uniform(0, 2, n).round(2))
        upper = np.maximum(upper, lower)
        integrality = np.zeros(n, dtype=bool)
    return standard_form(
        c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, lower=lower, upper=upper,
        integrality=integrality,
    )


def _scipy_reference(form: StandardForm):
    """SciPy/HiGHS reference ``(status, objective)`` for ``form``.

    :func:`solve_form_scipy` re-solves the continuous columns of a
    mixed-integer answer with its snapped integers fixed, so its objective is
    that of a feasible point, not one inside HiGHS's tolerances.
    """
    status, _x, objective = solve_form_scipy(form)[:3]
    return status, objective


def _assert_backends_agree(form: StandardForm):
    reference = _scipy_reference(form)
    if reference[0] is SolveStatus.ERROR:
        # HiGHS occasionally reports integer-infeasible equality systems as
        # "other" rather than "infeasible"; there is no reference answer to
        # compare against then.  (The native core is separately validated by
        # brute force on small all-integer instances below.)
        return
    native = solve_milp_arrays(form)
    assert native.status == reference[0], (native.status, reference[0])
    if reference[0] is SolveStatus.OPTIMAL:
        assert native.objective == pytest.approx(reference[1], abs=1e-6)
        x = native.x
        # The native point must satisfy the problem.
        assert np.all(x >= form.lower - 1e-6) and np.all(x <= form.upper + 1e-6)
        if form.a_ub.shape[0]:
            assert np.all(form.a_ub @ x <= form.b_ub + 1e-6)
        if form.a_eq.shape[0]:
            assert np.all(np.abs(form.a_eq @ x - form.b_eq) <= 1e-6)
        assert np.all(np.abs(x[form.integrality] - np.round(x[form.integrality])) <= 1e-6)


class TestRandomProblems:
    @settings(**_SETTINGS)
    @given(form=lp_instances())
    # The equality rows shrink both boxes around the one feasible region near
    # x ≈ (-0.4194, 0.9280); optimum 0.63056.
    @example(form=standard_form(
        [-1.57, -0.03],
        a_ub=[[-0.88, -0.6]], b_ub=[0.12],
        a_eq=[[0.9, 0.73], [0.13, 2.02]], b_eq=[0.3, 1.82],
        lower=[-1.45, -1.38], upper=[0.13, 1.67],
    ))
    def test_random_lps_agree_across_backends(self, form):
        _assert_backends_agree(form)
        # ... and the revised simplex standalone agrees with the dense tableau.
        revised, _ = solve_lp_revised(
            form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq, form.lower, form.upper
        )
        dense = solve_lp_arrays(
            form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq, form.lower, form.upper
        )
        assert revised.status == dense.status
        if dense.status is SolveStatus.OPTIMAL:
            assert revised.objective == pytest.approx(dense.objective, abs=1e-6)

    @settings(**_SETTINGS)
    @given(form=lp_instances(integer=True))
    # HiGHS stops inside its integrality tolerance here: snapping x3 to 3
    # leaves its x1 off the equality by 9.5e-7 and 1e-6 below the optimum.
    @example(form=standard_form(
        [0.85, 1.32, 0.13, -2.08],
        a_eq=[[-0.56, 1.25, -1.41, -1.13]], b_eq=[-0.68],
        upper=[1.0, 4.0, 4.0, 3.0], integrality=[False, False, False, True],
    ))
    def test_random_milps_agree_across_backends(self, form):
        _assert_backends_agree(form)


class TestBruteForceGroundTruth:
    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_native_matches_exhaustive_enumeration(self, seed):
        # All-integer, equality-constrained instances are exactly the shape
        # where HiGHS sometimes refuses a verdict — enumerate the (small)
        # integer grid as ground truth instead of trusting any solver.
        import itertools

        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        m_eq = int(rng.integers(1, 3))
        c = rng.normal(size=n).round(2)
        a_eq = rng.normal(size=(m_eq, n)).round(2)
        b_eq = rng.normal(size=m_eq).round(2)
        upper = rng.integers(1, 4, n).astype(float)
        form = standard_form(c, a_eq=a_eq, b_eq=b_eq, upper=upper, integrality=True)
        native = solve_milp_arrays(form)
        best = None
        for point in itertools.product(*[range(int(u) + 1) for u in upper]):
            x = np.asarray(point, dtype=float)
            if np.all(np.abs(a_eq @ x - b_eq) <= 1e-9):
                value = float(c @ x)
                best = value if best is None else min(best, value)
        if best is None:
            assert native.status is SolveStatus.INFEASIBLE
        else:
            assert native.status is SolveStatus.OPTIMAL
            assert native.objective == pytest.approx(best, abs=1e-6)


class TestDegenerateShapes:
    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 2**32 - 1), dup=st.integers(2, 4))
    def test_duplicated_rows_stay_consistent(self, seed, dup):
        # Duplicate rows create degenerate vertices — the classic cycling trap.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        row = rng.normal(size=n).round(2)
        rhs = float(rng.uniform(0.5, 2.0))
        a_ub = np.tile(row, (dup, 1))
        b_ub = np.full(dup, rhs)
        c = rng.normal(size=n).round(2)
        lower, upper = np.zeros(n), np.ones(n)
        revised, _ = solve_lp_revised(c, a_ub, b_ub, np.zeros((0, n)), np.zeros(0), lower, upper)
        reference = scipy_lp_backend(c, a_ub, b_ub, np.zeros((0, n)), np.zeros(0), lower, upper)
        assert revised.status == reference.status
        if reference.status is SolveStatus.OPTIMAL:
            assert revised.objective == pytest.approx(reference.objective, abs=1e-6)

    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_contradictory_rows_are_infeasible(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        row = rng.normal(size=n).round(2) + 0.1
        a_ub = np.vstack([row, -row])
        b_ub = np.array([1.0, -2.0])  # row@x <= 1 and row@x >= 2
        sol, _ = solve_lp_revised(
            rng.normal(size=n), a_ub, b_ub, np.zeros((0, n)), np.zeros(0),
            np.full(n, -5.0), np.full(n, 5.0),
        )
        assert sol.status is SolveStatus.INFEASIBLE

    @settings(**_SETTINGS)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_free_negative_cost_direction_is_unbounded(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        c = -np.abs(rng.normal(size=n)) - 0.1
        sol, _ = solve_lp_revised(
            c, np.zeros((0, n)), np.zeros(0), np.zeros((0, n)), np.zeros(0),
            np.zeros(n), np.full(n, np.inf),
        )
        assert sol.status is SolveStatus.UNBOUNDED


class TestWarmStartAfterPerturbation:
    @settings(**_SETTINGS)
    @given(form=lp_instances(allow_eq=False), seed=st.integers(0, 2**32 - 1))
    def test_perturbed_problem_resolves_identically_warm_or_cold(self, form, seed):
        first, basis = solve_lp_revised(
            form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq, form.lower, form.upper
        )
        if first.status is not SolveStatus.OPTIMAL or basis is None:
            return
        rng = np.random.default_rng(seed)
        # Perturb costs and tighten a random finite upper bound, as a new
        # scheduling round (or a branching step) would.
        c2 = form.c + rng.normal(scale=0.05, size=len(form.c)).round(3)
        upper2 = form.upper.copy()
        finite = np.flatnonzero(np.isfinite(upper2))
        if finite.size:
            j = int(finite[rng.integers(0, finite.size)])
            upper2[j] = max(form.lower[j], upper2[j] - abs(rng.normal(scale=0.3)))
        warm, _ = solve_lp_revised(
            c2, form.a_ub, form.b_ub, form.a_eq, form.b_eq, form.lower, upper2,
            basis=basis,
        )
        cold, _ = solve_lp_revised(
            c2, form.a_ub, form.b_ub, form.a_eq, form.b_eq, form.lower, upper2
        )
        assert warm.status == cold.status
        if cold.status is SolveStatus.OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-6)

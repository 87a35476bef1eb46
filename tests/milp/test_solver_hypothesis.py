"""Hypothesis cross-check of the sparse/warm-started native solver core.

Random LPs and MILPs are solved three ways — the presolve + revised-simplex
native core, the dense tableau reference (:func:`solve_lp_arrays`), and
SciPy/HiGHS — and must agree on status and optimum.  Dedicated properties
cover the degenerate, infeasible, unbounded and warm-start-after-perturbation
cases the WaterWise rounds actually produce.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import optimize

from repro.milp.presolve import presolve
from repro.milp.problem import StandardForm
from repro.milp.revised_simplex import solve_lp_revised
from repro.milp.scipy_backend import scipy_lp_backend, solve_form_scipy
from repro.milp.simplex import solve_lp_arrays
from repro.milp.solver import solve_standard_form
from repro.milp.status import SolveStatus

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
    return StandardForm(
        variables=(), c=c, c0=0.0, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
        lower=lower, upper=upper, integrality=integrality, maximize=False,
    )


def _scipy_reference(form: StandardForm):
    """SciPy/HiGHS reference ``(status, objective)`` for ``form``.

    :func:`solve_form_scipy` snaps the integer columns of a mixed-integer
    answer to the nearest integers but keeps HiGHS's continuous columns,
    which were computed for the unsnapped values.  Inside HiGHS's
    integrality tolerance that point can miss an equality by ~1e-6 and
    undercut the true optimum by as much.  So the continuous columns are
    re-solved (``linprog``) with the snapped integers fixed, and that LP's
    objective is the reference.
    """
    status, x, objective = solve_form_scipy(form)[:3]
    integer = form.integrality
    if status is not SolveStatus.OPTIMAL or not integer.any() or integer.all():
        return status, objective
    lower = np.where(integer, x, form.lower)
    upper = np.where(integer, x, form.upper)
    polished = optimize.linprog(
        form.c,
        A_ub=form.a_ub if form.a_ub.shape[0] else None,
        b_ub=form.b_ub if form.a_ub.shape[0] else None,
        A_eq=form.a_eq if form.a_eq.shape[0] else None,
        b_eq=form.b_eq if form.a_eq.shape[0] else None,
        bounds=list(zip(lower, upper)),
        method="highs",
    )
    if polished.status != 0:
        # No feasible continuous completion for the snapped integers: keep
        # HiGHS's own objective (the comparison is then as strict as before).
        return status, objective
    return status, form.objective_value(polished.x)


def _assert_backends_agree(form: StandardForm):
    reference = _scipy_reference(form)
    if reference[0] is SolveStatus.ERROR:
        # HiGHS occasionally reports integer-infeasible equality systems as
        # "other" rather than "infeasible"; there is no reference answer to
        # compare against then.  (The native core is separately validated by
        # brute force on small all-integer instances below.)
        return
    native = solve_standard_form(form, solver="native")
    assert native[0] == reference[0], (native[0], reference[0])
    if reference[0] is SolveStatus.OPTIMAL:
        assert native[2] == pytest.approx(reference[1], abs=1e-6)
        x = native[1]
        # The native point must satisfy the original, unreduced problem.
        assert np.all(x >= form.lower - 1e-6) and np.all(x <= form.upper + 1e-6)
        if form.a_ub.shape[0]:
            assert np.all(form.a_ub @ x <= form.b_ub + 1e-6)
        if form.a_eq.shape[0]:
            assert np.all(np.abs(form.a_eq @ x - form.b_eq) <= 1e-6)
        assert np.all(np.abs(x[form.integrality] - np.round(x[form.integrality])) <= 1e-6)


class TestRandomProblems:
    @settings(**_SETTINGS)
    @given(form=lp_instances())
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
    @example(form=StandardForm(
        variables=(), c=np.array([0.85, 1.32, 0.13, -2.08]), c0=0.0,
        a_ub=np.zeros((0, 4)), b_ub=np.zeros(0),
        a_eq=np.array([[-0.56, 1.25, -1.41, -1.13]]), b_eq=np.array([-0.68]),
        lower=np.zeros(4), upper=np.array([1.0, 4.0, 4.0, 3.0]),
        integrality=np.array([False, False, False, True]), maximize=False,
    ))
    def test_random_milps_agree_across_backends(self, form):
        _assert_backends_agree(form)

    @settings(**_SETTINGS)
    @given(form=lp_instances())
    def test_presolve_preserves_the_optimum(self, form):
        pre = presolve(form)
        reference = solve_form_scipy(form)
        if pre.infeasible:
            assert reference[0] is SolveStatus.INFEASIBLE
            return
        if reference[0] is not SolveStatus.OPTIMAL:
            return
        if pre.num_variables == 0:
            x = pre.postsolve(np.zeros(0))
        else:
            sol, _ = solve_lp_revised(
                pre.c, pre.a_ub, pre.b_ub, pre.a_eq, pre.b_eq, pre.lower, pre.upper
            )
            assert sol.status is SolveStatus.OPTIMAL
            x = pre.postsolve(sol.x)
        assert form.objective_value(x) == pytest.approx(reference[2], abs=1e-6)


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
        form = StandardForm(
            variables=(), c=c, c0=0.0, a_ub=np.zeros((0, n)), b_ub=np.zeros(0),
            a_eq=a_eq, b_eq=b_eq, lower=np.zeros(n), upper=upper,
            integrality=np.ones(n, dtype=bool), maximize=False,
        )
        native = solve_standard_form(form, solver="native")
        best = None
        for point in itertools.product(*[range(int(u) + 1) for u in upper]):
            x = np.asarray(point, dtype=float)
            if np.all(np.abs(a_eq @ x - b_eq) <= 1e-9):
                value = float(c @ x)
                best = value if best is None else min(best, value)
        if best is None:
            assert native[0] is SolveStatus.INFEASIBLE
        else:
            assert native[0] is SolveStatus.OPTIMAL
            assert native[2] == pytest.approx(best, abs=1e-6)


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

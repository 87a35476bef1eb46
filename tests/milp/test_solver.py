"""Tests for :func:`solve_standard_form`'s contract and for the two general
engines behind it — native branch & bound over the revised simplex, and
SciPy/HiGHS — on small problems with known answers."""

import dataclasses

import numpy as np
import pytest

from repro.core.config import WaterWiseConfig
from repro.core.objective import build_placement_form
from repro.milp import SolveStatus, solve_standard_form
from repro.milp.branch_and_bound import solve_milp_arrays
from repro.milp.scipy_backend import solve_form_scipy

from .forms import standard_form


def _native(form):
    result = solve_milp_arrays(form)
    return result.status, result.x, result.objective


def _highs(form):
    return solve_form_scipy(form)[:3]


_ENGINES = {"native": _native, "highs": _highs}


def _production_lp():
    # Furniture-shop LP: max 40 tables + 30 chairs (minimized negated),
    # wood/labor constraints.
    return standard_form(
        [-40.0, -30.0], a_ub=[[2.0, 1.0], [1.0, 1.0]], b_ub=[100.0, 80.0],
    )


def _facility_milp():
    # Tiny facility-location MILP with a known optimum.  Variables: open_a,
    # open_b, then serve_{c1,c2}_{a,b}.
    return standard_form(
        [10.0, 10.0, 1.0, 4.0, 5.0, 1.0],
        # A client is served only by an open facility: serve_c_f - open_f <= 0.
        a_ub=[
            [-1.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, 0.0, 1.0, 0.0, 0.0],
            [-1.0, 0.0, 0.0, 0.0, 1.0, 0.0],
            [0.0, -1.0, 0.0, 0.0, 0.0, 1.0],
        ],
        b_ub=[0.0, 0.0, 0.0, 0.0],
        # Each client is served exactly once.
        a_eq=[[0.0, 0.0, 1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 1.0, 1.0]],
        b_eq=[1.0, 1.0],
        upper=1.0,
        integrality=True,
    )


class TestSolveStandardForm:
    def test_solves_built_placement_forms(self):
        form = build_placement_form(
            np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]]), np.array([1.0]),
            np.array([1.0]), np.array([4.0, 4.0]), WaterWiseConfig(),
        )
        status, x, objective, *_ = solve_standard_form(form)
        assert status is SolveStatus.OPTIMAL
        assert x == pytest.approx([1.0, 0.0])
        assert objective == pytest.approx(1.0)

    def test_result_begins_with_status_x_objective_iterations(self):
        # Callers (the decision controller, span tracing) read the first four
        # entries.  Every job prefers region 0, which has room for two of the
        # six, so the solve runs the LP relaxation and reports its iterations.
        cost = np.tile([1.0, 2.0, 3.0], (6, 1)) + np.arange(6)[:, None] * 0.1
        form = build_placement_form(
            cost, np.zeros((6, 3)), np.ones(6), np.ones(6), np.array([2.0, 4.0, 4.0]),
            WaterWiseConfig(),
        )
        status, x, objective, iterations, nodes, seconds = solve_standard_form(form)
        assert status is SolveStatus.OPTIMAL
        assert x.shape == (form.num_variables,)
        assert objective == pytest.approx(form.c @ x)
        assert isinstance(iterations, int) and iterations > 0
        assert nodes == 0  # the relaxation was integral
        assert seconds >= 0.0

    @pytest.mark.parametrize("kind", ["lp", "milp", "copy"])
    def test_rejects_forms_build_placement_form_did_not_build(self, kind):
        placement = build_placement_form(
            np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]]), np.array([1.0]),
            np.array([1.0]), np.array([4.0, 4.0]), WaterWiseConfig(),
        )
        # A copy has the same arrays, but carries no placement structure.
        form = {"lp": _production_lp, "milp": _facility_milp,
                "copy": lambda: dataclasses.replace(placement)}[kind]()
        with pytest.raises(ValueError, match="build_placement_form"):
            solve_standard_form(form)


@pytest.mark.parametrize("engine", list(_ENGINES))
class TestGeneralEngines:
    def test_lp(self, engine):
        status, x, objective = _ENGINES[engine](_production_lp())
        assert status is SolveStatus.OPTIMAL
        # Optimum at the intersection of both constraints: 20 tables, 60 chairs.
        assert objective == pytest.approx(-2600.0)
        assert x == pytest.approx([20.0, 60.0])

    def test_milp(self, engine):
        status, x, objective = _ENGINES[engine](_facility_milp())
        assert status is SolveStatus.OPTIMAL
        # Cheapest: open only facility b (10) and serve c1 (4) and c2 (1) from it.
        assert objective == pytest.approx(15.0)
        assert x[1] == pytest.approx(1.0)
        assert x[0] == pytest.approx(0.0)

    def test_infeasible_has_no_solution(self, engine):
        # x in [0, 1] with x >= 2.
        form = standard_form([1.0], a_ub=[[-1.0]], b_ub=[-2.0], upper=[1.0])
        status, x, objective = _ENGINES[engine](form)
        assert status is SolveStatus.INFEASIBLE
        assert np.isnan(x).all()
        assert np.isnan(objective)

    @pytest.mark.parametrize("integer", [False, True], ids=["lp", "milp"])
    def test_crossed_bounds_are_infeasible(self, engine, integer):
        # The first variable's lower bound exceeds its upper bound; the row
        # alone is satisfiable.
        form = standard_form(
            [1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[4.0], lower=[2.0, 0.0], upper=[1.0, 3.0],
            integrality=integer,
        )
        status, x, _objective = _ENGINES[engine](form)
        assert status is SolveStatus.INFEASIBLE
        assert np.isnan(x).all()

    def test_unbounded_lp_has_no_solution(self, engine):
        # min -x with x unbounded above; y is capped by its row.
        form = standard_form([-1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[4.0])
        status, x, _objective = _ENGINES[engine](form)
        assert status is SolveStatus.UNBOUNDED
        assert np.isnan(x).all()

    def test_integer_bound_gap_is_infeasible(self, engine):
        # The integer x must lie in [0.2, 0.8]: the box holds no integer.
        form = standard_form(
            [1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[4.0], lower=[0.2, 0.0], upper=[0.8, 3.0],
            integrality=True,
        )
        status, x, objective = _ENGINES[engine](form)
        assert status is SolveStatus.INFEASIBLE
        assert np.isnan(x).all()
        assert np.isnan(objective)

    def test_redundant_equality_rows(self, engine):
        # The second and third equality rows repeat the first (rank 1), so the
        # equality block is singular; the optimum is still x = 1, y = 2, z = 0.
        form = standard_form(
            [1.0, 2.0, 3.0], a_ub=[[1.0, 0.0, 0.0]], b_ub=[1.0],
            a_eq=[[1.0, 1.0, 1.0], [1.0, 1.0, 1.0], [2.0, 2.0, 2.0]], b_eq=[3.0, 3.0, 6.0],
            upper=5.0,
        )
        status, x, objective = _ENGINES[engine](form)
        assert status is SolveStatus.OPTIMAL
        assert objective == pytest.approx(5.0)
        assert x == pytest.approx([1.0, 2.0, 0.0])

    def test_fixed_variables_keep_their_values(self, engine):
        # The integer x and the continuous z are fixed by equal bounds; only
        # the integer y is free to move.
        form = standard_form(
            [1.0, -2.0, 3.0], a_ub=[[1.0, 1.0, 1.0]], b_ub=[6.0],
            lower=[2.0, 0.0, 1.0], upper=[2.0, 10.0, 1.0], integrality=[True, True, False],
        )
        status, x, objective = _ENGINES[engine](form)
        assert status is SolveStatus.OPTIMAL
        assert x == pytest.approx([2.0, 3.0, 1.0])
        assert objective == pytest.approx(-1.0)

    def test_fractional_relaxation_reaches_the_integer_optimum(self, engine):
        # Knapsack: max 10a + 13b + 7c with 4a + 6b + 3c <= 9 over binaries.
        # The relaxation takes a and c whole and b = 1/3 (21.33); the integer
        # optimum is b and c (20).
        form = standard_form(
            [-10.0, -13.0, -7.0], a_ub=[[4.0, 6.0, 3.0]], b_ub=[9.0], upper=1.0,
            integrality=True,
        )
        status, x, objective = _ENGINES[engine](form)
        assert status is SolveStatus.OPTIMAL
        assert x == pytest.approx([0.0, 1.0, 1.0])
        assert objective == pytest.approx(-20.0)

    def test_free_variables(self, engine):
        # min x + 2y over free x, y with y - x <= 2, x + y >= 1 and x <= 3:
        # y = 1 - x on the binding row, so x goes to its cap.
        form = standard_form(
            [1.0, 2.0], a_ub=[[-1.0, 1.0], [-1.0, -1.0], [1.0, 0.0]], b_ub=[2.0, -1.0, 3.0],
            lower=-np.inf,
        )
        status, x, objective = _ENGINES[engine](form)
        assert status is SolveStatus.OPTIMAL
        assert x == pytest.approx([3.0, -2.0])
        assert objective == pytest.approx(-1.0)

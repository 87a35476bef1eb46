"""Tests for the :func:`solve_standard_form` dispatch across backends."""

import numpy as np
import pytest

from repro.milp import SolveStatus, solve_standard_form

from .forms import standard_form


def _production_lp():
    # Furniture-shop LP: max 40 tables + 30 chairs, wood/labor constraints.
    return standard_form(
        [40.0, 30.0], a_ub=[[2.0, 1.0], [1.0, 1.0]], b_ub=[100.0, 80.0], maximize=True,
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


class TestSolveDispatch:
    @pytest.mark.parametrize("solver", ["auto", "scipy", "native"])
    def test_lp_all_backends_agree(self, solver):
        status, x, objective, *_ = solve_standard_form(_production_lp(), solver=solver)
        assert status is SolveStatus.OPTIMAL
        # Optimum at the intersection of both constraints: 20 tables, 60 chairs.
        assert objective == pytest.approx(2600.0)
        assert x == pytest.approx([20.0, 60.0])

    @pytest.mark.parametrize("solver", ["auto", "scipy", "native"])
    def test_milp_all_backends_agree(self, solver):
        status, x, objective, *_ = solve_standard_form(_facility_milp(), solver=solver)
        assert status is SolveStatus.OPTIMAL
        # Cheapest: open only facility b (10) and serve c1 (4) and c2 (1) from it.
        assert objective == pytest.approx(15.0)
        assert x[1] == pytest.approx(1.0)
        assert x[0] == pytest.approx(0.0)

    @pytest.mark.parametrize("solver", ["auto", "scipy", "native"])
    def test_infeasible_has_no_solution(self, solver):
        # x in [0, 1] with x >= 2.
        form = standard_form([1.0], a_ub=[[-1.0]], b_ub=[-2.0], upper=[1.0])
        status, x, objective, *_ = solve_standard_form(form, solver=solver)
        assert status is SolveStatus.INFEASIBLE
        assert np.isnan(x).all()
        assert np.isnan(objective)

    @pytest.mark.parametrize("integer", [False, True], ids=["lp", "milp"])
    @pytest.mark.parametrize("solver", ["auto", "scipy", "native"])
    def test_crossed_bounds_are_infeasible(self, solver, integer):
        # The first variable's lower bound exceeds its upper bound; the row
        # alone is satisfiable.
        form = standard_form(
            [1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[4.0], lower=[2.0, 0.0], upper=[1.0, 3.0],
            integrality=integer,
        )
        status, x, *_ = solve_standard_form(form, solver=solver)
        assert status is SolveStatus.INFEASIBLE
        assert np.isnan(x).all()

    @pytest.mark.parametrize("solver", ["auto", "scipy", "native"])
    def test_unbounded_lp_has_no_solution(self, solver):
        # min -x with x unbounded above; y is capped by its row.
        form = standard_form([-1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[4.0])
        status, x, *_ = solve_standard_form(form, solver=solver)
        assert status is SolveStatus.UNBOUNDED
        assert np.isnan(x).all()

    def test_unknown_solver_rejected(self):
        with pytest.raises(ValueError):
            solve_standard_form(_production_lp(), solver="gurobi")

    def test_solver_name_recorded(self):
        assert solve_standard_form(_production_lp(), solver="native")[5] == "native"
        assert solve_standard_form(_production_lp(), solver="scipy")[5] == "scipy"

    def test_maximize_sense_round_trip(self):
        # max 5x + 1 over the integers 0..3.
        form = standard_form([5.0], c0=1.0, upper=[3.0], integrality=[True], maximize=True)
        for solver in ("scipy", "native"):
            status, x, objective, *_ = solve_standard_form(form, solver=solver)
            assert objective == pytest.approx(16.0)
            assert x[0] == pytest.approx(3.0)

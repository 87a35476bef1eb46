"""Unit tests for the sparse presolve pass (:mod:`repro.milp.presolve`)."""

import numpy as np
import pytest

from repro.core.config import WaterWiseConfig
from repro.core.objective import build_placement_form
from repro.milp.presolve import presolve
from repro.milp.scipy_backend import solve_form_scipy
from repro.milp.solver import solve_standard_form
from repro.milp.status import SolveStatus

from .forms import standard_form


class TestFixedVariableElimination:
    def test_fixed_column_removed_and_substituted(self):
        form = standard_form(
            c=[1.0, 2.0],
            a_ub=[[1.0, 1.0]], b_ub=[5.0],
            lower=[3.0, 0.0], upper=[3.0, 10.0],
        )
        pre = presolve(form)
        assert not pre.infeasible
        assert pre.num_variables == 1
        assert pre.c0 == pytest.approx(3.0)  # c[0] * 3
        # rhs shrinks by the fixed contribution: x1 <= 2
        assert pre.upper[0] <= 2.0 + 1e-9

    def test_postsolve_restores_fixed_values(self):
        form = standard_form(c=[1.0, 1.0], lower=[2.5, 0.0], upper=[2.5, 1.0])
        pre = presolve(form)
        x = pre.postsolve(np.array([0.75]))
        assert x == pytest.approx([2.5, 0.75])

    def test_continuous_column_collapsed_by_tightening_is_kept(self):
        # x + y = 2 inside the unit box forces x = y = 1 by tightening alone.
        # Only integer columns and columns fixed on input are substituted
        # out; these continuous ones stay for the solver to settle.
        form = standard_form(c=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[2.0], upper=[1.0, 1.0])
        pre = presolve(form)
        assert not pre.infeasible
        assert list(pre.kept_cols) == [0, 1]
        assert pre.lower == pytest.approx([1.0, 1.0])
        status, x, objective, *_ = solve_standard_form(form, solver="native")
        assert status is SolveStatus.OPTIMAL
        assert x == pytest.approx([1.0, 1.0])
        assert objective == pytest.approx(2.0)

    def test_integer_column_collapsed_by_tightening_is_eliminated(self):
        form = standard_form(
            c=[1.0, 1.0], a_eq=[[1.0, 1.0]], b_eq=[2.0], upper=[1.0, 1.0],
            integrality=[True, True],
        )
        pre = presolve(form)
        assert not pre.infeasible
        assert pre.num_variables == 0
        assert pre.c0 == pytest.approx(2.0)
        assert pre.postsolve(np.zeros(0)) == pytest.approx([1.0, 1.0])

    def test_everything_fixed_solves_in_dispatch(self):
        form = standard_form(c=[1.0, -1.0], lower=[2.0, 3.0], upper=[2.0, 3.0])
        status, x, objective, _it, _nodes, solver, _t = solve_standard_form(
            form, solver="native"
        )
        assert status is SolveStatus.OPTIMAL
        assert solver == "native"
        assert x == pytest.approx([2.0, 3.0])
        assert objective == pytest.approx(-1.0)


class TestBoundTightening:
    def test_continuous_upper_from_row(self):
        # 2x + y <= 4 with y >= 0 implies x <= 2.
        form = standard_form(c=[-1.0, 0.0], a_ub=[[2.0, 1.0]], b_ub=[4.0])
        pre = presolve(form)
        assert pre.stats.bounds_tightened >= 1

    def test_narrow_continuous_box_is_left_alone(self):
        # 1000 x <= 1e-6 implies x <= 1e-9.  A box of width 1e-8 already pins
        # x (narrower than 1e-7 relative), so presolve does not shrink it
        # further; the same row does tighten a wide or unbounded box.
        row = dict(c=[1.0], a_ub=[[1000.0]], b_ub=[1e-6])
        narrow = presolve(standard_form(upper=[1e-8], **row))
        assert narrow.stats.bounds_tightened == 0
        assert narrow.upper[0] == 1e-8
        for upper in (1.0, np.inf):
            wide = presolve(standard_form(upper=[upper], **row))
            assert wide.stats.bounds_tightened == 1
            assert wide.upper == pytest.approx([1e-9], rel=1e-12)

    def test_integer_rounding_fixes_binary(self):
        # 0.8 x <= 0.5 for binary x implies x <= 0.625 → x = 0 after rounding.
        form = standard_form(
            c=[1.0], a_ub=[[0.8]], b_ub=[0.5], upper=[1.0], integrality=[True]
        )
        pre = presolve(form)
        assert pre.num_variables == 0  # fixed to zero and eliminated
        assert pre.postsolve(np.zeros(0)) == pytest.approx([0.0])

    def test_tightening_never_cuts_the_optimum(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(2, 6))
            form = standard_form(
                c=rng.normal(size=n).round(2),
                a_ub=rng.normal(size=(3, n)).round(2),
                b_ub=rng.uniform(0.5, 3.0, 3).round(2),
                lower=np.zeros(n),
                upper=rng.uniform(0.5, 4.0, n).round(2),
            )
            reference = solve_form_scipy(form)
            native = solve_standard_form(form, solver="native")
            assert native[0] == reference[0]
            if reference[0] is SolveStatus.OPTIMAL:
                assert native[2] == pytest.approx(reference[2], abs=1e-7)


class TestRedundancyAndInfeasibility:
    def test_redundant_row_removed(self):
        # x + y <= 100 can never bind inside the unit box.
        form = standard_form(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[100.0], upper=[1.0, 1.0])
        pre = presolve(form)
        assert pre.a_ub.shape[0] == 0
        assert pre.stats.rows_after < pre.stats.rows_before

    def test_crossed_bounds_infeasible(self):
        form = standard_form(c=[1.0], lower=[2.0], upper=[1.0])
        assert presolve(form).infeasible

    def test_row_activity_infeasible(self):
        # x + y >= 5 (as -x - y <= -5) inside the unit box is impossible.
        form = standard_form(
            c=[1.0, 1.0], a_ub=[[-1.0, -1.0]], b_ub=[-5.0], upper=[1.0, 1.0]
        )
        assert presolve(form).infeasible

    def test_integer_bound_gap_infeasible(self):
        # 1.2 <= x <= 1.8 contains no integer.
        form = standard_form(c=[1.0], lower=[1.2], upper=[1.8], integrality=[True])
        assert presolve(form).infeasible


class TestPlacementFormReduction:
    def test_hard_delay_rows_fix_forbidden_binaries(self):
        cost = np.array([[1.0, 2.0], [2.0, 1.0]])
        latency = np.array([[0.1, 5.0], [0.2, 0.3]])
        tolerance = np.array([0.5, 0.5])
        form = build_placement_form(
            cost, latency, tolerance, np.array([1.0, 1.0]), np.array([2.0, 2.0]),
            WaterWiseConfig(),
        )
        pre = presolve(form)
        assert not pre.infeasible
        # x[0, 1] (ratio 5.0 > 0.5) must be fixed to zero and eliminated.
        assert 1 not in pre.kept_cols
        assert pre.fixed_values[1] == pytest.approx(0.0)

    def test_presolve_stats_ratios(self):
        form = standard_form(c=[1.0, 1.0], a_ub=[[1.0, 1.0]], b_ub=[100.0], upper=[1.0, 1.0])
        pre = presolve(form)
        assert 0.0 <= pre.stats.row_ratio < 1.0
        assert pre.stats.col_ratio == pytest.approx(1.0)

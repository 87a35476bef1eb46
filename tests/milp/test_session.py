"""Tests for :class:`~repro.milp.session.SolverSession`, the dispatch rewire
(`time_limit` on the native path, narrowed SciPy fallback) and branch & bound
determinism."""

import sys

import numpy as np
import pytest

from repro.core.config import WaterWiseConfig
from repro.core.decision import DecisionController
from repro.core.objective import build_placement_form
from repro.milp import SolverSession
from repro.milp.branch_and_bound import solve_milp_arrays
from repro.milp.revised_simplex import Basis
from repro.milp.solver import solve_standard_form
from repro.milp.status import SolveStatus

from .forms import standard_form


def _lp_form():
    # min -2x - 3y  s.t.  x + y <= 5,  0 <= x <= 4,  y >= 0.
    return standard_form([-2.0, -3.0], a_ub=[[1.0, 1.0]], b_ub=[5.0], upper=[4.0, np.inf])


def _milp_form():
    return standard_form(
        [-1.7, -1.3, -1.1], a_ub=[[1.9, 1.1, 0.9]], b_ub=[4.7], upper=3.0,
        integrality=True,
    )


class TestSolverSession:
    def test_store_and_retrieve(self):
        session = SolverSession()
        basis = Basis(status=np.zeros(3, dtype=np.int8), basic_idx=np.arange(1))
        session.store_basis(("k", 1), basis)
        assert session.basis_for(("k", 1)) is basis
        assert session.basis_for(("other",)) is None
        session.reset()
        assert session.basis_for(("k", 1)) is None

    def test_store_is_bounded(self):
        session = SolverSession()
        basis = Basis(status=np.zeros(3, dtype=np.int8), basic_idx=np.arange(1))
        for i in range(session._MAX_BASES + 10):
            session.store_basis(("k", i), basis)
        assert len(session._bases) == session._MAX_BASES
        # Oldest entries were evicted, newest survive.
        assert session.basis_for(("k", 0)) is None
        assert session.basis_for(("k", session._MAX_BASES + 9)) is basis

    def test_record_lp_accounting(self):
        session = SolverSession()
        session.record_lp(10, warm=False)
        session.record_lp(2, warm=True)
        session.record_lp(4, warm=True)
        stats = session.stats
        assert stats.mean_cold_iterations == pytest.approx(10.0)
        assert stats.mean_warm_iterations == pytest.approx(3.0)
        assert stats.iterations_saved_per_warm_start == pytest.approx(7.0)
        payload = stats.as_dict()
        for key in ("presolve_row_ratio", "iterations_saved_per_warm_start",
                    "wall_time_per_solve_s", "solves"):
            assert key in payload

    def test_native_lp_reuses_bases_across_calls(self):
        session = SolverSession()
        form = _lp_form()
        first = solve_standard_form(form, solver="native", session=session)
        second = solve_standard_form(form, solver="native", session=session)
        assert first[0] is second[0] is SolveStatus.OPTIMAL
        assert session.stats.cold_starts == 1
        assert session.stats.warm_starts == 1
        assert session.stats.warm_iterations == 0  # optimal basis re-verified

    def test_controller_threads_one_session_through_both_paths(self):
        controller = DecisionController(WaterWiseConfig())
        assert controller.session.stats.solves == 0
        rng = np.random.default_rng(0)
        m, n = 6, 3
        cost = rng.uniform(0, 1, (m, n))
        latency = rng.uniform(0, 0.4, (m, n))
        tolerance = np.full(m, 0.5)
        servers = np.ones(m)
        capacity = np.full(n, 10.0)
        choice, soft, fallback, objective = controller.decide_arrays(
            cost, latency, tolerance, servers, capacity, np.zeros(m, dtype=np.int64)
        )
        assert not fallback
        assert np.isfinite(objective)
        assert controller.session.stats.solves == 1
        controller.reset()
        assert controller.session.stats.solves == 0


class TestDispatchContracts:
    def test_time_limit_reaches_the_native_pure_lp_path(self):
        # A zero budget must surface as a limit status, not be dropped.
        status, *_ = solve_standard_form(_lp_form(), solver="native", time_limit=0.0)
        assert status is SolveStatus.ITERATION_LIMIT

    def test_structured_name_degrades_to_native_core(self):
        status, _x, objective, _i, _n, solver, _t = solve_standard_form(
            _lp_form(), solver="structured"
        )
        assert status is SolveStatus.OPTIMAL
        assert solver == "native"

    def test_structured_solver_accepts_placement_forms(self):
        form = build_placement_form(
            np.array([[1.0, 2.0]]), np.array([[0.0, 0.0]]), np.array([1.0]),
            np.array([1.0]), np.array([4.0, 4.0]), WaterWiseConfig(),
        )
        status, _x, _obj, _i, _n, solver, _t = solve_standard_form(
            form, solver="structured"
        )
        assert status is SolveStatus.OPTIMAL
        assert solver == "structured"

    def test_modeling_errors_are_not_swallowed_by_auto(self, monkeypatch):
        import repro.milp.scipy_backend as backend

        def _explode(form, time_limit=None):
            raise ValueError("broken model")

        monkeypatch.setattr(backend, "solve_form_scipy", _explode)
        with pytest.raises(ValueError, match="broken model"):
            solve_standard_form(_lp_form(), solver="auto")

    def test_missing_scipy_falls_back_to_native_once_logged(self, monkeypatch, caplog):
        import repro.milp.solver as solver_mod

        monkeypatch.setitem(sys.modules, "repro.milp.scipy_backend", None)
        monkeypatch.setattr(solver_mod, "_fallback_logged", False)
        with caplog.at_level("WARNING", logger="repro.milp.solver"):
            first = solve_standard_form(_lp_form(), solver="auto")
            second = solve_standard_form(_lp_form(), solver="auto")
        assert first[5] == second[5] == "native"
        assert first[0] is SolveStatus.OPTIMAL
        fallback_logs = [r for r in caplog.records if "falls back" in r.getMessage()]
        assert len(fallback_logs) == 1  # logged once, not once per round

    def test_missing_scipy_raises_for_explicit_scipy(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "repro.milp.scipy_backend", None)
        with pytest.raises(ImportError):
            solve_standard_form(_lp_form(), solver="scipy")


class TestBranchAndBoundDeterminism:
    def test_repeated_solves_are_bit_identical(self):
        form = _milp_form()
        first = solve_milp_arrays(form)
        for _ in range(3):
            again = solve_milp_arrays(form)
            assert again.status == first.status
            assert np.array_equal(again.x, first.x)
            assert again.nodes == first.nodes
            assert again.iterations == first.iterations

    def test_equal_bounds_explore_oldest_node_first(self):
        # Symmetric objective → every node has the same LP bound; the heap
        # must break ties on insertion order (oldest first), making the
        # incumbent deterministic.
        # min sum(x) over four binaries with sum(x) >= 1.5.
        form = standard_form(
            np.ones(4), a_ub=[-np.ones(4)], b_ub=[-1.5], upper=1.0, integrality=True,
        )
        results = {tuple(solve_milp_arrays(form).x) for _ in range(5)}
        assert len(results) == 1

    def test_warm_started_tree_matches_cold_objective(self):
        form = _milp_form()
        session = SolverSession()
        warm = solve_milp_arrays(form, session=session)
        rewarmed = solve_milp_arrays(form, session=session)  # root basis reused
        cold = solve_milp_arrays(form)
        assert warm.status is rewarmed.status is cold.status is SolveStatus.OPTIMAL
        assert warm.objective == pytest.approx(cold.objective)
        assert rewarmed.objective == pytest.approx(cold.objective)

    def test_node_limit_still_reported(self):
        form = _milp_form()
        result = solve_milp_arrays(form, node_limit=1)
        assert result.status in (SolveStatus.NODE_LIMIT, SolveStatus.OPTIMAL)

    def test_node_limit_surrenders_incumbent_through_dispatch(self):
        # When branch & bound stops at the node limit with an incumbent in
        # hand, the native dispatch must return it (with the limit status),
        # not a NaN vector.
        rng = np.random.default_rng(17)
        surrendered = 0
        for _ in range(30):
            n = 8
            values = rng.uniform(1.0, 5.0, n).round(2)
            weights = rng.uniform(1.0, 4.0, n).round(2)
            form = standard_form(
                -values, a_ub=[weights], b_ub=[weights.sum() / 2], upper=1.0,
                integrality=True,
            )
            for node_limit in (3, 5, 8, 12):
                bb = solve_milp_arrays(form, node_limit=node_limit)
                if bb.status is SolveStatus.NODE_LIMIT and np.all(np.isfinite(bb.x)):
                    surrendered += 1
                    status, x, objective, *_ = solve_standard_form(
                        form, solver="native", node_limit=node_limit
                    )
                    assert status is SolveStatus.NODE_LIMIT
                    assert np.all(np.isfinite(x))
                    assert np.isfinite(objective)
                    assert float(weights @ x) <= weights.sum() / 2 + 1e-6
                    break
            if surrendered >= 3:
                break
        assert surrendered >= 1  # the sweep must hit the interesting case

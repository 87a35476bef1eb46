"""Tests for :class:`~repro.milp.session.SolverSession` and branch & bound
determinism."""

import numpy as np
import pytest

from repro.core.config import WaterWiseConfig
from repro.core.decision import DecisionController
from repro.core.objective import build_placement_form
from repro.milp import SolverSession, structure
from repro.milp.branch_and_bound import solve_milp_arrays
from repro.milp.revised_simplex import Basis
from repro.milp.status import SolveStatus
from repro.milp.structure import solve_standard_form

from .forms import standard_form


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
        for key in ("mean_warm_iterations", "iterations_saved_per_warm_start",
                    "wall_time_per_solve_s", "solves"):
            assert key in payload

    def test_placement_relaxation_reuses_bases_across_calls(self):
        # Every job prefers region 0, which has room for two of the six, so
        # each solve needs the (native, 18-variable) LP relaxation.
        cost = np.tile([1.0, 2.0, 3.0], (6, 1)) + np.arange(6)[:, None] * 0.1
        form = build_placement_form(
            cost, np.zeros((6, 3)), np.ones(6), np.ones(6), np.array([2.0, 4.0, 4.0]),
            WaterWiseConfig(),
        )
        session = SolverSession()
        first = solve_standard_form(form, session=session)
        second = solve_standard_form(form, session=session)
        assert first[0] is second[0] is SolveStatus.OPTIMAL
        assert session.stats.structured_lp == 2
        assert session.stats.cold_starts == 1
        assert session.stats.warm_starts == 1
        assert session.stats.warm_iterations == 0  # optimal basis re-verified

    @pytest.mark.parametrize("relaxations", ["highs", "native"])
    def test_only_native_relaxations_keep_a_warm_basis(self, relaxations, monkeypatch):
        # 17 jobs × 3 regions is 51 collapsed variables, above the size gate:
        # with SciPy the relaxation goes to HiGHS, which keeps no basis in
        # the session; on the native side (as without SciPy) the second solve
        # re-verifies the first one's optimal basis.
        pytest.importorskip("scipy")
        if relaxations == "native":
            monkeypatch.setattr(structure, "_scipy_available", lambda: False)
        rng = np.random.default_rng(1)
        m = 17
        cost = rng.uniform(0.0, 1.0, (m, 3)) + np.array([0.0, 1.0, 2.0])
        form = build_placement_form(
            cost, np.zeros((m, 3)), np.ones(m), np.ones(m), np.array([5.0, 6.0, 6.0]),
            WaterWiseConfig(),
        )
        session = SolverSession()
        first = solve_standard_form(form, session=session)
        second = solve_standard_form(form, session=session)
        assert first[0] is second[0] is SolveStatus.OPTIMAL
        assert np.array_equal(first[1], second[1])
        assert session.stats.structured_lp == 2
        stats = session.stats
        if relaxations == "native":
            assert session.basis_for(("placement", m, 3)) is not None
            assert (stats.cold_starts, stats.warm_starts, stats.warm_iterations) == (1, 1, 0)
        else:
            assert session.basis_for(("placement", m, 3)) is None
            assert stats.cold_starts == stats.warm_starts == 0

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

    def test_node_limit_surrenders_incumbent(self):
        # When branch & bound stops at the node limit with an incumbent in
        # hand, it returns it (with the limit status), not a NaN vector.
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
                    assert np.isfinite(bb.objective)
                    assert float(weights @ bb.x) <= weights.sum() / 2 + 1e-6
                    break
            if surrendered >= 3:
                break
        assert surrendered >= 1  # the sweep must hit the interesting case

"""Tests for the placement solve path (:mod:`repro.milp.structure`)."""

import numpy as np
import pytest

from repro.core.config import WaterWiseConfig
from repro.core.objective import build_placement_form
from repro.milp import structure
from repro.milp.branch_and_bound import solve_milp_arrays
from repro.milp.scipy_backend import solve_form_scipy
from repro.milp.session import SolverSession
from repro.milp.status import SolveStatus
from repro.milp.structure import PlacementStructure, solve_standard_form


def _random_instance(rng, m_jobs=None, n_regions=None, tight=False):
    m = int(rng.integers(1, 10)) if m_jobs is None else m_jobs
    n = int(rng.integers(2, 5)) if n_regions is None else n_regions
    cost = rng.uniform(0, 2, (m, n))
    latency = rng.uniform(0, 1.2, (m, n))
    tolerance = rng.uniform(0.2, 1.0, m)
    servers = rng.integers(1, 4, m).astype(float)
    if tight:
        capacity = np.maximum(1.0, np.floor(rng.uniform(0.3, 0.7) * servers.sum() / n)) * np.ones(n)
    else:
        capacity = np.full(n, float(servers.sum()) + 5.0)
    return cost, latency, tolerance, servers, capacity


def _saturated_instance(m, n, seed):
    """Every job is cheapest in region 0, which cannot hold them all, so the
    per-job argmin overflows and the relaxation must run.  Each job's home
    region is within its tolerance; the last seed has less capacity than
    demand, which makes both forms infeasible."""
    rng = np.random.default_rng([m, n, seed])
    cost = rng.uniform(0, 1, (m, n)) + 0.5 * np.arange(n)
    latency = rng.uniform(0, 1, (m, n))
    latency[np.arange(m), rng.integers(0, n, m)] = 0.0
    tolerance = rng.uniform(0.2, 0.8, m)
    servers = rng.integers(1, 4, m)
    if seed == _GATE_SEEDS[-1]:
        capacity = np.full(n, np.floor(0.9 * servers.sum() / n))
    else:
        capacity = np.full(n, np.ceil(1.1 * servers.sum() / n))
    return cost, latency, tolerance, servers, capacity


_GATE_SEEDS = range(6)
#: Shapes whose collapsed problem (jobs × regions) is above the 48-variable gate.
_GATE_SHAPES = [(17, 3), (25, 2), (13, 4), (10, 5), (8, 7)]


@pytest.fixture(params=["highs", "native"])
def relaxation_engine(request, monkeypatch):
    """Which side of the size gate large relaxations take: HiGHS (SciPy
    imports) or the native revised simplex and branch & bound (as on an
    install without SciPy)."""
    pytest.importorskip("scipy")  # the full-form reference
    if request.param == "native":
        monkeypatch.setattr(structure, "_scipy_available", lambda: False)
    return request.param


class TestDetection:
    @pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
    def test_built_forms_carry_the_structure(self, soft):
        rng = np.random.default_rng(2)
        cost, latency, tolerance, servers, capacity = _random_instance(
            rng, m_jobs=4, n_regions=3
        )
        config = WaterWiseConfig(penalty_weight=7.0)
        form = build_placement_form(cost, latency, tolerance, servers, capacity,
                                    config, soft=soft)
        struct = form.__dict__["_placement_structure"]
        assert isinstance(struct, PlacementStructure)
        assert (struct.m_jobs, struct.n_regions, struct.soft) == (4, 3, soft)
        assert struct.penalty_weight == (7.0 if soft else 0.0)
        for name, value in dict(cost=cost, latency_ratio=latency, tolerance=tolerance,
                                servers=servers, capacity=capacity).items():
            assert np.array_equal(getattr(struct, name), value), name
        # The arrays were assembled from these matrices: the capacity rows
        # carry the server demand and the delay rows the latency ratios.
        n_x = 12
        assert np.array_equal(form.a_ub[:3, :n_x].sum(axis=0), np.repeat(servers, 3))
        assert np.array_equal(form.a_ub[3:, :n_x].sum(axis=0), latency.ravel())
        assert np.array_equal(form.b_ub, np.concatenate([capacity, tolerance]))


class TestSizeGate:
    @pytest.mark.parametrize("shape", _GATE_SHAPES, ids=[f"{m}x{n}" for m, n in _GATE_SHAPES])
    @pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
    def test_saturated_rounds_reach_the_full_form_optimum(self, relaxation_engine, soft, shape):
        # Whichever engine the gate picks, the collapsed problem's answer
        # must be the full MILP's: same status, the HiGHS optimum within
        # 1e-9 relative, and a placement that meets every row.
        session = SolverSession()
        optimal = 0
        for seed in _GATE_SEEDS:
            form = build_placement_form(*_saturated_instance(*shape, seed),
                                        WaterWiseConfig(), soft=soft)
            status, x, objective, *_ = solve_standard_form(form, session=session)
            reference, _x, optimum, *_ = solve_form_scipy(form)
            assert status is reference, seed
            if status is not SolveStatus.OPTIMAL:
                continue
            optimal += 1
            assert objective == pytest.approx(optimum, rel=1e-9), seed
            assert objective == pytest.approx(form.c @ x, rel=1e-12), seed
            assert np.all(form.a_ub @ x <= form.b_ub + 1e-9), seed
            assert form.a_eq @ x == pytest.approx(form.b_eq), seed
        stats = session.stats
        assert optimal == len(_GATE_SEEDS) - 1
        # Every instance needed the relaxation, and some of them branched.
        assert stats.structured_trivial == 0
        assert stats.structured_lp == len(_GATE_SEEDS)
        assert stats.structured_bb > 0
        # Only the native engine records its simplex solves in the session.
        lp_solves = stats.cold_starts + stats.warm_starts
        if relaxation_engine == "native":
            assert lp_solves > stats.structured_lp
        else:
            assert lp_solves == 0

    @pytest.mark.parametrize("m_jobs, engine", [(16, "native"), (17, "highs")],
                             ids=["48-variables", "51-variables"])
    def test_only_relaxations_above_48_variables_go_to_highs(self, m_jobs, engine):
        pytest.importorskip("scipy")
        session = SolverSession()
        form = build_placement_form(*_saturated_instance(m_jobs, 3, 0), WaterWiseConfig())
        status, *_ = solve_standard_form(form, session=session)
        assert status is SolveStatus.OPTIMAL
        assert session.stats.structured_lp == 1
        lp_solves = session.stats.cold_starts + session.stats.warm_starts
        assert (lp_solves > 0) == (engine == "native")


class TestSolvePlacement:
    @pytest.mark.parametrize("soft", [False, True])
    def test_matches_full_form_highs_and_branch_and_bound(self, soft):
        # The full (uncollapsed) form solved by HiGHS and by native branch &
        # bound must reach the collapsed path's optimum.
        rng = np.random.default_rng(4)
        optimal = 0
        for trial in range(40):
            tight = trial % 2 == 1
            cost, lat, tol, servers, cap = _random_instance(rng, tight=tight)
            form = build_placement_form(cost, lat, tol, servers, cap,
                                        WaterWiseConfig(), soft=soft)
            s_struct, x, obj, *_ = solve_standard_form(form)
            s_scipy, _x2, obj2, *_ = solve_form_scipy(form)
            bb = solve_milp_arrays(form)
            assert s_struct == s_scipy == bb.status
            if s_struct is SolveStatus.OPTIMAL:
                optimal += 1
                assert obj == pytest.approx(obj2, rel=1e-9)
                assert obj == pytest.approx(bb.objective, abs=1e-7)
                # Exactly one region per job, penalties cover the violations.
                m, n = cost.shape
                placements = x[: m * n].reshape(m, n)
                assert (placements.sum(axis=1) == pytest.approx(1.0))
        assert optimal >= 10  # the sweep must exercise real solves

    def test_all_regions_forbidden_is_infeasible(self):
        cost = np.array([[1.0, 2.0]])
        latency = np.array([[9.0, 9.0]])
        tolerance = np.array([0.5])
        form = build_placement_form(
            cost, latency, tolerance, np.array([1.0]), np.array([5.0, 5.0]),
            WaterWiseConfig(),
        )
        status, *_ = solve_standard_form(form)
        assert status is SolveStatus.INFEASIBLE
        reference, *_ = solve_form_scipy(form)
        assert reference is SolveStatus.INFEASIBLE

    def test_soft_mode_pays_penalty_instead(self):
        cost = np.array([[1.0, 2.0]])
        latency = np.array([[0.9, 0.1]])
        tolerance = np.array([0.2])
        config = WaterWiseConfig(penalty_weight=10.0)
        form = build_placement_form(
            cost, latency, tolerance, np.array([1.0]), np.array([5.0, 5.0]),
            config, soft=True,
        )
        status, x, obj, *_ = solve_standard_form(form)
        assert status is SolveStatus.OPTIMAL
        # Region 1 (cost 2, no violation) beats region 0 (cost 1 + 10·0.7).
        assert x[1] == pytest.approx(1.0)
        assert obj == pytest.approx(2.0)

    def test_capacity_exceeded_is_infeasible(self):
        cost = np.ones((3, 2))
        latency = np.zeros((3, 2))
        tolerance = np.ones(3)
        form = build_placement_form(
            cost, latency, tolerance, np.array([2.0, 2.0, 2.0]), np.array([1.0, 1.0]),
            WaterWiseConfig(),
        )
        status, *_ = solve_standard_form(form)
        reference, *_ = solve_form_scipy(form)
        assert status is reference is SolveStatus.INFEASIBLE

    def test_session_counts_the_paths(self):
        rng = np.random.default_rng(6)
        session = SolverSession()
        for tight in (False, True, True):
            cost, lat, tol, servers, cap = _random_instance(
                rng, m_jobs=8, n_regions=3, tight=tight
            )
            form = build_placement_form(cost, lat, tol, servers, cap, WaterWiseConfig())
            solve_standard_form(form, session=session)
        stats = session.stats
        assert stats.solves == 3
        assert stats.structured_trivial >= 1
        assert stats.structured_trivial + stats.structured_lp == 3

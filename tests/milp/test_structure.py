"""Tests for the structure-aware placement path (:mod:`repro.milp.structure`)."""

import dataclasses

import numpy as np
import pytest

from repro.core.config import WaterWiseConfig
from repro.core.objective import build_placement_form
from repro.milp.session import SolverSession
from repro.milp.solver import solve_standard_form
from repro.milp.status import SolveStatus
from repro.milp.structure import detect_placement, solve_placement

from .forms import standard_form


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


class TestDetection:
    def test_built_forms_carry_the_structure(self):
        rng = np.random.default_rng(0)
        for soft in (False, True):
            cost, lat, tol, servers, cap = _random_instance(rng)
            form = build_placement_form(cost, lat, tol, servers, cap,
                                        WaterWiseConfig(), soft=soft)
            struct = detect_placement(form)
            assert struct is not None
            assert struct.soft is soft
            assert np.array_equal(struct.cost, cost)
            assert np.array_equal(struct.latency_ratio, lat)
            assert np.array_equal(struct.servers, servers)

    def test_scan_recovers_identical_matrices_without_the_hint(self):
        # A form rebuilt from the same arrays carries no attached structure;
        # the scanner must recover exactly what the builder attached.
        rng = np.random.default_rng(1)
        cost, lat, tol, servers, cap = _random_instance(rng, m_jobs=4, n_regions=3)
        form = build_placement_form(cost, lat, tol, servers, cap, WaterWiseConfig())
        hinted = detect_placement(form)
        scanned = detect_placement(dataclasses.replace(form))
        assert scanned is not None
        for field in ("cost", "latency_ratio", "tolerance", "servers", "capacity"):
            assert np.array_equal(getattr(scanned, field), getattr(hinted, field))
        assert scanned.soft == hinted.soft
        assert scanned.penalty_weight == hinted.penalty_weight

    def test_non_placement_forms_are_rejected(self):
        knapsack = standard_form(
            [4.0, 3.0, 5.0], a_ub=[[2.0, 3.0, 4.0]], b_ub=[5.0], upper=1.0,
            integrality=True, maximize=True,
        )
        assert detect_placement(knapsack) is None

    def test_perturbed_placement_form_is_rejected(self):
        rng = np.random.default_rng(2)
        cost, lat, tol, servers, cap = _random_instance(rng, m_jobs=3, n_regions=2)
        form = build_placement_form(cost, lat, tol, servers, cap, WaterWiseConfig())
        broken_a_eq = form.a_eq.copy()
        broken_a_eq[0, -1] = 1.0  # job 0 "assigned" through job 2's column
        assert detect_placement(dataclasses.replace(form, a_eq=broken_a_eq)) is None

    def test_lp_relaxation_form_is_rejected(self):
        rng = np.random.default_rng(3)
        cost, lat, tol, servers, cap = _random_instance(rng, m_jobs=3, n_regions=2)
        form = build_placement_form(cost, lat, tol, servers, cap, WaterWiseConfig())
        relaxed = dataclasses.replace(
            form, integrality=np.zeros_like(form.integrality)
        )
        assert detect_placement(relaxed) is None


class TestSolvePlacement:
    @pytest.mark.parametrize("soft", [False, True])
    def test_matches_scipy_and_native_backends(self, soft):
        rng = np.random.default_rng(4)
        optimal = 0
        for trial in range(40):
            tight = trial % 2 == 1
            cost, lat, tol, servers, cap = _random_instance(rng, tight=tight)
            form = build_placement_form(cost, lat, tol, servers, cap,
                                        WaterWiseConfig(), soft=soft)
            s_struct, x, obj, _i, _n, name, _t = solve_standard_form(form, solver="auto")
            s_scipy, _x2, obj2, *_ = solve_standard_form(form, solver="scipy")
            s_native, _x3, obj3, *_ = solve_standard_form(form, solver="native")
            assert name == "structured"
            assert s_struct == s_scipy == s_native
            if s_struct is SolveStatus.OPTIMAL:
                optimal += 1
                # HiGHS reports soft-mode objectives up to penalty_weight ×
                # its primal feasibility tolerance (10 × 1e-7) below the
                # exact value; the structured/native answers are exact.
                assert obj == pytest.approx(obj2, abs=1e-5)
                assert obj == pytest.approx(obj3, abs=1e-7)
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
        status, *_ = solve_standard_form(form, solver="auto")
        assert status is SolveStatus.INFEASIBLE
        reference, *_ = solve_standard_form(form, solver="scipy")
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
        status, x, obj, *_ = solve_standard_form(form, solver="auto")
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
        status, *_ = solve_standard_form(form, solver="auto")
        reference, *_ = solve_standard_form(form, solver="scipy")
        assert status is reference is SolveStatus.INFEASIBLE

    def test_session_counts_the_paths(self):
        rng = np.random.default_rng(6)
        session = SolverSession()
        for tight in (False, True, True):
            cost, lat, tol, servers, cap = _random_instance(
                rng, m_jobs=8, n_regions=3, tight=tight
            )
            form = build_placement_form(cost, lat, tol, servers, cap, WaterWiseConfig())
            struct = detect_placement(form)
            solve_placement(form, struct, session=session)
        stats = session.stats
        assert stats.solves == 3
        assert stats.structured_trivial >= 1
        assert stats.structured_trivial + stats.structured_lp == 3

    def test_hinted_and_scanned_forms_solve_identically(self):
        # A form carrying the attached structure and the same arrays without
        # it (recognized by the scan) must take the same structured path to
        # the same solution.
        pytest.importorskip("scipy")
        rng = np.random.default_rng(7)
        cost, lat, tol, servers, cap = _random_instance(rng, m_jobs=5, n_regions=3)
        form = build_placement_form(cost, lat, tol, servers, cap, WaterWiseConfig())
        rebuilt = dataclasses.replace(form)
        hinted = solve_standard_form(form, solver="auto")
        scanned = solve_standard_form(rebuilt, solver="auto")
        assert hinted[0] == scanned[0]
        assert np.array_equal(hinted[1], scanned[1], equal_nan=True)
        assert hinted[5] == scanned[5] == "structured"

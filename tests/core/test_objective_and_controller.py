"""Tests for the placement MILP construction and the decision controller."""

import dataclasses

import numpy as np
import pytest

from repro.core import DecisionController, HistoryLearner, WaterWiseConfig
from repro.core.objective import build_placement_form, placement_cost
from repro.milp import solve_standard_form

from .conftest import make_job


def _round_matrices(jobs, context, config):
    """One round's MILP inputs (no history), evaluated per job and region pair."""
    keys = context.region_keys
    carbon, water = context.footprints.footprint_matrices(jobs, keys, context.now)
    cost = placement_cost(carbon, water, config)
    exec_times = np.array([job.execution_time for job in jobs])
    transfer = np.array([[context.transfer_time(job, key) for key in keys] for job in jobs])
    waited = np.array([context.wait_time(job) for job in jobs])
    tolerance = np.maximum(0.0, context.delay_tolerance - waited / exec_times)
    servers = np.array([job.servers_required for job in jobs])
    capacity = np.array([context.capacity.get(key, 0) for key in keys])
    return cost, transfer / exec_times[:, None], tolerance, servers, capacity


def _satisfies(form, x):
    """Whether ``x`` meets every row, bound and integrality flag of ``form``."""
    return (
        np.allclose(form.a_eq @ x, form.b_eq)
        and np.all(form.a_ub @ x <= form.b_ub + 1e-12)
        and np.all((form.lower <= x) & (x <= form.upper))
        and np.all(x[form.integrality] == np.round(x[form.integrality]))
    )


class TestPlacementProblem:
    def test_problem_dimensions_hard(self, make_context):
        context = make_context()
        jobs = [make_job(i) for i in range(3)]
        config = WaterWiseConfig()
        form = build_placement_form(*_round_matrices(jobs, context, config), config, soft=False)
        # 3 jobs x 5 regions binary variables.
        assert form.num_variables == 15
        assert form.integrality.all()
        # 3 assignment + 5 capacity + 3 delay constraints.
        assert form.num_constraints == 11

    def test_problem_dimensions_soft(self, make_context):
        context = make_context()
        jobs = [make_job(i) for i in range(2)]
        config = WaterWiseConfig()
        form = build_placement_form(*_round_matrices(jobs, context, config), config, soft=True)
        # x variables + penalty variables.
        assert form.num_variables == 20
        # The penalty columns are continuous, unbounded and cost σ each.
        assert not form.integrality[10:].any()
        assert np.all(form.upper[10:] == np.inf)
        assert np.all(form.c[10:] == config.penalty_weight)

    def test_rows_admit_exactly_the_feasible_placements(self):
        # Two jobs, two regions.  Variables are x_00, x_01, x_10, x_11, then
        # (soft) one penalty per placement in the same order.
        cost = np.array([[1.0, 2.0], [3.0, 1.0]])
        latency_ratio = np.array([[0.0, 0.5], [0.4, 0.0]])
        tolerance = np.array([0.3, 0.5])
        servers = np.array([2, 1])
        capacity = np.array([2, 3])
        config = WaterWiseConfig()
        inputs = (cost, latency_ratio, tolerance, servers, capacity, config)
        hard = build_placement_form(*inputs)
        soft = build_placement_form(*inputs, soft=True)

        def placed(first, second, penalty=None):
            x = np.zeros(4)
            x[[first, 2 + second]] = 1.0
            return x if penalty is None else np.concatenate([x, penalty])

        assert _satisfies(hard, placed(0, 1))
        assert hard.objective_value(placed(0, 1)) == pytest.approx(2.0)
        # Eq. 10: region 0 holds 2 servers, not 3.
        assert not _satisfies(hard, placed(0, 0))
        # Eq. 11: job 0's latency ratio 0.5 in region 1 exceeds its 0.3.
        assert not _satisfies(hard, placed(1, 1))
        # Halves meet every row; only the integrality mask rejects them.
        assert not _satisfies(hard, np.full(4, 0.5))
        assert _satisfies(dataclasses.replace(hard, integrality=np.zeros(4, bool)),
                          np.full(4, 0.5))
        # Eq. 12–13: the soft form admits the delay violation once its
        # penalty covers the 0.2 excess, at σ per unit; capacity stays hard.
        excess = np.array([0.0, 0.2, 0.0, 0.0])
        assert _satisfies(soft, placed(1, 1, excess))
        assert soft.objective_value(placed(1, 1, excess)) == pytest.approx(
            3.0 + config.penalty_weight * 0.2
        )
        assert not _satisfies(soft, placed(1, 1, np.zeros(4)))
        assert not _satisfies(soft, placed(0, 0, np.zeros(4)))

    def test_cost_matrix_blends_carbon_and_water(self, make_context):
        context = make_context()
        jobs = [make_job(0)]
        carbon, water = context.footprints.footprint_matrices(jobs, context.region_keys, 0.0)
        carbon_only = placement_cost(
            carbon, water, WaterWiseConfig.with_weights(1.0, lambda_ref=0.0)
        )
        water_only = placement_cost(
            carbon, water, WaterWiseConfig.with_weights(0.0, lambda_ref=0.0)
        )
        np.testing.assert_allclose(carbon_only, carbon / carbon.max(axis=1, keepdims=True))
        np.testing.assert_allclose(water_only, water / water.max(axis=1, keepdims=True))

    def test_history_reference_shifts_cost(self, make_context):
        context = make_context()
        jobs = [make_job(0)]
        config = WaterWiseConfig(lambda_ref=0.5)
        co2_ref = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        h2o_ref = np.zeros(5)
        carbon, water = context.footprints.footprint_matrices(jobs, context.region_keys, 0.0)
        with_ref = placement_cost(carbon, water, config, co2_ref=co2_ref, h2o_ref=h2o_ref)
        without_ref = placement_cost(carbon, water, config)
        delta = with_ref - without_ref
        assert delta[0, 0] == pytest.approx(0.5 * 0.5 * 1.0)
        np.testing.assert_allclose(delta[0, 1:], 0.0)

    def test_mismatched_reference_rejected(self, make_context):
        context = make_context()
        carbon, water = context.footprints.footprint_matrices(
            [make_job(0)], context.region_keys, 0.0
        )
        with pytest.raises(ValueError):
            placement_cost(
                carbon, water, WaterWiseConfig(), co2_ref=np.zeros(2), h2o_ref=np.zeros(2)
            )

    def test_solution_respects_assignment_constraint(self, make_context):
        context = make_context()
        result = DecisionController().decide([make_job(i) for i in range(4)], context)
        assert not result.used_fallback
        assert set(result.assignments) == {0, 1, 2, 3}
        assert all(region in context.region_keys for region in result.assignments.values())

    def test_zero_tolerance_forces_home_region(self, make_context):
        context = make_context(delay_tolerance=0.0)
        jobs = [make_job(0, region="milan"), make_job(1, region="mumbai")]
        result = DecisionController().decide(jobs, context)
        assert not result.used_soft_constraints
        assert result.assignments == {0: "milan", 1: "mumbai"}

    def test_capacity_constraint_limits_region(self, make_context):
        # Every region except Zurich is full; all jobs must go to Zurich even
        # if it is not the cheapest choice.
        capacity = {"zurich": 5, "madrid": 0, "oregon": 0, "milan": 0, "mumbai": 0}
        context = make_context(capacity=capacity, delay_tolerance=10.0)
        jobs = [make_job(i, region="mumbai", exec_time=7200.0) for i in range(3)]
        result = DecisionController().decide(jobs, context)
        assert not result.used_fallback
        assert all(region == "zurich" for region in result.assignments.values())

    def test_controller_solves_the_built_form(self, make_context):
        # decide() computes its MILP inputs with whole-batch operations; they
        # must equal _round_matrices' per-pair evaluation, so its objective
        # is that form's optimum.
        context = make_context()
        jobs = [make_job(i, region=region) for i, region in enumerate(
            ["zurich", "milan", "mumbai", "oregon"]
        )]
        config = WaterWiseConfig()
        form = build_placement_form(*_round_matrices(jobs, context, config), config)
        status, _x, objective, *_ = solve_standard_form(form)
        result = DecisionController(config).decide(jobs, context)
        assert status.is_success and not result.used_soft_constraints
        assert result.objective_value == pytest.approx(objective, rel=1e-9)


class TestDecisionController:
    def test_empty_batch(self, make_context):
        controller = DecisionController()
        result = controller.decide([], make_context())
        assert result.assignments == {}
        assert result.objective is None

    def test_hard_constraints_used_when_feasible(self, make_context):
        controller = DecisionController()
        result = controller.decide([make_job(i) for i in range(3)], make_context())
        assert not result.used_soft_constraints
        assert not result.used_fallback
        assert len(result.assignments) == 3

    def test_soft_retry_on_infeasible_hard_problem(self, make_context):
        # Zero tolerance but the home region has no capacity: Eq. 11 (hard) plus
        # Eq. 10 is infeasible, so the controller must soften the delay constraint.
        capacity = {"zurich": 0, "madrid": 5, "oregon": 5, "milan": 5, "mumbai": 5}
        context = make_context(capacity=capacity, delay_tolerance=0.0)
        controller = DecisionController()
        result = controller.decide([make_job(0, region="zurich")], context)
        assert result.used_soft_constraints
        assert not result.used_fallback
        assert result.assignments[0] != "zurich"
        assert controller.rounds_softened == 1

    def test_force_soft(self, make_context):
        controller = DecisionController()
        result = controller.decide([make_job(0)], make_context(), force_soft=True)
        assert result.used_soft_constraints

    def test_soft_disabled_falls_back_to_greedy(self, make_context):
        capacity = {"zurich": 0, "madrid": 5, "oregon": 5, "milan": 5, "mumbai": 5}
        context = make_context(capacity=capacity, delay_tolerance=0.0)
        config = WaterWiseConfig(use_soft_constraints=False)
        controller = DecisionController(config)
        result = controller.decide([make_job(0, region="zurich")], context)
        assert result.used_fallback
        assert 0 in result.assignments
        assert controller.rounds_fallback == 1

    def test_history_biases_decisions(self, make_context):
        """A heavy historical penalty on the otherwise-best region flips the choice."""
        context = make_context(delay_tolerance=10.0)
        job = make_job(0, region="milan", exec_time=3600.0)
        config = WaterWiseConfig(lambda_ref=5.0)

        plain = DecisionController(config).decide([job], context)
        baseline_choice = plain.assignments[0]

        history = HistoryLearner(window=10)
        keys = context.region_keys
        carbon = np.ones(len(keys)) * 0.01
        water = np.ones(len(keys)) * 0.01
        idx = keys.index(baseline_choice)
        carbon[idx] = 1000.0
        water[idx] = 1000.0
        history.observe(keys, carbon, water)

        biased = DecisionController(config).decide([job], context, history=history)
        assert biased.assignments[0] != baseline_choice

    def test_objective_value_exposed(self, make_context):
        controller = DecisionController()
        result = controller.decide([make_job(0)], make_context())
        assert np.isfinite(result.objective_value)

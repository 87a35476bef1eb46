"""Tests for the WaterWise building blocks: config, history learner, slack manager."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HistoryLearner, SlackManager, WaterWiseConfig

from .conftest import make_job


class TestConfig:
    def test_defaults_match_paper(self):
        config = WaterWiseConfig()
        assert config.lambda_co2 == 0.5
        assert config.lambda_h2o == 0.5
        assert config.lambda_ref == 0.1
        assert config.history_window == 10

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            WaterWiseConfig(lambda_co2=0.7, lambda_h2o=0.7)
        with pytest.raises(ValueError):
            WaterWiseConfig(lambda_co2=-0.1, lambda_h2o=1.1)

    def test_with_weights_helper(self):
        config = WaterWiseConfig.with_weights(0.3)
        assert config.lambda_co2 == pytest.approx(0.3)
        assert config.lambda_h2o == pytest.approx(0.7)

    def test_other_validation(self):
        with pytest.raises(ValueError):
            WaterWiseConfig(history_window=0)
        with pytest.raises(ValueError):
            WaterWiseConfig(penalty_weight=-1.0)
        with pytest.raises(ValueError):
            WaterWiseConfig(solver="gurobi")
        with pytest.raises(ValueError):
            WaterWiseConfig(solver_time_limit_s=0.0)

    def test_frozen(self):
        config = WaterWiseConfig()
        with pytest.raises(Exception):
            config.lambda_ref = 0.5  # type: ignore[misc]


class TestHistoryLearner:
    def test_empty_reference_is_zero(self):
        learner = HistoryLearner(window=5)
        co2, h2o = learner.reference(["zurich", "milan"])
        np.testing.assert_array_equal(co2, [0.0, 0.0])
        np.testing.assert_array_equal(h2o, [0.0, 0.0])

    def test_normalization_per_round(self):
        learner = HistoryLearner(window=5)
        learner.observe(["a", "b"], carbon_intensity=[100.0, 50.0], water_intensity=[2.0, 4.0])
        co2, h2o = learner.reference(["a", "b"])
        np.testing.assert_allclose(co2, [1.0, 0.5])
        np.testing.assert_allclose(h2o, [0.5, 1.0])

    def test_window_evicts_old_rounds(self):
        learner = HistoryLearner(window=2)
        learner.observe(["a"], [100.0], [1.0])
        learner.observe(["a"], [100.0], [1.0])
        learner.observe(["a"], [0.0], [0.0])  # third round pushes the first out
        co2, _ = learner.reference(["a"])
        # Window now holds rounds 2 and 3: normalized values 1.0 and 0.0.
        assert co2[0] == pytest.approx(0.5)

    def test_mean_over_window(self):
        learner = HistoryLearner(window=10)
        learner.observe(["a", "b"], [100.0, 100.0], [1.0, 1.0])
        learner.observe(["a", "b"], [50.0, 100.0], [1.0, 2.0])
        co2, h2o = learner.reference(["a", "b"])
        assert co2[0] == pytest.approx((1.0 + 0.5) / 2)
        assert co2[1] == pytest.approx(1.0)
        assert h2o[0] == pytest.approx((1.0 + 0.5) / 2)

    def test_unknown_region_gets_zero(self):
        learner = HistoryLearner()
        learner.observe(["a"], [10.0], [1.0])
        co2, h2o = learner.reference(["a", "new"])
        assert co2[1] == 0.0
        assert h2o[1] == 0.0

    def test_reset(self):
        learner = HistoryLearner()
        learner.observe(["a"], [10.0], [1.0])
        learner.reset()
        assert learner.rounds_recorded == 0

    def test_validation(self):
        learner = HistoryLearner()
        with pytest.raises(ValueError):
            HistoryLearner(window=0)
        with pytest.raises(ValueError):
            learner.observe(["a"], [1.0, 2.0], [1.0])
        with pytest.raises(ValueError):
            learner.observe(["a"], [-1.0], [1.0])

    @settings(max_examples=30, deadline=None)
    @given(
        carbon=st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=2, max_size=6),
        water=st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=2, max_size=6),
    )
    def test_reference_always_within_unit_interval(self, carbon, water):
        n = min(len(carbon), len(water))
        keys = [f"r{i}" for i in range(n)]
        learner = HistoryLearner(window=4)
        learner.observe(keys, carbon[:n], water[:n])
        co2, h2o = learner.reference(keys)
        assert np.all((co2 >= 0.0) & (co2 <= 1.0))
        assert np.all((h2o >= 0.0) & (h2o <= 1.0))


class TestSlackManager:
    def test_urgency_decreases_with_waiting(self, make_context):
        manager = SlackManager()
        job = make_job(0, exec_time=1000.0)
        fresh = make_context(delay_tolerance=0.5, wait_times={0: 0.0})
        waited = make_context(delay_tolerance=0.5, wait_times={0: 400.0})
        assert (
            manager.select([job], waited, capacity_slots=1).scores[0]
            < manager.select([job], fresh, capacity_slots=1).scores[0]
        )

    def test_urgency_grows_with_execution_time(self, make_context):
        manager = SlackManager()
        context = make_context(delay_tolerance=0.5)
        short = make_job(0, exec_time=600.0)
        long = make_job(1, exec_time=6000.0)
        scores = manager.select([short, long], context, capacity_slots=2).scores
        assert scores[1] > scores[0]

    def test_selection_prefers_most_urgent(self, make_context):
        manager = SlackManager()
        context = make_context(delay_tolerance=0.5, wait_times={0: 0.0, 1: 500.0})
        relaxed = make_job(0, exec_time=5000.0)
        urgent = make_job(1, exec_time=700.0)
        selection = manager.select([relaxed, urgent], context, capacity_slots=1)
        assert [job.job_id for job in selection.selected] == [1]
        assert [job.job_id for job in selection.deferred] == [0]

    def test_selection_respects_server_requirements(self, make_context):
        manager = SlackManager()
        context = make_context(delay_tolerance=0.5)
        big = make_job(0, exec_time=500.0, servers_required=3)
        small = make_job(1, exec_time=600.0)
        selection = manager.select([big, small], context, capacity_slots=2)
        assert [job.job_id for job in selection.selected] == [1]

    def test_zero_capacity_defers_everything(self, make_context):
        manager = SlackManager()
        context = make_context()
        jobs = [make_job(i) for i in range(3)]
        selection = manager.select(jobs, context, capacity_slots=0)
        assert not selection.selected
        assert len(selection.deferred) == 3

    def test_negative_capacity_rejected(self, make_context):
        with pytest.raises(ValueError):
            SlackManager().select([make_job(0)], make_context(), capacity_slots=-1)

    def test_scores_reported_for_all_jobs(self, make_context):
        manager = SlackManager()
        jobs = [make_job(i) for i in range(4)]
        selection = manager.select(jobs, make_context(), capacity_slots=2)
        assert set(selection.scores) == {0, 1, 2, 3}

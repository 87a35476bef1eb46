"""Tests for the Job dataclass."""

import pytest

from repro.traces import Job


def make_job(**overrides):
    defaults = dict(
        job_id=1,
        workload="dedup",
        arrival_time=100.0,
        execution_time=600.0,
        energy_kwh=0.1,
        home_region="zurich",
    )
    defaults.update(overrides)
    return Job(**defaults)


class TestJobValidation:
    def test_valid_job(self):
        job = make_job()
        assert job.realized_execution_time == 600.0
        assert job.realized_energy_kwh == 0.1
        assert job.servers_required == 1

    def test_realized_values_override_estimates(self):
        job = make_job(true_execution_time=660.0, true_energy_kwh=0.12)
        assert job.execution_time == 600.0
        assert job.realized_execution_time == 660.0
        assert job.realized_energy_kwh == 0.12

    @pytest.mark.parametrize(
        "field,value",
        [
            ("job_id", -1),
            ("workload", ""),
            ("home_region", ""),
            ("arrival_time", -5.0),
            ("execution_time", 0.0),
            ("energy_kwh", -0.1),
            ("package_gb", -1.0),
            ("servers_required", 0),
            ("servers_required", 2.9),
            ("true_execution_time", 0.0),
            ("true_energy_kwh", -1.0),
        ],
    )
    def test_invalid_fields_rejected(self, field, value):
        with pytest.raises(ValueError):
            make_job(**{field: value})

    def test_jobs_are_frozen(self):
        job = make_job()
        with pytest.raises(Exception):
            job.arrival_time = 0.0  # type: ignore[misc]

    def test_with_arrival_time(self):
        job = make_job()
        shifted = job.with_arrival_time(50.0)
        assert shifted.arrival_time == 50.0
        assert shifted.job_id == job.job_id
        assert job.arrival_time == 100.0  # original untouched

    def test_max_service_time(self):
        job = make_job(execution_time=1000.0)
        assert job.max_service_time(0.25) == pytest.approx(1250.0)
        assert job.max_service_time(1.0) == pytest.approx(2000.0)
        with pytest.raises(ValueError):
            job.max_service_time(-0.1)

    def test_metadata_not_in_equality(self):
        a = make_job(metadata={"x": 1})
        b = make_job(metadata={"y": 2})
        assert a == b

"""Job description consumed by the simulator and every scheduler."""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping

from repro._validation import ensure_non_negative, ensure_positive

__all__ = ["Job"]


@dataclasses.dataclass(frozen=True)
class Job:
    """A batch job submitted to the geo-distributed cluster.

    The fields mirror what WaterWise's Optimization Decision Controller holds
    for each incoming job (paper Sec. 4): metadata, the home region where the
    user submitted it, and the *current mean estimates* of execution time and
    energy collected from previous executions of the same workload.  Those
    estimates can differ from the realized values; the simulator keeps the
    realized values in :attr:`true_execution_time` / :attr:`true_energy_kwh`
    and uses them for footprint accounting, while schedulers only ever see the
    estimates.

    Attributes
    ----------
    job_id:
        Unique, monotonically increasing identifier within a trace.
    workload:
        Benchmark name (one of the paper's Table 1 workloads).
    arrival_time:
        Submission time in seconds from the start of the trace.
    execution_time:
        Estimated execution time in seconds (what the scheduler sees).
    energy_kwh:
        Estimated IT energy of the job in kWh (what the scheduler sees).
    home_region:
        Region key where the job was submitted.
    package_gb:
        Size of the execution files/dependencies that must be shipped if the
        job runs away from home.
    servers_required:
        Number of servers the job occupies while running (capacity units).
    true_execution_time / true_energy_kwh:
        Realized values used by the simulator; default to the estimates.
    metadata:
        Free-form extra information (kept out of equality/hashing decisions).
    """

    job_id: int
    workload: str
    arrival_time: float
    execution_time: float
    energy_kwh: float
    home_region: str
    package_gb: float = 1.0
    servers_required: int = 1
    true_execution_time: float | None = None
    true_energy_kwh: float | None = None
    metadata: Mapping[str, Any] = dataclasses.field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.job_id < 0:
            raise ValueError("job_id must be non-negative")
        if not self.workload:
            raise ValueError("workload name must be non-empty")
        if not self.home_region:
            raise ValueError("home_region must be non-empty")
        ensure_non_negative(self.arrival_time, "arrival_time")
        ensure_positive(self.execution_time, "execution_time")
        ensure_positive(self.energy_kwh, "energy_kwh")
        ensure_non_negative(self.package_gb, "package_gb")
        if self.servers_required < 1 or self.servers_required % 1:
            raise ValueError(
                f"servers_required must be a whole number >= 1, got {self.servers_required!r}"
            )
        if self.true_execution_time is not None:
            ensure_positive(self.true_execution_time, "true_execution_time")
        if self.true_energy_kwh is not None:
            ensure_positive(self.true_energy_kwh, "true_energy_kwh")

    # -- realized values ----------------------------------------------------------
    @property
    def realized_execution_time(self) -> float:
        """Execution time the simulator charges (falls back to the estimate)."""
        return self.execution_time if self.true_execution_time is None else self.true_execution_time

    @property
    def realized_energy_kwh(self) -> float:
        """Energy the simulator charges (falls back to the estimate)."""
        return self.energy_kwh if self.true_energy_kwh is None else self.true_energy_kwh

    def with_arrival_time(self, arrival_time: float) -> "Job":
        """Copy of the job with a different arrival time (trace rescaling)."""
        return dataclasses.replace(self, arrival_time=float(arrival_time))

    def max_service_time(self, delay_tolerance: float) -> float:
        """Maximum allowed service time under a delay tolerance (paper Sec. 3).

        A delay tolerance of 0.25 (25%) allows the service time — queueing,
        transfer and execution — to reach ``1.25 ×`` the job's execution time.
        """
        if delay_tolerance < 0:
            raise ValueError("delay_tolerance must be >= 0")
        return (1.0 + delay_tolerance) * self.execution_time

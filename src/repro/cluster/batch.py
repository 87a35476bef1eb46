"""Columnar (structure-of-arrays) containers for the array simulation engine.

The scalar :class:`~repro.cluster.simulator.Simulator` walks one
:class:`~repro.traces.job.Job` object at a time, which is convenient but slow:
at 10k+ jobs the Python attribute access, per-job dataclass construction and
per-job footprint integration dominate the runtime.  The array engine
(:class:`~repro.cluster.streaming.StreamingSimulator`) instead keeps one
NumPy array per job attribute and operates on whole scheduling batches at
once:

* :class:`JobArrays` — a read-only columnar view of jobs (the engine's slot
  pool, or a whole trace via :meth:`JobArrays.from_trace`), with home
  regions resolved to integer codes against the simulated region order;
* :class:`BatchSchedulingContext` — the array-world counterpart of
  :class:`~repro.cluster.interface.SchedulingContext`, handed to vectorized
  scheduler fast paths (see :mod:`repro.schedulers.vectorized`);
* :class:`BatchResult` — per-job outcome arrays plus the same aggregate
  figures of merit as :class:`~repro.cluster.metrics.SimulationResult`,
  computed in single NumPy passes.

:class:`BatchResult` can be converted back into the object world
(:meth:`BatchResult.to_outcomes` / :meth:`BatchResult.to_simulation_result`)
when report code wants :class:`~repro.cluster.metrics.JobOutcome` objects;
the conversion is the only O(n) Python loop in the batch path and is entirely
optional.
"""

from __future__ import annotations

import dataclasses
import zlib
from collections.abc import Mapping, Sequence

import numpy as np

from repro.cluster.metrics import JobOutcome, SimulationResult
from repro.cluster.footprint import FootprintCalculator
from repro.regions.latency import TransferLatencyModel
from repro.regions.region import Region
from repro.sustainability.datasets import SustainabilityDataset
from repro.traces.trace import Trace

__all__ = [
    "DEFER",
    "JobArrays",
    "BatchSchedulingContext",
    "BatchResult",
    "resolve_fast_decision",
]

#: Region code a vectorized fast path returns to postpone a job to the next
#: round (the array-world equivalent of ``SchedulerDecision.deferred``).
DEFER = -1


def resolve_fast_decision(
    result, batch: np.ndarray, n_regions: int
) -> tuple[np.ndarray, np.ndarray]:
    """Validate a fast path's round result; returns ``(choice, commit_positions)``.

    Called by the :class:`~repro.cluster.streaming.StreamingSimulator`
    round loop, which every array run (one-shot
    :class:`~repro.cluster.streaming.BatchSimulator`, stream, fused,
    admission) goes through.  ``choice`` holds one region code per batch
    position (:data:`DEFER` postpones);
    ``commit_positions`` lists the assigned positions in commit order — a
    custom commit order must cover exactly the assigned positions, because
    commit order decides FIFO tie-breaking and a silently dropped or
    duplicated position would corrupt the equivalence guarantee.
    """
    if isinstance(result, tuple):
        choice, commit_order = result
    else:
        choice, commit_order = result, None
    choice = np.asarray(choice, dtype=np.int64)
    if choice.shape != batch.shape:
        raise ValueError(
            f"fast path returned {choice.shape} region codes for a batch of "
            f"{batch.shape}"
        )
    if np.any(choice < -1) or np.any(choice >= n_regions):
        raise ValueError("fast path returned region codes outside the cluster")
    assigned = np.flatnonzero(choice >= 0)
    if commit_order is None:
        commit_positions = assigned
    else:
        commit_positions = np.asarray(commit_order, dtype=np.int64)
        if not np.array_equal(np.sort(commit_positions), assigned):
            raise ValueError(
                "fast path commit order must be a permutation of the "
                "assigned batch positions"
            )
    return choice, commit_positions


@dataclasses.dataclass(frozen=True)
class JobArrays:
    """Read-only columnar view of a trace, aligned with the trace's job order.

    All arrays share the same length and position ``i`` describes
    ``trace[i]``.  Estimated values (``exec_est`` / ``energy_est``) are what
    schedulers may see; realized values (``exec_real`` / ``energy_real``) are
    what the simulator charges, exactly mirroring
    :attr:`~repro.traces.job.Job.realized_execution_time` and
    :attr:`~repro.traces.job.Job.realized_energy_kwh`.
    """

    region_keys: tuple[str, ...]
    job_id: np.ndarray
    arrival: np.ndarray
    exec_est: np.ndarray
    exec_real: np.ndarray
    energy_est: np.ndarray
    energy_real: np.ndarray
    home_idx: np.ndarray
    package_gb: np.ndarray
    servers: np.ndarray
    workloads: tuple[str, ...]

    @property
    def n(self) -> int:
        return len(self.job_id)

    @classmethod
    def from_trace(cls, trace: Trace, region_keys: Sequence[str]) -> "JobArrays":
        """Build the columnar view of ``trace`` over the simulated regions.

        Raises ``ValueError`` when a job's home region is not part of
        ``region_keys``.  The scalar engine usually fails the same way, just
        later — at the first transfer-latency or baseline lookup referencing
        the unknown region — but a cluster restricted to a subset of a
        trace's home regions (with a latency model covering the superset) is
        only supported by the scalar :class:`~repro.cluster.simulator.Simulator`;
        use :meth:`Trace.restricted_to_regions` to remap such traces for the
        batch engine.
        """
        keys = tuple(region_keys)
        columns = trace.to_columns()
        homes = np.asarray(columns["home_region"], dtype=object)
        home_idx = np.full(len(homes), -1, dtype=np.int64)
        for code, key in enumerate(keys):
            home_idx[homes == key] = code
        unknown = np.flatnonzero(home_idx < 0)
        if len(unknown):
            i = int(unknown[0])
            raise ValueError(
                f"job {columns['job_id'][i]} has home region {homes[i]!r} which is not "
                f"part of the simulated cluster ({sorted(keys)})"
            )
        return cls(
            region_keys=keys,
            job_id=columns["job_id"],
            arrival=columns["arrival_time"],
            exec_est=columns["execution_time"],
            exec_real=columns["realized_execution_time"],
            energy_est=columns["energy_kwh"],
            energy_real=columns["realized_energy_kwh"],
            home_idx=home_idx,
            package_gb=columns["package_gb"],
            servers=columns["servers_required"],
            workloads=columns["workload"],
        )


@dataclasses.dataclass(frozen=True)
class BatchSchedulingContext:
    """Array-world snapshot handed to a vectorized scheduler fast path.

    Attributes
    ----------
    now:
        Current simulation time (seconds since trace start).
    region_keys:
        Candidate regions in the simulator's stable order; region codes in
        every array index into this tuple.
    capacity:
        Remaining capacity per region (``(R,)`` int array) — free slots not
        already promised to queued jobs.
    jobs:
        Columnar view of the *whole* trace.
    batch:
        Indices (into ``jobs``) of the jobs awaiting placement this round, in
        the same order the scalar engine would present them.
    wait_times:
        Seconds each batch job has been waiting since first consideration
        (aligned with ``batch``).
    delay_tolerance / scheduling_interval_s:
        As in :class:`~repro.cluster.interface.SchedulingContext`.
    dataset / latency / footprints:
        The same model objects the scalar context carries, for fast paths
        that need intensities or transfer times.
    """

    now: float
    region_keys: tuple[str, ...]
    capacity: np.ndarray
    jobs: JobArrays
    batch: np.ndarray
    wait_times: np.ndarray
    delay_tolerance: float
    scheduling_interval_s: float
    dataset: SustainabilityDataset
    latency: TransferLatencyModel
    footprints: FootprintCalculator
    regions: tuple[Region, ...] = ()

    @property
    def batch_size(self) -> int:
        return len(self.batch)


class BatchResult:
    """Columnar result of one batch simulation.

    Per-job arrays are sorted by job id (like
    :attr:`SimulationResult.outcomes`) and aggregate properties mirror
    :class:`~repro.cluster.metrics.SimulationResult` exactly, so reports and
    savings computations accept either result type interchangeably.
    """

    #: See :attr:`repro.cluster.metrics.SimulationResult.solver_stats`.
    solver_stats: dict | None = None
    #: Chaos-timeline summary (scenario, capacity events, per-region degraded
    #: seconds, evicted-job totals); ``None`` for static-capacity runs.  See
    #: :mod:`repro.cluster.timeline`.
    chaos_stats: dict | None = None
    #: Event-kernel telemetry (resolved kernel name, per-path event counters,
    #: binding-point splits, jit compile time); ``None`` for the object-world
    #: engine.  See :class:`repro.cluster.events.KernelStats`.
    kernel_stats: dict | None = None

    def __init__(
        self,
        scheduler_name: str,
        trace_name: str,
        region_keys: Sequence[str],
        job_id: np.ndarray,
        workloads: Sequence[str],
        home_idx: np.ndarray,
        region_idx: np.ndarray,
        arrival: np.ndarray,
        considered: np.ndarray,
        assigned: np.ndarray,
        ready: np.ndarray,
        start: np.ndarray,
        finish: np.ndarray,
        execution_time: np.ndarray,
        transfer_latency: np.ndarray,
        carbon_g: np.ndarray,
        water_l: np.ndarray,
        deferrals: np.ndarray,
        region_servers: Mapping[str, int],
        region_utilization: Mapping[str, float],
        makespan_s: float,
        decision_times_s: Sequence[float],
        round_times_s: Sequence[float],
        delay_tolerance: float,
        evictions: np.ndarray | None = None,
    ) -> None:
        self.scheduler_name = scheduler_name
        self.trace_name = trace_name
        self.region_keys = tuple(region_keys)
        self.job_id = job_id
        self.workloads = tuple(workloads)
        self.home_idx = home_idx
        self.region_idx = region_idx
        self.arrival = arrival
        self.considered = considered
        self.assigned = assigned
        self.ready = ready
        self.start = start
        self.finish = finish
        self.execution_time = execution_time
        self.transfer_latency = transfer_latency
        self.carbon_g = carbon_g
        self.water_l = water_l
        self.deferrals = deferrals
        self.evictions = (
            evictions
            if evictions is not None
            else np.zeros(len(job_id), dtype=np.int64)
        )
        self.region_servers = dict(region_servers)
        self.region_utilization = dict(region_utilization)
        self.makespan_s = float(makespan_s)
        self.decision_times_s = tuple(decision_times_s)
        self.round_times_s = tuple(round_times_s)
        self.delay_tolerance = float(delay_tolerance)

    # -- derived per-job arrays ---------------------------------------------------------
    @property
    def num_jobs(self) -> int:
        return len(self.job_id)

    @property
    def executed_regions(self) -> list[str]:
        """Executed region key per job (job-id order)."""
        return [self.region_keys[idx] for idx in self.region_idx]

    @property
    def queue_delays(self) -> np.ndarray:
        return np.maximum(0.0, self.start - self.ready)

    @property
    def service_times(self) -> np.ndarray:
        """Delay-tolerance-relevant service time (from first consideration)."""
        return self.finish - self.considered

    @property
    def service_ratios(self) -> np.ndarray:
        return self.service_times / self.execution_time

    @property
    def migrated(self) -> np.ndarray:
        return self.region_idx != self.home_idx

    @property
    def violations(self) -> np.ndarray:
        limit = (1.0 + self.delay_tolerance) * self.execution_time + 1e-9
        return self.service_times > limit

    # -- totals ------------------------------------------------------------------------
    @property
    def total_evictions(self) -> int:
        """Total chaos evictions/requeues across jobs (0 without a timeline)."""
        return int(np.sum(self.evictions))

    @property
    def total_carbon_g(self) -> float:
        return float(np.sum(self.carbon_g))

    @property
    def total_carbon_kg(self) -> float:
        return self.total_carbon_g / 1000.0

    @property
    def total_water_l(self) -> float:
        return float(np.sum(self.water_l))

    @property
    def total_water_m3(self) -> float:
        return self.total_water_l / 1000.0

    # -- service time / violations -----------------------------------------------------
    @property
    def mean_service_ratio(self) -> float:
        if not self.num_jobs:
            return float("nan")
        return float(np.mean(self.service_ratios))

    @property
    def violation_fraction(self) -> float:
        if not self.num_jobs:
            return 0.0
        return float(np.mean(self.violations))

    @property
    def mean_queue_delay_s(self) -> float:
        if not self.num_jobs:
            return 0.0
        return float(np.mean(self.queue_delays))

    @property
    def mean_transfer_latency_s(self) -> float:
        if not self.num_jobs:
            return 0.0
        return float(np.mean(self.transfer_latency))

    @property
    def migration_fraction(self) -> float:
        if not self.num_jobs:
            return 0.0
        return float(np.mean(self.migrated))

    # -- distribution / utilization ----------------------------------------------------
    def jobs_per_region(self) -> dict[str, int]:
        counts = np.bincount(self.region_idx, minlength=len(self.region_keys))
        return {key: int(counts[i]) for i, key in enumerate(self.region_keys)}

    def region_distribution(self) -> dict[str, float]:
        counts = self.jobs_per_region()
        total = sum(counts.values())
        if total == 0:
            return {key: 0.0 for key in counts}
        return {key: value / total for key, value in counts.items()}

    @property
    def overall_utilization(self) -> float:
        total_servers = sum(self.region_servers.values())
        if total_servers == 0:
            return 0.0
        return (
            sum(
                self.region_utilization.get(key, 0.0) * servers
                for key, servers in self.region_servers.items()
            )
            / total_servers
        )

    # -- overhead ----------------------------------------------------------------------
    @property
    def total_decision_time_s(self) -> float:
        return float(sum(self.decision_times_s))

    @property
    def mean_decision_time_s(self) -> float:
        if not self.decision_times_s:
            return 0.0
        return self.total_decision_time_s / len(self.decision_times_s)

    def decision_overhead_fraction(self) -> float:
        if not self.num_jobs:
            return 0.0
        mean_exec = float(np.mean(self.execution_time))
        if mean_exec == 0.0:
            return 0.0
        return self.mean_decision_time_s / mean_exec

    # -- identity ----------------------------------------------------------------------
    def digest(self) -> int:
        """CRC32 over every per-job decision column (job-id order).

        Two runs that made the same scheduling decisions — same executed
        regions, start/finish/ready times, transfer latencies, deferral
        counts and footprints for every job — have equal digests.  The
        streaming engine's checkpoint/resume determinism tests compare this
        digest against the one-shot batch engine's.
        """
        crc = zlib.crc32(repr(self.region_keys).encode("utf-8"))
        for column in (
            self.job_id,
            self.home_idx,
            self.region_idx,
            self.arrival,
            self.considered,
            self.assigned,
            self.ready,
            self.start,
            self.finish,
            self.execution_time,
            self.transfer_latency,
            self.carbon_g,
            self.water_l,
            self.deferrals,
            self.evictions,
        ):
            crc = zlib.crc32(np.ascontiguousarray(column).tobytes(), crc)
        return crc

    # -- comparisons -------------------------------------------------------------------
    def carbon_savings_vs(self, baseline) -> float:
        """Percent carbon saving vs. another batch or scalar result."""
        if baseline.total_carbon_g == 0.0:
            return 0.0
        return 100.0 * (1.0 - self.total_carbon_g / baseline.total_carbon_g)

    def water_savings_vs(self, baseline) -> float:
        """Percent water saving vs. another batch or scalar result."""
        if baseline.total_water_l == 0.0:
            return 0.0
        return 100.0 * (1.0 - self.total_water_l / baseline.total_water_l)

    # -- object-world interop ----------------------------------------------------------
    def to_outcomes(self) -> list[JobOutcome]:
        """Materialize :class:`JobOutcome` objects (job-id order)."""
        outcomes = []
        for i in range(self.num_jobs):
            outcomes.append(
                JobOutcome(
                    job_id=int(self.job_id[i]),
                    workload=self.workloads[i],
                    home_region=self.region_keys[self.home_idx[i]],
                    executed_region=self.region_keys[self.region_idx[i]],
                    arrival_time=float(self.arrival[i]),
                    considered_time=float(self.considered[i]),
                    assigned_time=float(self.assigned[i]),
                    ready_time=float(self.ready[i]),
                    start_time=float(self.start[i]),
                    finish_time=float(self.finish[i]),
                    execution_time=float(self.execution_time[i]),
                    transfer_latency=float(self.transfer_latency[i]),
                    carbon_g=float(self.carbon_g[i]),
                    water_l=float(self.water_l[i]),
                    deferrals=int(self.deferrals[i]),
                    delay_tolerance=self.delay_tolerance,
                )
            )
        return outcomes

    def to_simulation_result(self) -> SimulationResult:
        """Full object-world :class:`SimulationResult` view of this result."""
        return SimulationResult(
            scheduler_name=self.scheduler_name,
            outcomes=self.to_outcomes(),
            region_servers=self.region_servers,
            region_utilization=self.region_utilization,
            makespan_s=self.makespan_s,
            decision_times_s=self.decision_times_s,
            round_times_s=self.round_times_s,
            delay_tolerance=self.delay_tolerance,
            trace_name=self.trace_name,
        )

    # -- reporting ---------------------------------------------------------------------
    def summary(self) -> dict[str, float | str | int]:
        """Flat summary dictionary, same keys as ``SimulationResult.summary``."""
        return {
            "scheduler": self.scheduler_name,
            "trace": self.trace_name,
            "jobs": self.num_jobs,
            "carbon_kg": round(self.total_carbon_kg, 3),
            "water_m3": round(self.total_water_m3, 3),
            "mean_service_ratio": round(self.mean_service_ratio, 4),
            "violation_pct": round(100.0 * self.violation_fraction, 3),
            "migration_pct": round(100.0 * self.migration_fraction, 2),
            "utilization_pct": round(100.0 * self.overall_utilization, 2),
            "mean_decision_time_s": round(self.mean_decision_time_s, 5),
            "delay_tolerance_pct": round(100.0 * self.delay_tolerance, 1),
        }

    def __repr__(self) -> str:
        return (
            f"BatchResult({self.scheduler_name!r}, jobs={self.num_jobs}, "
            f"carbon={self.total_carbon_kg:.2f} kg, water={self.total_water_m3:.2f} m3)"
        )

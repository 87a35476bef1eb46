"""Trace-driven discrete-event simulator for geo-distributed scheduling.

The simulator replays a :class:`~repro.traces.trace.Trace` against a set of
regional data centers under a scheduling policy:

1. Jobs arrive according to the trace.  At every scheduling round (a fixed
   cadence, the paper's "jobs invoked together or nearby in time") the policy
   receives the batch of jobs that arrived since the previous round plus any
   jobs it previously deferred, and must assign or defer each of them.
2. An assigned job pays the inter-region transfer latency if placed away from
   home, then occupies servers in the destination data center for its
   realized execution time, queuing FIFO if the data center is full.
3. When a job finishes, its realized carbon and water footprints are
   integrated against the destination region's hourly intensity series and
   recorded as a :class:`~repro.cluster.metrics.JobOutcome`.

The simulator measures the wall-clock time spent inside the policy at every
round (the paper's decision-making overhead, Fig. 13) and reports aggregate
results as a :class:`~repro.cluster.metrics.SimulationResult`.

This module holds the scalar reference :class:`Simulator` and
:class:`_SimulatorBase`, the configuration it shares with the array engine
(:class:`~repro.cluster.streaming.StreamingSimulator` and its one-shot front
:class:`~repro.cluster.streaming.BatchSimulator`).  The differential harness
holds the array engine to this simulator's decisions.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import math
import time as _time
from collections.abc import Mapping, Sequence

import numpy as np

from repro._validation import ensure_non_negative, ensure_positive
from repro.cluster.datacenter import Datacenter
from repro.cluster.footprint import FootprintCalculator
from repro.cluster.timeline import ChaosSpec, ClusterTimeline, get_chaos

# Unused here since the array engine moved to ``streaming``, but the
# benchmark's layer tracer (``bench/spans.py``) still patches these two names
# on this module and its tests require them; they go when it drops them.
from repro.cluster.events import process_until  # noqa: F401
from repro.cluster.timeline import apply_capacity_step  # noqa: F401
from repro.cluster.interface import Scheduler, SchedulingContext
from repro.cluster.metrics import JobOutcome, SimulationResult
from repro.regions.latency import TransferLatencyModel
from repro.regions.region import Region
from repro.sustainability.datasets import ElectricityMapsLikeProvider, SustainabilityDataset
from repro.sustainability.embodied import DEFAULT_SERVER, ServerSpec
from repro.traces.job import Job
from repro.traces.trace import Trace

__all__ = ["Simulator"]

_EVENT_FINISH = 0
_EVENT_READY = 1


@dataclasses.dataclass
class _PendingJob:
    job: Job
    considered_time: float
    deferrals: int = 0


@dataclasses.dataclass
class _Execution:
    job: Job
    region_key: str
    considered_time: float
    assigned_time: float
    ready_time: float
    transfer_latency: float
    deferrals: int
    start_time: float | None = None


class _SimulatorBase:
    """Shared configuration/validation of the scalar and array engines.

    Parameters
    ----------
    trace:
        The job trace to replay.
    scheduler:
        The scheduling policy under test.
    dataset:
        Sustainability dataset; built automatically (Electricity-Maps-like,
        covering the trace horizon plus a day of slack) when omitted.
    regions:
        Candidate regions; defaults to the dataset's regions.
    servers_per_region:
        Either one integer applied to every region or a mapping from region
        key to server count.
    scheduling_interval_s:
        Cadence of scheduling rounds (the batch window).
    delay_tolerance:
        Allowed relative service-time increase (0.25 = 25%).
    latency:
        Transfer latency model; a default model over ``regions`` is built
        when omitted.
    server:
        Server hardware model (energy / embodied footprints).
    include_embodied:
        Whether embodied footprints are charged to jobs.
    seed_dataset_horizon_slack_h:
        Extra dataset hours beyond the trace horizon (jobs finishing late).
    max_rounds:
        Safety limit on scheduling rounds (guards against policies that defer
        forever).
    kernel:
        Event-kernel flavour for the array engine.  ``"vector"`` (default,
        the production kernel) runs the batched clean-window path of
        :mod:`repro.cluster.events` with binding-point segmentation, then
        the release-heap conveyor, then a Python replay of whatever is
        left; ``"scalar"`` forces the classic event-at-a-time reference
        loop everywhere.  The two are decision-identical (the differential
        harness compares their digests); the scalar kernel exists as the
        testing reference and benchmark baseline.  The object-world
        :class:`Simulator` ignores it.  The choice is surfaced as
        ``result.kernel_stats`` telemetry.
    chaos:
        Optional chaos timeline: a :class:`~repro.cluster.timeline.ChaosSpec`,
        a registry name (``"region-outage"``, …) or a ``field=value,...``
        spec string.  Builds a deterministic
        :class:`~repro.cluster.timeline.ClusterTimeline` over the workload
        horizon: capacity events (outages, flaps, autoscale) drive per-region
        elasticity inside the event loop, and signal shocks perturb the
        sustainability datasets — carbon/water spikes apply to decisions
        *and* accounting, forecast error to decisions only
        (``self.dataset`` is the decision view; footprints integrate against
        the truth).  The array engine supports it; the object-world
        :class:`Simulator` raises.
    chaos_seed:
        Seed of the chaos timeline (independent of the trace seed).
    """

    def __init__(
        self,
        trace: Trace,
        scheduler: Scheduler,
        dataset: SustainabilityDataset | None = None,
        regions: Sequence[Region] | None = None,
        servers_per_region: int | Mapping[str, int] = 20,
        scheduling_interval_s: float = 300.0,
        delay_tolerance: float = 0.25,
        latency: TransferLatencyModel | None = None,
        server: ServerSpec = DEFAULT_SERVER,
        include_embodied: bool = True,
        seed_dataset_horizon_slack_h: int = 24,
        max_rounds: int = 1_000_000,
        kernel: str = "vector",
        chaos: "str | ChaosSpec | None" = None,
        chaos_seed: int = 0,
    ) -> None:
        self.trace = trace
        self.scheduler = scheduler
        # The *declared* horizon where the workload carries one (generator
        # duration; streams and their materialized traces agree on it, so
        # both engines see the identical value) and the last arrival
        # otherwise.  Sizes the auto-built dataset and the chaos timeline.
        horizon_s = getattr(trace, "declared_horizon_s", None)
        if horizon_s is None:
            horizon_s = getattr(trace, "horizon_s", 0.0)
        if dataset is None:
            horizon_hours = int(math.ceil(horizon_s / 3600.0)) + int(
                seed_dataset_horizon_slack_h
            )
            dataset = ElectricityMapsLikeProvider(horizon_hours=max(horizon_hours, 24))
        #: The un-perturbed dataset the caller supplied (or the auto-built
        #: one).  Multi-policy runners share *this* across engines so chaos
        #: perturbations are never applied twice.
        self.input_dataset = dataset
        self.dataset = dataset
        self.regions = tuple(regions) if regions is not None else tuple(dataset.regions)
        if not self.regions:
            raise ValueError("simulator needs at least one region")
        self.region_keys = [region.key for region in self.regions]
        self.scheduling_interval_s = ensure_positive(scheduling_interval_s, "scheduling_interval_s")
        self.delay_tolerance = ensure_non_negative(delay_tolerance, "delay_tolerance")
        self.latency = latency if latency is not None else TransferLatencyModel(self.regions)
        self.max_rounds = int(max_rounds)
        if kernel not in ("vector", "scalar"):
            raise ValueError(f"kernel must be 'vector' or 'scalar', got {kernel!r}")
        self.kernel = kernel

        if isinstance(servers_per_region, Mapping):
            missing = set(self.region_keys) - set(servers_per_region)
            if missing:
                raise ValueError(f"servers_per_region missing regions: {sorted(missing)}")
            self._servers = {key: int(servers_per_region[key]) for key in self.region_keys}
        else:
            self._servers = {key: int(servers_per_region) for key in self.region_keys}
        for key, count in self._servers.items():
            if count < 1:
                raise ValueError(f"region {key!r} must have at least one server")

        # Chaos: build the deterministic timeline and split the dataset into
        # a decision view (spikes + forecast error) and an accounting view
        # (spikes only).  Without chaos both views stay the caller's object.
        self.chaos: ChaosSpec | None = None
        self.chaos_seed = int(chaos_seed)
        self._timeline: ClusterTimeline | None = None
        accounting_dataset = dataset
        if chaos is not None:
            spec = get_chaos(chaos)
            self.chaos = spec
            baseline = np.array(
                [self._servers[key] for key in self.region_keys], dtype=np.int64
            )
            self._timeline = ClusterTimeline(
                spec, self.region_keys, baseline, horizon_s, seed=self.chaos_seed
            )
            n_hours = getattr(dataset, "horizon_hours", None)
            if n_hours is None:
                n_hours = int(math.ceil(horizon_s / 3600.0)) + 1
            spike_carbon, spike_water = self._timeline.signal_factor_arrays(int(n_hours))
            if spike_carbon or spike_water:
                accounting_dataset = dataset.with_hourly_factors(
                    spike_carbon, spike_water
                )
            decision_dataset = accounting_dataset
            noise_carbon, noise_water = self._timeline.forecast_factor_arrays(int(n_hours))
            if noise_carbon or noise_water:
                decision_dataset = accounting_dataset.with_hourly_factors(
                    noise_carbon, noise_water
                )
            self.dataset = decision_dataset
        self.footprints = FootprintCalculator(
            accounting_dataset, server=server, include_embodied=include_embodied
        )

    def _next_round_time(self, round_time: float, next_arrival: float | None) -> float:
        """Time of the next scheduling round (shared by both engines).

        Normally one interval later; when nothing is pending
        (``next_arrival`` is the first future arrival) the clock skips ahead
        to the first interval-aligned tick at or after that arrival instead
        of idling through empty rounds.
        """
        interval = self.scheduling_interval_s
        next_round = round_time + interval
        if next_arrival is not None and next_arrival > next_round:
            next_round = math.ceil(next_arrival / interval) * interval
            if next_round < next_arrival:
                next_round += interval
        return next_round

    def _attach_solver_stats(self, result) -> None:
        """Expose the scheduler's solver-session counters on the result.

        MILP-backed policies (the WaterWise family) own a
        :class:`~repro.milp.session.SolverSession` through their decision
        controller; its aggregate statistics (warm-start savings,
        structured-path hits) are part of a run's performance story,
        so both engines publish them.  Policies without a controller leave
        ``solver_stats`` as ``None``.
        """
        controller = getattr(self.scheduler, "controller", None)
        session = getattr(controller, "session", None)
        if session is not None:
            result.solver_stats = session.stats.as_dict()

    def _attach_chaos_stats(self, result, total_evictions: int) -> None:
        """Expose the chaos timeline's summary on the result (``None`` without chaos)."""
        if self._timeline is None:
            return
        stats = self._timeline.stats()
        stats["evictions"] = int(total_evictions)
        result.chaos_stats = stats

    def _attach_kernel_stats(self, result, stats) -> None:
        """Expose the event-kernel telemetry on the result.

        ``kernel_stats`` records which path every window event took (clean
        vectorized segment, conveyor, Python replay) and how many
        binding-point splits fired — so vectorization coverage is
        observable instead of inferred from wall time.  See
        :class:`repro.cluster.events.KernelStats`.
        """
        payload = stats.as_dict()
        payload["kernel"] = self.kernel
        result.kernel_stats = payload


class Simulator(_SimulatorBase):
    """Scalar reference engine: replay the trace one ``Job`` object at a time.

    This is the readable, obviously-correct implementation the paper's
    evaluation semantics are defined by.
    :class:`~repro.cluster.streaming.BatchSimulator` is the vectorized engine
    that must produce identical scheduling decisions and footprints (its
    equivalence is enforced by the test suite); prefer it for large traces.
    Construction parameters are documented on :class:`_SimulatorBase`.
    """

    # -- main entry point ----------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Run the simulation to completion and return the aggregated result."""
        if self._timeline is not None:
            raise NotImplementedError(
                "the object-world Simulator does not support chaos timelines; "
                "use BatchSimulator(kernel='scalar') as the chaos reference engine"
            )
        self.scheduler.reset()
        datacenters = {key: Datacenter(key, self._servers[key]) for key in self.region_keys}
        events: list[tuple[float, int, int, object]] = []
        sequence = itertools.count()
        pending: dict[int, _PendingJob] = {}
        executions: dict[int, _Execution] = {}
        outcomes: list[JobOutcome] = []
        decision_times: list[float] = []
        round_times: list[float] = []
        makespan = 0.0

        jobs = list(self.trace)
        trace_idx = 0

        def push_event(when: float, kind: int, payload: object) -> None:
            heapq.heappush(events, (when, kind, next(sequence), payload))

        def record_start(entry) -> None:
            execution = executions[entry.job.job_id]
            execution.start_time = entry.start_time
            push_event(entry.finish_time, _EVENT_FINISH, entry.job.job_id)

        def process_events_until(limit: float) -> None:
            nonlocal makespan
            while events and events[0][0] <= limit:
                when, kind, _seq, payload = heapq.heappop(events)
                if kind == _EVENT_READY:
                    execution = payload  # type: ignore[assignment]
                    dc = datacenters[execution.region_key]
                    entry = dc.admit(execution.job, when)
                    if entry is not None:
                        record_start(entry)
                else:  # _EVENT_FINISH
                    job_id = payload  # type: ignore[assignment]
                    execution = executions[job_id]
                    dc = datacenters[execution.region_key]
                    started = dc.finish(job_id, when)
                    for entry in started:
                        record_start(entry)
                    makespan = max(makespan, when)
                    outcomes.append(self._build_outcome(execution, finish_time=when))

        round_time = 0.0
        rounds = 0
        while trace_idx < len(jobs) or pending:
            if rounds > self.max_rounds:
                raise RuntimeError(
                    f"scheduling did not converge after {self.max_rounds} rounds "
                    f"({len(pending)} jobs still pending)"
                )
            # Advance the cluster state up to this round.
            process_events_until(round_time)

            # Pull newly arrived jobs into the pending set.
            while trace_idx < len(jobs) and jobs[trace_idx].arrival_time <= round_time:
                job = jobs[trace_idx]
                pending[job.job_id] = _PendingJob(job=job, considered_time=round_time)
                trace_idx += 1

            if pending:
                rounds += 1
                round_times.append(round_time)
                decision_seconds = self._run_round(
                    round_time, pending, datacenters, executions, push_event
                )
                decision_times.append(decision_seconds)

            # Choose the next round time.
            next_arrival = (
                jobs[trace_idx].arrival_time
                if not pending and trace_idx < len(jobs)
                else None
            )
            round_time = self._next_round_time(round_time, next_arrival)

        # Drain every remaining event (jobs still running or queued).
        process_events_until(math.inf)

        region_utilization = {
            key: dc.utilization(makespan) for key, dc in datacenters.items()
        }
        outcomes.sort(key=lambda outcome: outcome.job_id)
        result = SimulationResult(
            scheduler_name=self.scheduler.name,
            outcomes=outcomes,
            region_servers=dict(self._servers),
            region_utilization=region_utilization,
            makespan_s=makespan,
            decision_times_s=decision_times,
            round_times_s=round_times,
            delay_tolerance=self.delay_tolerance,
            trace_name=self.trace.name,
        )
        self._attach_solver_stats(result)
        return result

    # -- internals ----------------------------------------------------------------------------
    def _run_round(
        self,
        now: float,
        pending: dict[int, _PendingJob],
        datacenters: Mapping[str, Datacenter],
        executions: dict[int, _Execution],
        push_event,
    ) -> float:
        batch = [entry.job for entry in pending.values()]
        context = SchedulingContext(
            now=now,
            regions=self.regions,
            capacity={key: dc.remaining_capacity() for key, dc in datacenters.items()},
            dataset=self.dataset,
            latency=self.latency,
            footprints=self.footprints,
            delay_tolerance=self.delay_tolerance,
            scheduling_interval_s=self.scheduling_interval_s,
            job_wait_times={
                job_id: now - entry.considered_time for job_id, entry in pending.items()
            },
        )
        started = _time.perf_counter()
        decision = self.scheduler.schedule(batch, context)
        decision_seconds = _time.perf_counter() - started
        decision.validate_for(batch, self.region_keys)

        for job_id, region_key in decision.assignments.items():
            entry = pending.pop(job_id)
            transfer = self.latency.transfer_time(
                entry.job.home_region, region_key, entry.job.package_gb
            )
            execution = _Execution(
                job=entry.job,
                region_key=region_key,
                considered_time=entry.considered_time,
                assigned_time=now,
                ready_time=now + transfer,
                transfer_latency=transfer,
                deferrals=entry.deferrals,
            )
            executions[job_id] = execution
            push_event(execution.ready_time, _EVENT_READY, execution)

        for job_id in decision.deferred:
            pending[job_id].deferrals += 1
        return decision_seconds

    def _build_outcome(self, execution: _Execution, finish_time: float) -> JobOutcome:
        if execution.start_time is None:
            raise RuntimeError(f"job {execution.job.job_id} finished without a start time")
        carbon, water = self.footprints.integrate_job(
            execution.job, execution.region_key, execution.start_time
        )
        return JobOutcome(
            job_id=execution.job.job_id,
            workload=execution.job.workload,
            home_region=execution.job.home_region,
            executed_region=execution.region_key,
            arrival_time=execution.job.arrival_time,
            considered_time=execution.considered_time,
            assigned_time=execution.assigned_time,
            ready_time=execution.ready_time,
            start_time=execution.start_time,
            finish_time=finish_time,
            execution_time=execution.job.realized_execution_time,
            transfer_latency=execution.transfer_latency,
            carbon_g=carbon,
            water_l=water,
            deferrals=execution.deferrals,
            delay_tolerance=self.delay_tolerance,
        )

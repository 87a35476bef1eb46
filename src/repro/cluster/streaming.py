"""The array simulation engine: bounded-memory, checkpointable, chunk-fed.

:class:`StreamingSimulator` runs the trace-driven discrete-event simulation
against a chunked :class:`~repro.traces.stream.TraceSource`, holding only

* the current chunk of not-yet-arrived jobs,
* the in-flight jobs (pending, queued or executing), and
* O(1) carry-over accumulators for metrics and footprints,

in a slot-recycling job pool: memory is O(chunk + active jobs) instead of
O(trace).  The engine is split into the resumable triple
:meth:`~StreamingSimulator.init_state` / :meth:`~StreamingSimulator.advance`
/ :meth:`~StreamingSimulator.finalize` around an explicit, picklable
:class:`EngineState` (event heap, queues, free/committed servers, in-flight
executions, accumulators), so a run can be checkpointed to disk at any chunk
boundary and resumed later — bit-identically, which the differential harness
enforces for every registered scheduler.

It is the only array round loop.  :class:`BatchSimulator` is its one-shot
front over a materialized trace (a :class:`~repro.traces.stream.TraceView`
collected with ``collect="full"``), :class:`~repro.cluster.multi.MultiPolicyRunner`
steps one engine per policy over a shared chunk stream, and
:meth:`StreamingSimulator.admit` feeds it live submissions.  The scalar
:class:`~repro.cluster.simulator.Simulator` is the reference the
differential harness holds it to.

Chunking never changes a decision because of one safety rule: a scheduling
round at time *T* only runs once every arrival ≤ *T* has been ingested.
Chunks are time-ordered (:meth:`~StreamingSimulator.advance` rejects
non-finite or decreasing arrivals), so after ingesting a chunk whose last
arrival is the *watermark* ``A``, every round with ``T < A`` is safe; rounds
at or beyond the watermark wait for the next chunk (or :meth:`finalize`).
The scheduler object itself (decision-controller history, slack manager,
solver-session warm bases) simply persists across chunk boundaries.

Results come in two shapes, chosen with ``collect``:

* ``"full"`` (default) — per-job columns are retained and :meth:`finalize`
  returns a regular :class:`~repro.cluster.batch.BatchResult`, the result
  :class:`BatchSimulator` returns, so their ``BatchResult.digest`` values
  agree by construction.  Memory is O(trace) for the *result* only; the
  simulation state stays bounded.
* ``"aggregate"`` — finished jobs fold into
  :class:`~repro.cluster.metrics.RunningJobStats` (totals, means, streaming
  histogram quantiles, seeded reservoir sample) and
  :class:`~repro.cluster.footprint.RunningFootprintTotals`; :meth:`finalize`
  returns a :class:`StreamResult` and memory stays bounded end to end.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import os
import pickle
import time as _time
import zlib
from collections import deque
from pathlib import Path

import numpy as np

from repro.cluster.batch import (
    BatchResult,
    BatchSchedulingContext,
    JobArrays,
    resolve_fast_decision,
)
from repro.cluster.events import EventQueue, KernelStats, process_until
from repro.cluster.footprint import RunningFootprintTotals
from repro.cluster.interface import SchedulingContext
from repro.cluster.metrics import RunningJobStats
from repro.cluster.simulator import _SimulatorBase
from repro.cluster.timeline import apply_capacity_step
from repro.regions.latency import TransferLatencyModel
from repro.traces.job import Job
from repro.traces.stream import JobChunk, TraceView

__all__ = [
    "AdmissionDecisions",
    "BatchSimulator",
    "EngineState",
    "StreamResult",
    "StreamingSimulator",
    "CHECKPOINT_FORMAT",
    "atomic_pickle_dump",
]


def atomic_pickle_dump(path, payload) -> None:
    """Pickle ``payload`` to ``path`` atomically (tmp + fsync + rename).

    Serialize first, write to a sibling temp file, then ``os.replace()`` over
    the target.  A crash mid-write (or a full disk) leaves the previous file
    intact instead of a truncated, unloadable pickle — the whole point of
    checkpointing long runs.  Shared by engine checkpoints and the shard
    fabric's spill files.
    """
    target = Path(path)
    blob = pickle.dumps(payload)
    tmp = target.with_name(f".{target.name}.tmp-{os.getpid()}")
    try:
        with open(tmp, "wb") as sink:
            sink.write(blob)
            sink.flush()
            os.fsync(sink.fileno())
        os.replace(tmp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise

#: Version tag of the checkpoint payload; bumped on incompatible layout
#: changes so stale checkpoints fail loudly instead of resuming garbage.
#: Format 2: the event heap became the sorted-array
#: :class:`~repro.cluster.events.EventQueue`, the waiting queue became
#: slot/arrival arrays, and FIFO queue entries became
#: ``(slot, servers_required)`` pairs.
#: Format 3 (chaos & elasticity): :class:`EngineState` carries the mutable
#: per-region ``capacity`` array and the chaos-timeline cursor
#: ``timeline_pos``, the job pool grew an ``evictions`` state column, and
#: the checkpoint config records ``chaos``/``chaos_seed`` so a resume
#: rebuilds the identical :class:`~repro.cluster.timeline.ClusterTimeline`.
#: Format 4 (kernel telemetry): :class:`EngineState` carries the cumulative
#: :class:`~repro.cluster.events.KernelStats` telemetry so a resumed run
#: keeps counting, and resume may switch between the ``vector`` and
#: ``scalar`` kernels (full-collect digests agree across them).  Files saved
#: with a since-removed ``kernel`` value resume with the ``kernel="vector"``
#: override.
CHECKPOINT_FORMAT = 4

#: Per-job *data* columns of the slot pool (written once at ingest).
_DATA_COLUMNS = (
    ("job_id", np.int64),
    ("arrival", float),
    ("exec_est", float),
    ("exec_real", float),
    ("energy_est", float),
    ("energy_real", float),
    ("home", np.int64),
    ("package", float),
    ("servers", np.int64),
    ("workload", np.int64),
)

#: Per-job *state* columns (mutated as the job progresses).
_STATE_COLUMNS = (
    ("considered", float),
    ("assigned", float),
    ("ready", float),
    ("start", float),
    ("finish", float),
    ("transfer", float),
    ("region", np.int64),
    ("deferrals", np.int64),
    ("evictions", np.int64),
)


@dataclasses.dataclass
class EngineState:
    """Everything the simulation carries across chunk boundaries.

    The job pool is a set of slot-indexed columns; a slot is occupied from
    ingest until the job finishes *and* its outcome has been flushed into the
    result collector, then recycled.  All contents are plain
    dicts/lists/deques/NumPy arrays, so the state pickles — that is the
    checkpoint format.
    """

    region_keys: tuple[str, ...]
    pool: dict[str, np.ndarray]
    free_slots: list[int]
    #: Ingested-but-not-yet-considered slots, arrival-sorted; ``waiting_head``
    #: is the first live index (the prefix is already consumed).
    waiting_slots: np.ndarray
    waiting_arrival: np.ndarray
    waiting_head: int
    pending: dict[int, None]
    events: EventQueue
    #: Per-region FIFO queues of ``(slot, servers_required)`` pairs — the
    #: server demand rides along so the event kernel's admission checks stay
    #: on plain Python ints (see ``events._replay``).
    queues: list[deque[tuple[int, int]]]
    free: np.ndarray
    committed: np.ndarray
    busy_server_seconds: np.ndarray
    finished: list[int]
    workload_names: list[str]
    collector: object
    makespan: float = 0.0
    round_time: float = 0.0
    rounds: int = 0
    watermark: float = 0.0
    jobs_seen: int = 0
    chunks_seen: int = 0
    decision_times: list[float] = dataclasses.field(default_factory=list)
    round_times: list[float] = dataclasses.field(default_factory=list)
    #: Current per-region capacity (baseline until a chaos timeline mutates
    #: it) and the timeline cursor — both part of the checkpoint (format 3).
    capacity: np.ndarray | None = None
    timeline_pos: int = 0
    #: Cumulative event-kernel telemetry (format 4): plain dataclass of
    #: counters, pickled with the state so a resumed run keeps counting.
    kernel_stats: KernelStats = dataclasses.field(default_factory=KernelStats)

    @property
    def pool_capacity(self) -> int:
        return len(self.pool["job_id"])

    @property
    def waiting_count(self) -> int:
        return len(self.waiting_slots) - self.waiting_head

    @property
    def active_jobs(self) -> int:
        """Occupied pool slots (waiting + pending + in flight + unflushed)."""
        return self.pool_capacity - len(self.free_slots)

    def allocate(self, count: int) -> np.ndarray:
        """Claim ``count`` slots, growing the pool geometrically if needed."""
        shortfall = count - len(self.free_slots)
        if shortfall > 0:
            capacity = self.pool_capacity
            grow = max(shortfall, capacity, 64)
            for (name, dtype) in (*_DATA_COLUMNS, *_STATE_COLUMNS):
                column = self.pool[name]
                extension = np.zeros(grow, dtype=column.dtype)
                self.pool[name] = np.concatenate([column, extension])
            self.free_slots.extend(range(capacity + grow - 1, capacity - 1, -1))
        return np.array([self.free_slots.pop() for _ in range(count)], dtype=np.int64)


@dataclasses.dataclass(frozen=True)
class AdmissionDecisions:
    """Placement decisions drained from one :meth:`StreamingSimulator.admit` call.

    Columns are parallel arrays: job ``job_id[i]`` was placed on region
    ``region_keys[region_idx[i]]`` by the scheduling round at simulation time
    ``decided_at[i]``.  Jobs admitted but not yet decided (deferred, or
    waiting for the watermark to pass their round) simply appear in a later
    drain — the admission API never drops a decision.
    """

    region_keys: tuple[str, ...]
    job_id: np.ndarray
    region_idx: np.ndarray
    decided_at: np.ndarray

    def __len__(self) -> int:
        return len(self.job_id)

    def items(self):
        """Iterate ``(job_id, region_key, decided_at)`` triples."""
        keys = self.region_keys
        for i in range(len(self.job_id)):
            yield int(self.job_id[i]), keys[self.region_idx[i]], float(self.decided_at[i])


class _WorkloadView:
    """Lazy slot → workload-name sequence for :class:`JobArrays`.

    Fast paths never read ``JobArrays.workloads``; materializing a pool-sized
    tuple of strings every round would be pure overhead, so the view resolves
    codes on demand.
    """

    def __init__(self, codes: np.ndarray, names: list[str]) -> None:
        self._codes = codes
        self._names = names

    def __len__(self) -> int:
        return len(self._codes)

    def __getitem__(self, index):
        return self._names[self._codes[index]]


#: Pool columns a flush hands to the collectors beside the integrated
#: ``carbon``/``water``; ``job_id`` comes first because the full collector
#: sorts by it.
_FINISHED_COLUMNS = (
    "job_id", "arrival", "considered", "assigned", "ready", "start", "finish",
    "exec_real", "transfer", "deferrals", "evictions", "home", "region", "workload",
)


class _FullCollector:
    """Retain finished-job columns and finalize into a :class:`BatchResult`."""

    kind = "full"

    def __init__(self) -> None:
        self._parts: list[dict[str, np.ndarray]] = []

    def add(self, rows: dict[str, np.ndarray]) -> None:
        self._parts.append(rows)

    def finalize(self, engine: "StreamingSimulator", state: EngineState) -> BatchResult:
        # Merge and sort one column at a time, dropping its parts as soon as
        # it is merged: the live data stays at one copy of the columns plus
        # two, where concatenating every column first held three copies.
        # The sorted columns replace the parts, so finalizing again returns
        # an equal result.
        parts = self._parts or [engine._finished_rows(np.zeros(0, dtype=np.int64))]
        merged: dict[str, np.ndarray] = {}
        order = None
        for key in list(parts[0]):
            column = np.concatenate([part.pop(key) for part in parts])
            if order is None:
                order = np.argsort(column, kind="stable")
            merged[key] = column[order]
            del column
        self._parts = [merged]
        names = state.workload_names
        return BatchResult(
            scheduler_name=engine.scheduler.name,
            trace_name=engine.trace_name,
            region_keys=state.region_keys,
            job_id=merged["job_id"],
            workloads=[names[code] for code in merged["workload"]],
            home_idx=merged["home"],
            region_idx=merged["region"],
            arrival=merged["arrival"],
            considered=merged["considered"],
            assigned=merged["assigned"],
            ready=merged["ready"],
            start=merged["start"],
            finish=merged["finish"],
            execution_time=merged["exec_real"],
            transfer_latency=merged["transfer"],
            carbon_g=merged["carbon"],
            water_l=merged["water"],
            deferrals=merged["deferrals"],
            evictions=merged["evictions"],
            region_servers=engine.servers_by_region(),
            region_utilization=engine.region_utilization(state),
            makespan_s=state.makespan,
            decision_times_s=state.decision_times,
            round_times_s=state.round_times,
            delay_tolerance=engine.delay_tolerance,
        )


class _AggregateCollector:
    """Fold finished jobs into O(1) carry-over accumulators."""

    kind = "aggregate"

    def __init__(
        self,
        n_regions: int,
        delay_tolerance: float,
        reservoir_size: int,
        seed: int,
    ) -> None:
        self.stats = RunningJobStats(
            n_regions,
            delay_tolerance,
            reservoir_size=reservoir_size,
            seed=seed,
        )
        self.footprints = RunningFootprintTotals(n_regions)

    def add(self, rows: dict[str, np.ndarray]) -> None:
        self.stats.add(
            region_idx=rows["region"],
            home_idx=rows["home"],
            considered=rows["considered"],
            ready=rows["ready"],
            start=rows["start"],
            finish=rows["finish"],
            execution_time=rows["exec_real"],
            transfer_latency=rows["transfer"],
            carbon_g=rows["carbon"],
            water_l=rows["water"],
            job_id=rows["job_id"],
            evictions=rows["evictions"],
        )
        self.footprints.add(rows["region"], rows["carbon"], rows["water"])

    def finalize(self, engine: "StreamingSimulator", state: EngineState) -> "StreamResult":
        return StreamResult(
            scheduler_name=engine.scheduler.name,
            trace_name=engine.trace_name,
            region_keys=state.region_keys,
            stats=self.stats,
            footprint_totals=self.footprints,
            region_servers=engine.servers_by_region(),
            region_utilization=engine.region_utilization(state),
            makespan_s=state.makespan,
            decision_times_s=state.decision_times,
            round_times_s=state.round_times,
            delay_tolerance=engine.delay_tolerance,
        )


class StreamResult:
    """Aggregate-only result of a streaming run (no per-job columns).

    Exposes the same figures of merit — and the same :meth:`summary` keys —
    as :class:`~repro.cluster.batch.BatchResult`, so reports and savings
    tables accept either result type, plus the streaming extras: streaming service
    -ratio quantiles and the seeded reservoir sample of per-job rows.
    """

    #: See :attr:`repro.cluster.metrics.SimulationResult.solver_stats`.
    solver_stats: dict | None = None
    #: See :attr:`repro.cluster.batch.BatchResult.chaos_stats`.
    chaos_stats: dict | None = None

    def __init__(
        self,
        scheduler_name: str,
        trace_name: str,
        region_keys: tuple[str, ...],
        stats: RunningJobStats,
        footprint_totals: RunningFootprintTotals,
        region_servers: dict[str, int],
        region_utilization: dict[str, float],
        makespan_s: float,
        decision_times_s: list[float],
        round_times_s: list[float],
        delay_tolerance: float,
    ) -> None:
        self.scheduler_name = scheduler_name
        self.trace_name = trace_name
        self.region_keys = tuple(region_keys)
        self.stats = stats
        self.footprint_totals = footprint_totals
        self.region_servers = dict(region_servers)
        self.region_utilization = dict(region_utilization)
        self.makespan_s = float(makespan_s)
        self.decision_times_s = tuple(decision_times_s)
        self.round_times_s = tuple(round_times_s)
        self.delay_tolerance = float(delay_tolerance)

    # -- totals ------------------------------------------------------------------------
    @property
    def num_jobs(self) -> int:
        return self.stats.num_jobs

    @property
    def total_evictions(self) -> int:
        """Total chaos evictions/requeues across jobs (0 without a timeline)."""
        return int(self.stats.evictions)

    @property
    def total_carbon_g(self) -> float:
        return self.footprint_totals.total_carbon_g

    @property
    def total_carbon_kg(self) -> float:
        return self.total_carbon_g / 1000.0

    @property
    def total_water_l(self) -> float:
        return self.footprint_totals.total_water_l

    @property
    def total_water_m3(self) -> float:
        return self.total_water_l / 1000.0

    # -- service time / distribution -----------------------------------------------------
    @property
    def mean_service_ratio(self) -> float:
        return self.stats.mean_service_ratio

    @property
    def violation_fraction(self) -> float:
        return self.stats.violation_fraction

    @property
    def migration_fraction(self) -> float:
        return self.stats.migration_fraction

    @property
    def mean_queue_delay_s(self) -> float:
        return self.stats.mean_queue_delay_s

    @property
    def mean_transfer_latency_s(self) -> float:
        return self.stats.mean_transfer_latency_s

    def service_ratio_quantiles(self) -> dict[float, float]:
        """Streaming histogram estimates, keyed by quantile (0.5/0.95/0.99)."""
        return self.stats.service_ratio_quantiles()

    def reservoir_rows(self) -> dict[str, np.ndarray]:
        """The seeded uniform per-job sample (empty dict when disabled)."""
        if self.stats.reservoir is None:
            return {}
        return self.stats.reservoir.rows()

    def jobs_per_region(self) -> dict[str, int]:
        counts = self.stats.jobs_per_region
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
        mean_exec = self.stats.mean_execution_time_s
        if mean_exec == 0.0:
            return 0.0
        return self.mean_decision_time_s / mean_exec

    # -- comparisons -------------------------------------------------------------------
    def carbon_savings_vs(self, baseline) -> float:
        if baseline.total_carbon_g == 0.0:
            return 0.0
        return 100.0 * (1.0 - self.total_carbon_g / baseline.total_carbon_g)

    def water_savings_vs(self, baseline) -> float:
        if baseline.total_water_l == 0.0:
            return 0.0
        return 100.0 * (1.0 - self.total_water_l / baseline.total_water_l)

    # -- verification ------------------------------------------------------------------
    def digest(self) -> int:
        """CRC32 over the decision-relevant aggregates.

        The aggregate-mode counterpart of ``BatchResult.digest``: covers the
        exact totals, counters, per-region distributions, utilization,
        makespan and quantile estimates, and excludes wall-clock measurements
        (decision/round times) and the reservoir sample.  Because the
        accumulators are exact and order-independent, the digest is invariant
        to chunk size *and any sharded partition of the job stream* merged
        through the fabric — the distributed differential gate asserts
        equality against the single-box fused run.  It is not invariant to
        the event kernel: the ``vector`` and ``scalar`` kernels sum busy
        server-seconds in different float orders, so region utilization (and
        with it the digest) may differ in the last bits between them; every
        other hashed field is identical.
        """
        stats = self.stats
        quantiles = stats.quantiles
        crc = zlib.crc32(repr(self.region_keys).encode())
        crc = zlib.crc32(repr(sorted(self.region_servers.items())).encode(), crc)
        counters = np.array(
            [
                stats.num_jobs,
                stats.violations,
                stats.migrated,
                stats.evictions,
                quantiles.count,
            ],
            dtype=np.int64,
        )
        crc = zlib.crc32(counters.tobytes(), crc)
        crc = zlib.crc32(
            np.ascontiguousarray(stats.jobs_per_region, dtype=np.int64).tobytes(), crc
        )
        totals = np.array(
            [
                stats.carbon_g,
                stats.water_l,
                stats.service_ratio_sum,
                stats.queue_delay_sum,
                stats.transfer_sum,
                stats.execution_sum,
                self.makespan_s,
            ]
        )
        crc = zlib.crc32(totals.tobytes(), crc)
        crc = zlib.crc32(self.footprint_totals.carbon_g_per_region.tobytes(), crc)
        crc = zlib.crc32(self.footprint_totals.water_l_per_region.tobytes(), crc)
        utilization = np.array(
            [self.region_utilization.get(key, 0.0) for key in self.region_keys]
        )
        crc = zlib.crc32(utilization.tobytes(), crc)
        estimates = np.array(
            [quantiles.min, quantiles.max, *(quantiles.value(q) for q in quantiles.qs)]
        )
        crc = zlib.crc32(estimates.tobytes(), crc)
        return crc

    # -- reporting ---------------------------------------------------------------------
    def summary(self) -> dict[str, float | str | int]:
        """Flat summary dictionary, same keys as ``BatchResult.summary``."""
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
            f"StreamResult({self.scheduler_name!r}, jobs={self.num_jobs}, "
            f"carbon={self.total_carbon_kg:.2f} kg, water={self.total_water_m3:.2f} m3)"
        )


class StreamingSimulator(_SimulatorBase):
    """Chunk-at-a-time batch engine over a :class:`TraceSource`.

    Construction parameters extend :class:`_SimulatorBase` (the first
    positional argument is a *source*, not a trace — any object with
    ``iter_chunks`` / ``horizon_s``):

    chunk_size:
        Jobs per chunk pulled from the source in :meth:`run` (callers driving
        :meth:`advance` themselves may use any chunking — results are
        chunk-size-invariant).
    collect:
        ``"full"`` retains per-job columns and finalizes into a
        :class:`BatchResult`; ``"aggregate"`` keeps O(1) accumulators and
        finalizes into a :class:`StreamResult`.
    reservoir_size / reservoir_seed:
        Size and seed of the aggregate mode's uniform per-job sample
        (0 disables it).
    """

    def __init__(
        self,
        source,
        scheduler,
        dataset=None,
        regions=None,
        servers_per_region=20,
        scheduling_interval_s: float = 300.0,
        delay_tolerance: float = 0.25,
        latency=None,
        server=None,
        include_embodied: bool = True,
        seed_dataset_horizon_slack_h: int = 24,
        max_rounds: int = 1_000_000,
        chunk_size: int = 4096,
        collect: str = "full",
        reservoir_size: int = 256,
        reservoir_seed: int = 0,
        kernel: str = "vector",
        chaos=None,
        chaos_seed: int = 0,
    ) -> None:
        base_kwargs = dict(
            dataset=dataset,
            regions=regions,
            servers_per_region=servers_per_region,
            scheduling_interval_s=scheduling_interval_s,
            delay_tolerance=delay_tolerance,
            latency=latency,
            include_embodied=include_embodied,
            seed_dataset_horizon_slack_h=seed_dataset_horizon_slack_h,
            max_rounds=max_rounds,
            kernel=kernel,
            chaos=chaos,
            chaos_seed=chaos_seed,
        )
        if server is not None:
            base_kwargs["server"] = server
        super().__init__(source, scheduler, **base_kwargs)
        if int(chunk_size) < 1:
            raise ValueError("chunk_size must be >= 1")
        if collect not in ("full", "aggregate"):
            raise ValueError(f"collect must be 'full' or 'aggregate', got {collect!r}")
        self.source = source
        self.chunk_size = int(chunk_size)
        self.collect = collect
        self.reservoir_size = int(reservoir_size)
        self.reservoir_seed = int(reservoir_seed)
        self.state: EngineState | None = None
        self._region_index = {key: i for i, key in enumerate(self.region_keys)}
        self._keys_tuple = tuple(self.region_keys)
        # Hoisted out of the drain loop: the per-region server-count array and
        # the fast-path resolution used to be rebuilt on every `_drain` call
        # (measurable at small chunk sizes).  Both are fixed at construction —
        # the scheduler object and region set never change mid-run.
        from repro.schedulers.vectorized import fast_path_for  # lazy: import cycle

        self._servers_array = np.array(
            [self._servers[key] for key in self.region_keys], dtype=np.int64
        )
        self._fast_path = fast_path_for(scheduler)
        # Slot → materialized Job for the scalar-policy fallback rounds: a
        # deferred job used to be rebuilt as a fresh ``Job`` every round it
        # stayed pending.  Entries are dropped when the slot is flushed and
        # recycled; the cache is derived state (a pure function of the pool
        # columns), so it is deliberately not part of checkpoints.
        self._job_cache: dict[int, Job] = {}
        # Transfer latency split into a per-pair propagation term and a
        # per-job serialization term (their sum equals
        # ``TransferLatencyModel.transfer_time`` exactly).  Subclasses may
        # override ``transfer_time`` with a non-additive formula, and
        # duck-typed models only need ``transfer_time()``, so both get a
        # per-job call in ``_commit_batch`` instead.
        self._transfer_decomposes = type(self.latency) is TransferLatencyModel
        if self._transfer_decomposes:
            self._propagation = self.latency.propagation_seconds(self.region_keys)
        else:
            self._propagation = None
        self._region_vocab_maps: dict[tuple[str, ...], np.ndarray] = {}
        self._workload_vocab_maps: dict[tuple[str, ...], np.ndarray] = {}
        # Online-admission decision log: armed by admit()/drain_decisions()
        # so batch-style runs never pay for the recording.  Entries are
        # ``(job_id array, region array, round time)`` per commit; the log is
        # ephemeral (delivered decisions are not part of checkpoints — a
        # resumed session re-emits only the still-pending jobs' decisions).
        self._record_decisions = False
        self._decision_log: list[tuple[np.ndarray, np.ndarray, float]] = []

    # -- small helpers -----------------------------------------------------------------
    @property
    def trace_name(self) -> str:
        return getattr(self.source, "trace_name", getattr(self.source, "name", "stream"))

    def servers_by_region(self) -> dict[str, int]:
        return dict(self._servers)

    def region_utilization(self, state: EngineState) -> dict[str, float]:
        servers = np.array([self._servers[key] for key in self.region_keys])
        return {
            key: (
                float(state.busy_server_seconds[idx] / (servers[idx] * state.makespan))
                if state.makespan > 0.0
                else 0.0
            )
            for idx, key in enumerate(self.region_keys)
        }

    # -- lifecycle ---------------------------------------------------------------------
    def init_state(self) -> EngineState:
        """Fresh engine state; resets the scheduler (once per run, not per chunk)."""
        self.scheduler.reset()
        # Both caches index into the state being replaced: workload codes
        # point into its ``workload_names``, cached Jobs are keyed by its
        # slots, and the new pool reuses those slot numbers.
        self._workload_vocab_maps.clear()
        self._job_cache.clear()
        n_regions = len(self.region_keys)
        servers = np.array(
            [self._servers[key] for key in self.region_keys], dtype=np.int64
        )
        if self.collect == "full":
            collector: object = _FullCollector()
        else:
            collector = _AggregateCollector(
                n_regions,
                self.delay_tolerance,
                reservoir_size=self.reservoir_size,
                seed=self.reservoir_seed,
            )
        self.state = EngineState(
            region_keys=self._keys_tuple,
            pool={
                name: np.zeros(0, dtype=dtype)
                for name, dtype in (*_DATA_COLUMNS, *_STATE_COLUMNS)
            },
            free_slots=[],
            waiting_slots=np.zeros(0, dtype=np.int64),
            waiting_arrival=np.zeros(0),
            waiting_head=0,
            pending={},
            events=EventQueue(),
            queues=[deque() for _ in range(n_regions)],
            free=servers.copy(),
            committed=np.zeros(n_regions, dtype=np.int64),
            busy_server_seconds=np.zeros(n_regions),
            finished=[],
            workload_names=[],
            collector=collector,
            capacity=servers.copy(),
            timeline_pos=0,
        )
        return self.state

    def _region_remap(self, chunk: JobChunk) -> np.ndarray:
        remap = self._region_vocab_maps.get(chunk.region_keys)
        if remap is None:
            remap = np.array(
                [self._region_index.get(key, -1) for key in chunk.region_keys],
                dtype=np.int64,
            )
            self._region_vocab_maps[chunk.region_keys] = remap
        return remap

    def _workload_remap(self, chunk: JobChunk, state: EngineState) -> np.ndarray:
        remap = self._workload_vocab_maps.get(chunk.workload_names)
        if remap is None:
            codes = []
            for name in chunk.workload_names:
                try:
                    codes.append(state.workload_names.index(name))
                except ValueError:
                    state.workload_names.append(name)
                    codes.append(len(state.workload_names) - 1)
            remap = np.array(codes, dtype=np.int64)
            self._workload_vocab_maps[chunk.workload_names] = remap
        return remap

    def advance(self, chunk: JobChunk) -> None:
        """Ingest one time-ordered chunk and run every round it makes safe."""
        state = self.state
        if state is None:
            state = self.init_state()
        if chunk.n:
            self._ingest(chunk)
        state.chunks_seen += 1
        self._drain(final=False)
        self._flush_finished()

    def admit(
        self, chunk: JobChunk | None = None, now: float | None = None
    ) -> AdmissionDecisions:
        """Online admission: ingest ``chunk``, advance to ``now``, return decisions.

        This is the live-service counterpart of :meth:`advance`.  The call

        1. ingests the (optional, possibly empty) time-ordered chunk of newly
           submitted jobs,
        2. raises the safety watermark to ``now`` — the *clock* watermark: in
           a live session no future submission can arrive before the present,
           so every scheduling round up to ``now`` is safe even without new
           arrivals (this is what lets deferred jobs make progress between
           requests; chaos-timeline events below the watermark fire exactly
           as they do in a batch run),
        3. runs every round the watermark makes safe, and
        4. drains and returns the placement decisions committed since the
           previous drain (which may include jobs from earlier ``admit``
           calls, and may exclude just-admitted jobs that were deferred).

        Passing ``now=None`` leaves the watermark driven purely by arrivals —
        the replay gateway uses that mode, which makes a paced replay
        decision-identical to :meth:`run` by construction.  Decisions are
        recorded only once this method (or :meth:`drain_decisions`) has been
        called, so batch-style runs pay nothing for the facility.
        """
        state = self.state
        if state is None:
            state = self.init_state()
        self._record_decisions = True
        if chunk is not None:
            if chunk.n:
                self._ingest(chunk)
            state.chunks_seen += 1
        if now is not None and float(now) > state.watermark:
            state.watermark = float(now)
        self._drain(final=False)
        self._flush_finished()
        return self.drain_decisions()

    def drain_decisions(self) -> AdmissionDecisions:
        """Return (and clear) the decisions committed since the last drain.

        Arms decision recording as a side effect; a gateway that finalizes
        the engine calls this once more after :meth:`finalize` to collect the
        decisions of the closing rounds.
        """
        self._record_decisions = True
        log = self._decision_log
        if not log:
            empty = np.zeros(0, dtype=np.int64)
            return AdmissionDecisions(
                region_keys=self._keys_tuple,
                job_id=empty,
                region_idx=empty,
                decided_at=np.zeros(0),
            )
        self._decision_log = []
        return AdmissionDecisions(
            region_keys=self._keys_tuple,
            job_id=np.concatenate([job_id for job_id, _, _ in log]),
            region_idx=np.concatenate([region for _, region, _ in log]),
            decided_at=np.concatenate(
                [np.full(len(job_id), when) for job_id, _, when in log]
            ),
        )

    def _ingest(self, chunk: JobChunk) -> None:
        """Validate + copy one non-empty chunk into the slot pool."""
        state = self.state
        n = chunk.n
        arrivals = np.asarray(chunk.arrival, dtype=float)
        # No round ever reaches a NaN arrival (it compares false with every
        # round time), so the final drain would tick forever; a decreasing
        # arrival would be considered rounds late.  Both are rejected before
        # any state changes.
        bad = np.flatnonzero(~np.isfinite(arrivals))
        if len(bad):
            i = int(bad[0])
            raise ValueError(
                f"job {int(chunk.job_id[i])} has a non-finite arrival time "
                f"{arrivals[i]!r}"
            )
        if float(arrivals[0]) < state.watermark - 1e-12:
            raise ValueError(
                "chunk arrives out of order: first arrival "
                f"{float(arrivals[0]):.3f}s is before the watermark "
                f"{state.watermark:.3f}s"
            )
        back = np.flatnonzero(arrivals[1:] < arrivals[:-1])
        if len(back):
            i = int(back[0]) + 1
            raise ValueError(
                f"chunk arrives out of order: job {int(chunk.job_id[i])} "
                f"arrives at {arrivals[i]:.3f}s, before the previous job's "
                f"{arrivals[i - 1]:.3f}s"
            )
        remap = self._region_remap(chunk)
        home = remap[chunk.home_idx]
        if np.any(home < 0):
            i = int(np.flatnonzero(home < 0)[0])
            raise ValueError(
                f"job {int(chunk.job_id[i])} has home region "
                f"{chunk.region_keys[chunk.home_idx[i]]!r} which is not part "
                f"of the simulated cluster ({sorted(self.region_keys)})"
            )
        workload = self._workload_remap(chunk, state)[chunk.workload_idx]
        slots = state.allocate(n)
        pool = state.pool
        pool["job_id"][slots] = chunk.job_id
        pool["arrival"][slots] = arrivals
        pool["exec_est"][slots] = chunk.exec_est
        pool["exec_real"][slots] = chunk.exec_real
        pool["energy_est"][slots] = chunk.energy_est
        pool["energy_real"][slots] = chunk.energy_real
        pool["home"][slots] = home
        pool["package"][slots] = chunk.package_gb
        pool["servers"][slots] = chunk.servers
        pool["workload"][slots] = workload
        for name, _ in _STATE_COLUMNS:
            pool[name][slots] = -1 if name in ("region",) else 0
        pool["start"][slots] = -1.0
        pool["finish"][slots] = -1.0
        state.waiting_slots = np.concatenate(
            [state.waiting_slots[state.waiting_head:], slots]
        )
        state.waiting_arrival = np.concatenate(
            [state.waiting_arrival[state.waiting_head:], arrivals]
        )
        state.waiting_head = 0
        state.jobs_seen += n
        # max(): a live session may already have raised the clock watermark
        # past these arrivals (admit(now=...)); it must never move backwards.
        state.watermark = max(state.watermark, float(arrivals[-1]))

    def finalize(self):
        """Run the remaining rounds, drain every event, return the result."""
        state = self.state
        if state is None:
            state = self.init_state()
        self._drain(final=True)
        self._process_events_until(math.inf)
        self._flush_finished()
        result = state.collector.finalize(self, state)
        self._attach_solver_stats(result)
        if self._timeline is not None:
            if isinstance(result, BatchResult):
                total_evictions = result.total_evictions
            else:
                total_evictions = state.collector.stats.evictions
            self._attach_chaos_stats(result, total_evictions)
        self._attach_kernel_stats(result, state.kernel_stats)
        return result

    def run(self):
        """Stream the whole source (resuming if state was loaded) and finalize."""
        self.run_chunks()
        return self.finalize()

    def reset_collector(self) -> None:
        """Swap in a fresh aggregate collector (the shard fabric's slab seam).

        The fabric runs one (workload × policy) lineage as a chain of time
        slabs: each slab resets the collector on entry so its finalized
        aggregates cover only the jobs retired *during* the slab, and the
        coordinator merges the per-slab partials exactly
        (:meth:`RunningJobStats.merge`).  The replacement collector carries
        no reservoir — a uniform sample cannot be merged, so sharded runs
        disable it throughout.  Only ``collect="aggregate"`` has mergeable
        partials.
        """
        if self.collect != "aggregate":
            raise RuntimeError("reset_collector requires collect='aggregate'")
        if self.state is None:
            raise RuntimeError("no state to reset: run init_state()/advance() first")
        self.state.collector = _AggregateCollector(
            len(self.region_keys),
            self.delay_tolerance,
            reservoir_size=0,
            seed=self.reservoir_seed,
        )

    def run_chunks(self, max_chunks: int | None = None) -> int:
        """Advance up to ``max_chunks`` chunks (all remaining when ``None``).

        Returns the number of chunks consumed.  Chunks are pulled from the
        source starting after the jobs the state has already seen, so the
        same call pattern works for fresh runs and resumed checkpoints.
        """
        if self.state is None:
            self.init_state()
        consumed = 0
        if max_chunks is not None and max_chunks <= 0:
            return consumed
        for chunk in self.source.iter_chunks(
            self.chunk_size, skip_jobs=self.state.jobs_seen
        ):
            self.advance(chunk)
            consumed += 1
            if max_chunks is not None and consumed >= max_chunks:
                break
        return consumed

    # -- checkpointing -----------------------------------------------------------------
    def save_checkpoint(self, path, extra: dict | None = None) -> None:
        """Pickle the engine state + scheduler (+ caller metadata) to ``path``.

        The dataset, latency model and source are *not* serialized — they are
        reconstruction parameters the resuming caller must supply (the CLI
        stores its own arguments in ``extra`` for that purpose).  Checkpoints
        are only portable across identical code versions; see README
        "Streaming engine" for the compatibility caveats.
        """
        if self.state is None:
            raise RuntimeError("nothing to checkpoint: run init_state()/advance() first")
        payload = {
            "format": CHECKPOINT_FORMAT,
            "state": self.state,
            "scheduler": self.scheduler,
            "config": {
                "servers_per_region": dict(self._servers),
                "scheduling_interval_s": self.scheduling_interval_s,
                "delay_tolerance": self.delay_tolerance,
                "include_embodied": self.footprints.include_embodied,
                "max_rounds": self.max_rounds,
                "chunk_size": self.chunk_size,
                "collect": self.collect,
                "reservoir_size": self.reservoir_size,
                "reservoir_seed": self.reservoir_seed,
                "kernel": self.kernel,
                "chaos": self.chaos,
                "chaos_seed": self.chaos_seed,
            },
            "extra": dict(extra or {}),
        }
        atomic_pickle_dump(path, payload)

    @staticmethod
    def load_checkpoint(path) -> dict:
        """Read and validate a checkpoint payload (see :meth:`save_checkpoint`)."""
        payload = pickle.loads(Path(path).read_bytes())
        if not isinstance(payload, dict) or "format" not in payload:
            raise ValueError(f"{path} is not a streaming checkpoint")
        found = payload.get("format")
        if found != CHECKPOINT_FORMAT:
            raise ValueError(
                f"{path} is a format-{found} streaming checkpoint; this version "
                f"reads format {CHECKPOINT_FORMAT} only.  Checkpoint layouts "
                "changed incompatibly (format 2: array event queue, format 3: "
                "chaos & elasticity state, format 4: kernel telemetry), "
                "so older files cannot be resumed here — re-run the "
                "simulation, or resume the checkpoint with the code version "
                "that wrote it (see README 'Streaming engine' for the "
                "migration notes)."
            )
        return payload

    @classmethod
    def from_checkpoint(
        cls,
        path,
        source,
        dataset=None,
        regions=None,
        latency=None,
        server=None,
        **overrides,
    ) -> "StreamingSimulator":
        """Rebuild an engine mid-run from a checkpoint file.

        ``source`` and ``dataset`` must reproduce the original run's workload
        and intensities (checkpoints store neither); ``overrides`` may adjust
        non-semantic knobs only — ``chunk_size`` (results are chunk-size-
        invariant, so resuming with a different chunking is legal),
        ``max_rounds`` and ``kernel`` (``vector`` and ``scalar`` make the
        same decisions and emit the canonical ``(when, region, seq)``
        finished order, so a resume may switch kernels; the differential
        harness pins cross-kernel resume equality of full-collect digests).
        A checkpoint saved with a since-removed ``kernel`` value resumes
        with ``kernel="vector"``.  Semantic configuration (servers,
        tolerance, interval, …) is pinned by the restored state: the pickled
        free/committed server counts and round clock reflect the original
        settings, so changing them mid-run would silently corrupt the
        simulation.
        """
        allowed = {"chunk_size", "max_rounds", "kernel"}
        refused = set(overrides) - allowed
        if refused:
            raise ValueError(
                f"cannot override {sorted(refused)} on resume: the checkpointed "
                f"engine state depends on them (overridable: {sorted(allowed)})"
            )
        payload = cls.load_checkpoint(path)
        if payload.get("multi"):
            raise ValueError(
                f"{path} is a fused multi-policy checkpoint; resume it with "
                "MultiPolicyRunner.from_checkpoint"
            )
        config = dict(payload["config"])
        config.update(overrides)
        engine = cls(
            source,
            payload["scheduler"],
            dataset=dataset,
            regions=regions,
            latency=latency,
            server=server,
            **config,
        )
        state: EngineState = payload["state"]
        if state.region_keys != engine._keys_tuple:
            raise ValueError(
                "checkpoint was taken over regions "
                f"{state.region_keys} but the engine simulates {engine._keys_tuple}"
            )
        engine.state = state
        return engine

    # -- the event loop ----------------------------------------------------------------
    def _run_kernel(self, limit: float) -> None:
        state = self.state
        pool = state.pool
        makespan = process_until(
            state.events,
            limit,
            servers=pool["servers"],
            exec_real=pool["exec_real"],
            region_of=pool["region"],
            start=pool["start"],
            finish=pool["finish"],
            free=state.free,
            committed=state.committed,
            busy_seconds=state.busy_server_seconds,
            queues=state.queues,
            finished=state.finished,
            use_fast=self.kernel != "scalar",
            stats=state.kernel_stats,
        )
        if makespan > state.makespan:
            state.makespan = makespan

    def _process_events_until(self, limit: float) -> None:
        # Cut the window at each capacity breakpoint so capacity is constant
        # inside every kernel window (job events at exactly a breakpoint
        # happen *before* the capacity change).  That keeps the clean-prefix
        # proof valid under chaos: a drained region running over shrunken
        # capacity shows up as a negative free count the proof rejects.
        # Then apply the capacity events and requeue any evicted slots.
        state = self.state
        tl = self._timeline
        if tl is not None:
            pool = state.pool
            while state.timeline_pos < tl.n_events and tl.event_when[state.timeline_pos] <= limit:
                pos = state.timeline_pos
                t = float(tl.event_when[pos])
                group_end = pos + 1
                while group_end < tl.n_events and tl.event_when[group_end] == t:
                    group_end += 1
                self._run_kernel(t)
                requeued = apply_capacity_step(
                    state.events,
                    t,
                    tl.event_region[pos:group_end],
                    tl.event_capacity[pos:group_end],
                    evict=tl.spec.eviction == "evict",
                    capacity=state.capacity,
                    free=state.free,
                    committed=state.committed,
                    busy_seconds=state.busy_server_seconds,
                    queues=state.queues,
                    job_servers=pool["servers"],
                    exec_real=pool["exec_real"],
                    region_idx=pool["region"],
                    start=pool["start"],
                    finish=pool["finish"],
                    assigned=pool["assigned"],
                    ready=pool["ready"],
                    transfer=pool["transfer"],
                    evictions=pool["evictions"],
                )
                state.timeline_pos = group_end
                for slot in requeued:
                    state.pending[slot] = None
        self._run_kernel(limit)

    def _next_timeline_event(self) -> float | None:
        """Next capacity breakpoint, or ``None`` when it cannot affect a job.

        A capacity change only matters while jobs are in flight (queued or
        executing), so trailing events on an idle cluster never keep the
        drain loop alive.
        """
        tl = self._timeline
        state = self.state
        if tl is None or state.timeline_pos >= tl.n_events:
            return None
        if not (len(state.events) or any(state.queues)):
            return None
        return float(tl.event_when[state.timeline_pos])

    def _commit_batch(self, slots: np.ndarray, regions: np.ndarray, now: float) -> None:
        """Commit assignments (in the given order, which fixes FIFO ties)."""
        if len(slots) == 0:
            return
        state = self.state
        pool = state.pool
        home = pool["home"][slots]
        if self._transfer_decomposes:
            transfer = np.where(
                regions == home,
                0.0,
                self._propagation[home, regions]
                + pool["package"][slots] * 8.0 / self.latency.bandwidth_gbps,
            )
        else:
            keys = self.region_keys
            package = pool["package"][slots]
            transfer = np.array(
                [
                    0.0
                    if regions[i] == home[i]
                    else self.latency.transfer_time(
                        keys[home[i]], keys[regions[i]], package[i]
                    )
                    for i in range(len(slots))
                ]
            )
        pool["region"][slots] = regions
        pool["assigned"][slots] = now
        pool["transfer"][slots] = transfer
        pool["ready"][slots] = now + transfer
        state.events.push_ready_batch(now + transfer, slots)
        if self._record_decisions:
            self._decision_log.append(
                (
                    pool["job_id"][slots].copy(),
                    np.asarray(regions, dtype=np.int64).copy(),
                    float(now),
                )
            )

    def _drain(self, final: bool) -> None:
        state = self.state
        pool = state.pool
        fast_path = self._fast_path
        waiting_arrival = state.waiting_arrival
        waiting_slots = state.waiting_slots
        while True:
            if not final and not (state.round_time < state.watermark):
                break
            if (
                final
                and not state.waiting_count
                and not state.pending
                and self._next_timeline_event() is None
            ):
                break
            if state.rounds > self.max_rounds:
                raise RuntimeError(
                    f"scheduling did not converge after {self.max_rounds} rounds "
                    f"({len(state.pending)} jobs still pending)"
                )
            self._process_events_until(state.round_time)

            stop = int(
                np.searchsorted(waiting_arrival, state.round_time, side="right")
            )
            if stop > state.waiting_head:
                newly = waiting_slots[state.waiting_head:stop]
                pool["considered"][newly] = state.round_time
                for slot in newly.tolist():
                    state.pending[slot] = None
                state.waiting_head = stop

            if state.pending:
                state.rounds += 1
                state.round_times.append(state.round_time)
                batch = np.fromiter(
                    state.pending.keys(), dtype=np.int64, count=len(state.pending)
                )
                capacity = np.maximum(0, state.capacity - state.committed)
                if fast_path is not None:
                    decision_seconds = self._run_fast_round(
                        fast_path, state.round_time, batch, capacity
                    )
                else:
                    decision_seconds = self._run_fallback_round(
                        state.round_time, batch, capacity
                    )
                state.decision_times.append(decision_seconds)

            if not state.pending and not state.waiting_count:
                # Only reachable when finalizing: in a non-final drain the
                # watermark job itself (arrival == watermark) can never leave
                # the waiting queue, because rounds are gated on
                # ``round_time < watermark``.  A pending capacity breakpoint
                # keeps the loop alive: an outage may evict-and-requeue
                # in-flight jobs, which then need further scheduling rounds.
                if self._next_timeline_event() is None:
                    break
            next_wake = (
                float(waiting_arrival[state.waiting_head])
                if not state.pending and state.waiting_count
                else None
            )
            if not state.pending:
                # Jumping to the next capacity event is decision-equivalent:
                # in a non-final drain every queued arrival satisfies
                # ``A <= watermark``, so an earlier event (E < A) is also
                # below the watermark and the round it wakes remains safe.
                next_event = self._next_timeline_event()
                if next_event is not None and (
                    next_wake is None or next_event < next_wake
                ):
                    next_wake = next_event
            state.round_time = self._next_round_time(state.round_time, next_wake)

    def _flush_finished(self) -> None:
        """Integrate + hand finished jobs to the collector, recycle their slots."""
        state = self.state
        if not state.finished:
            return
        state.collector.add(self._finished_rows(np.array(state.finished, dtype=np.int64)))
        if self._job_cache:
            for slot in state.finished:
                self._job_cache.pop(slot, None)
        state.free_slots.extend(state.finished)
        state.finished = []

    def _finished_rows(self, idx: np.ndarray) -> dict[str, np.ndarray]:
        """Result columns of the jobs in slots ``idx`` (indexing copies them)."""
        pool = self.state.pool
        rows = {name: pool[name][idx] for name in _FINISHED_COLUMNS}
        rows["carbon"], rows["water"] = self.footprints.integrate_batch(
            self.region_keys, rows["region"], rows["start"], rows["exec_real"],
            pool["energy_real"][idx],
        )
        return rows

    # -- scheduling rounds ---------------------------------------------------------------
    def _pool_arrays(self) -> JobArrays:
        pool = self.state.pool
        return JobArrays(
            region_keys=self._keys_tuple,
            job_id=pool["job_id"],
            arrival=pool["arrival"],
            exec_est=pool["exec_est"],
            exec_real=pool["exec_real"],
            energy_est=pool["energy_est"],
            energy_real=pool["energy_real"],
            home_idx=pool["home"],
            package_gb=pool["package"],
            servers=pool["servers"],
            workloads=_WorkloadView(pool["workload"], self.state.workload_names),
        )

    def _run_fast_round(
        self, fast_path, now: float, batch: np.ndarray, capacity: np.ndarray
    ) -> float:
        state = self.state
        pool = state.pool
        arrays = self._pool_arrays()
        context = BatchSchedulingContext(
            now=now,
            region_keys=self._keys_tuple,
            capacity=capacity,
            jobs=arrays,
            batch=batch,
            wait_times=now - pool["considered"][batch],
            delay_tolerance=self.delay_tolerance,
            scheduling_interval_s=self.scheduling_interval_s,
            dataset=self.dataset,
            latency=self.latency,
            footprints=self.footprints,
            regions=self.regions,
        )
        started = _time.perf_counter()
        result = fast_path(self.scheduler, context)
        decision_seconds = _time.perf_counter() - started

        choice, commit_positions = resolve_fast_decision(
            result, batch, len(self._keys_tuple)
        )
        deferred = batch[choice < 0]
        pool["deferrals"][deferred] += 1
        slots = batch[commit_positions]
        for slot in slots.tolist():
            del state.pending[slot]
        self._commit_batch(slots, choice[commit_positions], now)
        return decision_seconds

    def _run_fallback_round(
        self, now: float, batch: np.ndarray, capacity: np.ndarray
    ) -> float:
        """Scalar-policy fallback: materialize the round's Jobs from the pool."""
        state = self.state
        pool = state.pool
        cache = self._job_cache
        jobs = []
        for slot in batch.tolist():
            job = cache.get(slot)
            if job is None:
                job = Job(
                    job_id=int(pool["job_id"][slot]),
                    workload=state.workload_names[pool["workload"][slot]],
                    arrival_time=float(pool["arrival"][slot]),
                    execution_time=float(pool["exec_est"][slot]),
                    energy_kwh=float(pool["energy_est"][slot]),
                    home_region=self.region_keys[pool["home"][slot]],
                    package_gb=float(pool["package"][slot]),
                    servers_required=int(pool["servers"][slot]),
                    true_execution_time=float(pool["exec_real"][slot]),
                    true_energy_kwh=float(pool["energy_real"][slot]),
                )
                cache[slot] = job
            jobs.append(job)
        wait_times = {
            job.job_id: now - pool["considered"][slot]
            for slot, job in zip(batch.tolist(), jobs)
        }
        context = SchedulingContext(
            now=now,
            regions=self.regions,
            capacity={
                key: int(capacity[idx]) for idx, key in enumerate(self.region_keys)
            },
            dataset=self.dataset,
            latency=self.latency,
            footprints=self.footprints,
            delay_tolerance=self.delay_tolerance,
            scheduling_interval_s=self.scheduling_interval_s,
            job_wait_times=wait_times,
        )
        started = _time.perf_counter()
        decision = self.scheduler.schedule(jobs, context)
        decision_seconds = _time.perf_counter() - started
        decision.validate_for(jobs, self.region_keys)

        slot_of = {job.job_id: slot for slot, job in zip(batch.tolist(), jobs)}
        slots: list[int] = []
        regions: list[int] = []
        for job_id, region_key in decision.assignments.items():
            slot = slot_of[job_id]
            del state.pending[slot]
            slots.append(slot)
            regions.append(self._region_index[region_key])
        self._commit_batch(
            np.array(slots, dtype=np.int64), np.array(regions, dtype=np.int64), now
        )
        for job_id in decision.deferred:
            pool["deferrals"][slot_of[job_id]] += 1
        return decision_seconds


class BatchSimulator(StreamingSimulator):
    """One-shot array engine: replay a materialized trace into a :class:`BatchResult`.

    The one-shot front of :class:`StreamingSimulator`: it wraps ``trace`` in
    a :class:`~repro.traces.stream.TraceView`, retains every job's columns
    (``collect="full"``) at the engine's default chunk size, and starts each
    :meth:`run` from a fresh :meth:`init_state`.  It has no round loop of its
    own, so its result is the streaming engine's by construction.

    The engine is decision-equivalent to the scalar
    :class:`~repro.cluster.simulator.Simulator`: identical executed regions,
    start/finish times and deferral counts, and footprints equal to
    floating-point rounding (≪ 1e-9 relative).  Event tie-breaking
    replicates the scalar heap exactly — finishes before readies at equal
    times, globally sequenced pushes — so even saturated FIFO queues drain
    in the same order.  Policies without a vectorized fast path see ``Job``
    objects rebuilt from the trace's columns, which carry no
    :attr:`~repro.traces.job.Job.metadata`.

    Construction parameters are those of
    :class:`~repro.cluster.simulator.Simulator` (documented on
    :class:`~repro.cluster.simulator._SimulatorBase`).
    """

    def __init__(
        self,
        trace,
        scheduler,
        dataset=None,
        regions=None,
        servers_per_region=20,
        scheduling_interval_s: float = 300.0,
        delay_tolerance: float = 0.25,
        latency=None,
        server=None,
        include_embodied: bool = True,
        seed_dataset_horizon_slack_h: int = 24,
        max_rounds: int = 1_000_000,
        kernel: str = "vector",
        chaos=None,
        chaos_seed: int = 0,
    ) -> None:
        super().__init__(
            TraceView(trace),
            scheduler,
            dataset=dataset,
            regions=regions,
            servers_per_region=servers_per_region,
            scheduling_interval_s=scheduling_interval_s,
            delay_tolerance=delay_tolerance,
            latency=latency,
            server=server,
            include_embodied=include_embodied,
            seed_dataset_horizon_slack_h=seed_dataset_horizon_slack_h,
            max_rounds=max_rounds,
            collect="full",
            kernel=kernel,
            chaos=chaos,
            chaos_seed=chaos_seed,
        )

    def run(self) -> BatchResult:
        """Run the whole trace from a fresh state and return the columnar result."""
        self.init_state()
        return super().run()

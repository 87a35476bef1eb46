"""Asyncio admission gateway: job batches in, placement decisions out.

The gateway is the single owner of a :class:`StreamingSimulator` and serves
it online.  Clients submit batches of jobs (``Job`` objects or an already
columnar ``JobChunk``); the gateway funnels them through a *bounded* request
queue — a full queue suspends submitters, which is the backpressure contract
— into :meth:`StreamingSimulator.admit`, and resolves one future per job
when its placement decision is committed.  A decision may resolve on a later
admission than the one that submitted the job (scheduling rounds can defer),
so submitters await futures rather than parse a synchronous reply.

Two arrival modes cover the two ways time can flow:

* ``"recorded"`` (default) — jobs keep the arrival times they carry, and the
  engine's safety watermark advances on arrivals only.  This is the replay
  mode: it is decision-identical to a batch run *by construction*, which is
  what the differential harness verifies (digest equality).  A batch that
  arrives before the watermark the requests queued ahead of it set is
  refused at submission, so it fails only its own request.
* ``"clock"`` — the gateway stamps each batch with the clock's current time
  when the batch is *admitted* (never before the watermark, which queued
  work ahead of the batch may have raised).  This is the live mode: between
  requests the
  gateway can ``tick`` the watermark forward so deferred jobs make progress
  and chaos-timeline capacity events fire at their scheduled times.

Checkpointing a live session goes through the same queue (``checkpoint()``)
so the state is only ever pickled between admissions — never mid-round.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
from typing import NamedTuple

import numpy as np

from repro.cluster.metrics import StreamingQuantiles
from repro.service.clock import Clock, SimClock
from repro.traces.stream import JobChunk

__all__ = ["AdmissionGateway", "GatewayStats", "PlacementDecision"]


class PlacementDecision(NamedTuple):
    """One resolved placement: where a job runs and how long the answer took."""

    job_id: int
    region: str
    #: Simulation time of the scheduling round that committed the placement.
    decided_at: float
    #: Wall seconds from submission to decision (service latency, *not*
    #: simulated queueing delay).
    latency_s: float


@dataclasses.dataclass(frozen=True)
class GatewayStats:
    """Counter snapshot (see :meth:`AdmissionGateway.stats`)."""

    submitted: int
    decided: int
    outstanding: int
    #: Decisions the engine re-emitted for jobs no waiter claimed — normal
    #: after resuming a checkpointed session whose submitters are gone.
    unclaimed: int
    batches: int
    ticks: int
    checkpoints: int
    latency_p50_s: float
    latency_p95_s: float
    latency_p99_s: float
    latency_mean_s: float
    latency_max_s: float
    #: Wall seconds between the first submission and the latest decision.
    busy_wall_s: float

    @property
    def throughput_jobs_per_s(self) -> float:
        if self.busy_wall_s <= 0.0:
            return 0.0
        return self.decided / self.busy_wall_s

    def as_dict(self) -> dict:
        payload = dataclasses.asdict(self)
        payload["throughput_jobs_per_s"] = self.throughput_jobs_per_s
        return payload


class _Request(NamedTuple):
    kind: str  # "batch" | "tick" | "checkpoint" | "finalize"
    payload: object
    future: asyncio.Future | None


class AdmissionGateway:
    """Single-owner async front end over one :class:`StreamingSimulator`.

    Parameters
    ----------
    engine:
        The resident streaming engine (fresh, or rebuilt from a checkpoint —
        the gateway continues a resumed session transparently).
    clock:
        Time source (:class:`SimClock` default).  A live service passes a
        :class:`~repro.service.clock.WallClock`.
    arrival_mode:
        ``"recorded"`` keeps submitted arrival times (replay), ``"clock"``
        stamps batches with ``clock.now()`` (live).  See the module docstring
        for the watermark semantics of each.
    max_pending_batches:
        Bound of the request queue; submitters suspend when it is full
        (backpressure).
    tick_interval_s:
        Wall seconds of queue idleness before the loop self-ticks (clock
        mode only; default 0.05).  Required for liveness: a job stamped at
        ``clock.now()`` is decided by a scheduling round *after* the current
        watermark, so without ticks an awaited submission would wait forever
        on a quiet service.  ``None`` disables (recorded mode's default —
        the watermark is arrival-driven there, so ticks cannot help).
    """

    def __init__(
        self,
        engine,
        clock: Clock | None = None,
        arrival_mode: str = "recorded",
        max_pending_batches: int = 64,
        tick_interval_s: float | None = None,
    ) -> None:
        if arrival_mode not in ("recorded", "clock"):
            raise ValueError(
                f"arrival_mode must be 'recorded' or 'clock', got {arrival_mode!r}"
            )
        if int(max_pending_batches) < 1:
            raise ValueError("max_pending_batches must be >= 1")
        self.engine = engine
        self.clock = clock if clock is not None else SimClock()
        self.arrival_mode = arrival_mode
        self.max_pending_batches = int(max_pending_batches)
        if tick_interval_s is None and arrival_mode == "clock":
            tick_interval_s = 0.05
        if tick_interval_s is not None and not tick_interval_s > 0.0:
            raise ValueError("tick_interval_s must be > 0 (or None to disable)")
        self.tick_interval_s = tick_interval_s
        self._queue: asyncio.Queue[_Request] | None = None
        self._task: asyncio.Task | None = None
        self._waiters: dict[int, tuple[asyncio.Future, float]] = {}
        #: The watermark the engine will have once every queued batch and
        #: ``tick(now)`` is processed (recorded mode's lateness check), and
        #: the lock that keeps those requests queued in the order checked.
        self._queued_watermark = float("-inf")
        self._enqueue_lock = asyncio.Lock()
        self._closed = False
        self._failure: BaseException | None = None
        # Counters.
        self._submitted = 0
        self._decided = 0
        self._unclaimed = 0
        self._batches = 0
        self._ticks = 0
        self._checkpoints = 0
        # Latencies in seconds: the grid spans 1 µs .. ~3 h so sub-millisecond
        # decisions are resolved rather than clamped into the lowest bin.
        self._latency_q = StreamingQuantiles((0.5, 0.95, 0.99), lo=1e-6, hi=1e4)
        self._latency_total = 0.0
        self._first_submit: float | None = None
        self._last_decide: float | None = None

    # -- lifecycle ---------------------------------------------------------------------
    async def start(self) -> "AdmissionGateway":
        """Start the admission loop (idempotent); returns self for chaining."""
        if self._task is None:
            self._queue = asyncio.Queue(maxsize=self.max_pending_batches)
            self._task = asyncio.create_task(self._loop(), name="admission-gateway")
        return self

    async def close(self):
        """Finalize the engine and return its result (BatchResult/StreamResult).

        Every job admitted so far is decided by finalization, so all
        outstanding futures resolve before the result is returned.
        """
        self._ensure_open()
        self._closed = True
        future = asyncio.get_running_loop().create_future()
        await self._queue.put(_Request("finalize", None, future))
        result = await future
        await self._task
        return result

    async def abort(self) -> None:
        """Stop serving *without* finalizing (e.g. right after a checkpoint).

        Outstanding futures are cancelled; the engine keeps its state, so the
        caller may checkpoint before aborting and resume the session later.
        """
        if self._task is None:
            return
        self._closed = True
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._fail_waiters(asyncio.CancelledError())

    # -- client surface ----------------------------------------------------------------
    async def submit(self, jobs) -> list[PlacementDecision]:
        """Submit a batch and await every job's placement decision.

        Beware awaiting inline while replaying a recorded trace: a deferred
        job's decision may only become safe after *later* arrivals are
        ingested, so a replayer must use :meth:`submit_nowait` and gather at
        the end (see :mod:`repro.service.replay`).  Live sessions, which tick
        the watermark forward, can await directly.
        """
        futures = await self.submit_nowait(jobs)
        return list(await asyncio.gather(*futures))

    async def submit_nowait(self, jobs) -> list[asyncio.Future]:
        """Enqueue a batch; returns one future per job, in submission order.

        The i-th future always belongs to the i-th submitted job, even in
        recorded mode where the chunk handed to the engine is arrival-sorted
        internally — callers may zip the futures against their input list.
        Suspends while the request queue is full (backpressure).  ``jobs``
        is a :class:`JobChunk` or a sequence of ``Job`` objects.  In
        recorded mode a batch whose first arrival is before the watermark
        the engine will have when it reaches the batch raises
        ``ValueError``.
        """
        self._ensure_open()
        if isinstance(jobs, JobChunk):
            chunk = jobs
            batch_ids = [int(job_id) for job_id in chunk.job_id.tolist()]
        else:
            jobs = list(jobs)
            batch_ids = [int(job.job_id) for job in jobs]
            chunk = self._chunk_from_jobs(jobs)
        recorded = self.arrival_mode == "recorded" and chunk.n > 0
        async with self._enqueue_lock:
            # Validate the whole batch before registering any waiter: raising
            # halfway through would strand the already-registered futures as
            # permanently "outstanding" ids that can never be resubmitted.
            if recorded:
                # The engine would reject a late batch inside the loop, and
                # that error poisons the gateway for every client.
                watermark = max(self._watermark(), self._queued_watermark)
                first = float(chunk.arrival[0])
                if first < watermark - 1e-12:
                    raise ValueError(
                        f"batch arrives late: first arrival {first:.3f}s is "
                        f"before the watermark {watermark:.3f}s"
                    )
            batch_seen: set[int] = set()
            for job_id in batch_ids:
                if job_id in self._waiters or job_id in batch_seen:
                    raise ValueError(
                        f"job id {job_id} is already outstanding; live job ids "
                        "must be unique until their decision resolves"
                    )
                batch_seen.add(job_id)
            loop = asyncio.get_running_loop()
            submitted_at = time.monotonic()
            if self._first_submit is None:
                self._first_submit = submitted_at
            futures: list[asyncio.Future] = []
            for job_id in batch_ids:
                future = loop.create_future()
                self._waiters[job_id] = (future, submitted_at)
                futures.append(future)
            self._submitted += chunk.n
            if recorded:
                self._queued_watermark = max(
                    self._queued_watermark, float(chunk.arrival[-1])
                )
            await self._queue.put(_Request("batch", chunk, None))
        return futures

    async def tick(self, now: float | None = None) -> int:
        """Advance the engine to the clock (or ``now``) without new jobs.

        Runs the scheduling rounds the new watermark makes safe — deferred
        jobs progress, chaos capacity events fire — and resolves any decision
        futures that became available.  Returns the number of decisions.
        Only meaningful in ``"clock"`` mode; in ``"recorded"`` mode the
        watermark stays arrival-driven and a tick merely flushes decisions.
        """
        self._ensure_open()
        future = asyncio.get_running_loop().create_future()
        async with self._enqueue_lock:
            if now is not None:
                self._queued_watermark = max(self._queued_watermark, float(now))
            await self._queue.put(_Request("tick", now, future))
        return await future

    async def checkpoint(self, path, extra: dict | None = None) -> None:
        """Checkpoint the live session between admissions (format 3 path).

        Any error from saving — an unwritable ``path``, or a session with
        nothing admitted yet — is raised here and fails only this request:
        saving changes no engine state, so the gateway keeps serving.
        """
        self._ensure_open()
        future = asyncio.get_running_loop().create_future()
        await self._queue.put(_Request("checkpoint", (path, extra), future))
        await future

    def stats(self) -> GatewayStats:
        """Snapshot the admission counters (cheap; safe to call any time)."""
        latency = self._latency_q
        quantile = latency.values() if self._decided else dict.fromkeys(latency.qs, 0.0)
        busy = 0.0
        if self._first_submit is not None and self._last_decide is not None:
            busy = max(0.0, self._last_decide - self._first_submit)
        return GatewayStats(
            submitted=self._submitted,
            decided=self._decided,
            outstanding=len(self._waiters),
            unclaimed=self._unclaimed,
            batches=self._batches,
            ticks=self._ticks,
            checkpoints=self._checkpoints,
            latency_p50_s=quantile[0.5],
            latency_p95_s=quantile[0.95],
            latency_p99_s=quantile[0.99],
            latency_mean_s=self._latency_total / self._decided if self._decided else 0.0,
            latency_max_s=latency.max if self._decided else 0.0,
            busy_wall_s=busy,
        )

    # -- internals ---------------------------------------------------------------------
    def _ensure_open(self) -> None:
        if self._failure is not None:
            raise RuntimeError("admission gateway failed") from self._failure
        if self._closed:
            raise RuntimeError("admission gateway is closed")
        if self._task is None or self._queue is None:
            raise RuntimeError("admission gateway is not started (await start())")

    def _watermark(self) -> float:
        state = self.engine.state
        return state.watermark if state is not None else 0.0

    def _admit_now(self) -> float | None:
        # In recorded mode the watermark must stay arrival-driven: advancing
        # it to a wall clock that runs ahead of the trace would reject the
        # next (older) chunk and break replay/batch equivalence.
        return self.clock.now() if self.arrival_mode == "clock" else None

    def _chunk_from_jobs(self, jobs) -> JobChunk:
        jobs = list(jobs)
        region_keys = self.engine._keys_tuple
        region_index = {key: i for i, key in enumerate(region_keys)}
        if self.arrival_mode == "clock":
            # Placeholder only — clock-mode batches are stamped at admission
            # time inside the loop (see _stamp_clock_chunk), because queued
            # work ahead of this batch may raise the watermark first.
            arrival = np.zeros(len(jobs))
        else:
            jobs.sort(key=lambda job: job.arrival_time)
            arrival = np.array([job.arrival_time for job in jobs], dtype=float)
        workload_names = tuple(dict.fromkeys(job.workload for job in jobs))
        workload_index = {name: i for i, name in enumerate(workload_names)}
        for job in jobs:
            if job.home_region not in region_index:
                raise ValueError(
                    f"job {job.job_id} has home region {job.home_region!r} "
                    f"outside the served cluster {sorted(region_keys)}"
                )
        return JobChunk(
            region_keys=region_keys,
            workload_names=workload_names,
            job_id=np.array([job.job_id for job in jobs], dtype=np.int64),
            arrival=arrival,
            exec_est=np.array([job.execution_time for job in jobs], dtype=float),
            # realized_* falls back to the estimate when no true value is
            # known — true_execution_time defaults to None, which would turn
            # into NaN here and silently wedge the completion event kernel.
            exec_real=np.array([job.realized_execution_time for job in jobs], dtype=float),
            energy_est=np.array([job.energy_kwh for job in jobs], dtype=float),
            energy_real=np.array([job.realized_energy_kwh for job in jobs], dtype=float),
            home_idx=np.array([region_index[job.home_region] for job in jobs], dtype=np.int64),
            workload_idx=np.array(
                [workload_index[job.workload] for job in jobs], dtype=np.int64
            ),
            package_gb=np.array([job.package_gb for job in jobs], dtype=float),
            servers=np.array([job.servers_required for job in jobs], dtype=np.int64),
        )

    def _stamp_clock_chunk(self, chunk: JobChunk) -> JobChunk:
        """Stamp a clock-mode batch at admission (processing) time.

        Stamping at submit time is wrong under pipelining: an earlier queued
        batch or tick admits at ``clock.now()`` and raises the watermark, so
        a submit-time stamp taken by a second concurrent client can already
        be in the past by the time its batch reaches the engine — which
        ``_ingest`` rejects, and the resulting engine error would poison the
        gateway for every client.  Clamping to the current watermark keeps
        arrivals monotone no matter how requests interleave.
        """
        if self.arrival_mode != "clock" or not chunk.n:
            return chunk
        stamp = max(self.clock.now(), self._watermark())
        return dataclasses.replace(chunk, arrival=np.full(chunk.n, stamp))

    def _resolve(self, decisions) -> int:
        resolved_at = time.monotonic()
        latencies = []
        for job_id, region, decided_at in decisions.items():
            waiter = self._waiters.pop(job_id, None)
            if waiter is None:
                self._unclaimed += 1
                continue
            future, submitted_at = waiter
            latency = resolved_at - submitted_at
            decision = PlacementDecision(job_id, region, decided_at, latency)
            if not future.done():
                future.set_result(decision)
            latencies.append(latency)
            self._latency_total += latency
        if latencies:
            self._decided += len(latencies)
            self._latency_q.add_many(latencies)
            self._last_decide = resolved_at
        return len(latencies)

    def _fail_waiters(self, error: BaseException) -> None:
        for future, _submitted_at in self._waiters.values():
            if not future.done():
                if isinstance(error, asyncio.CancelledError):
                    future.cancel()
                else:
                    future.set_exception(error)
        self._waiters.clear()

    async def _loop(self) -> None:
        engine = self.engine
        request = None
        try:
            while True:
                # Self-tick while requests are outstanding and the queue is
                # idle, so awaited decisions resolve as the clock advances.
                if self.tick_interval_s is not None and self._waiters:
                    try:
                        request = await asyncio.wait_for(
                            self._queue.get(), timeout=self.tick_interval_s
                        )
                    except asyncio.TimeoutError:
                        self._ticks += 1
                        self._resolve(engine.admit(None, now=self._admit_now()))
                        continue
                else:
                    request = await self._queue.get()
                if request.kind == "batch":
                    self._batches += 1
                    chunk = self._stamp_clock_chunk(request.payload)
                    decisions = engine.admit(chunk, now=self._admit_now())
                    self._resolve(decisions)
                elif request.kind == "tick":
                    now = request.payload
                    if now is None:
                        now = self._admit_now()
                    self._ticks += 1
                    count = self._resolve(engine.admit(None, now=now))
                    request.future.set_result(count)
                elif request.kind == "checkpoint":
                    path, extra = request.payload
                    try:
                        engine.save_checkpoint(path, extra=extra)
                    except Exception as error:
                        # A failed save fails this request only: saving
                        # changes no engine state and leaves no temp file.
                        request.future.set_exception(error)
                        continue
                    self._checkpoints += 1
                    request.future.set_result(None)
                elif request.kind == "finalize":
                    result = engine.finalize()
                    self._resolve(engine.drain_decisions())
                    request.future.set_result(result)
                    return
        except Exception as error:
            # The engine's state is suspect after an admission error: fail
            # every waiter, the request in flight and the queued ones, and
            # poison the gateway so submits stop cleanly.  The loop then
            # ends normally: the error lives on in ``_failure``, which every
            # later call reports, so nothing is left to retrieve from the
            # task itself.
            self._failure = error
            self._fail_waiters(error)
            stale = [request] if request is not None else []
            while not self._queue.empty():
                stale.append(self._queue.get_nowait())
            for pending in stale:
                if pending.future is not None and not pending.future.done():
                    pending.future.set_exception(error)

"""The benchmark's four workloads and the oracles that check their outputs.

Every simulation workload runs one fixed-size instance per *repetition*,
cycling through a few distinct instances (parts) until the run's time is
up, so medians over repetitions absorb the noise of a shared host.  Inputs
are a pure function of the seed.  Each workload also knows an independent way to compute its
answer (another engine, or per-policy cells instead of the fused runner),
which the correctness gate uses for seeds that ``expected.json`` does not
pin.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import os
import time
import zlib

import numpy as np

#: Borg-like submission rate every workload is sized at (jobs per hour);
#: durations are solved for the requested job count.
RATE_PER_HOUR = 1400.0
SERVERS_PER_REGION = 60
#: Diurnal day/night swing of the ``diurnal`` scenario family.
DIURNAL_AMPLITUDE = 0.9

#: Instance sizes.  ``full`` makes one repetition take 1-1.5 s on a 2-core
#: Xeon, so a 20 s run holds 12-20 repetitions over ``parts``
#: distinct instances (part ``i`` of seed ``s`` uses seed ``s * parts + i``);
#: ``smoke`` is for the test suite.  The live workload's size is its batch
#: count, which follows from the run length.
SCALES = {
    "full": {
        "waterwise-batch": 25_000,
        "baseline-stream": 256_000,
        "registry-outage": 8_000,
        "parts": 4,
        "warmup_jobs": 2_000,
        "live_checkpoint_every": 500,
    },
    "smoke": {
        "waterwise-batch": 1_500,
        "baseline-stream": 20_000,
        "registry-outage": 600,
        "parts": 2,
        "warmup_jobs": 300,
        "live_checkpoint_every": 10,
    },
}

#: Open-loop live traffic: one batch every ``LIVE_PERIOD_S`` wall seconds,
#: covering ``LIVE_PACE`` trace seconds per wall second (about 17 jobs per
#: batch, 1.75k jobs/s on average).  At twice this pace the p99 admission
#: latency no longer repeats run to run on two shared cores; at 20 ms
#: batches a 20 s run leaves only ten samples beyond the p99.
LIVE_PERIOD_S = 0.01
LIVE_PACE = 4500.0

#: Seed of the registry-outage fault schedule.  The schedule stays fixed
#: while ``--seed`` varies the trace and the intensities: drawing the
#: outages from ``--seed`` too changes the sweep's cost by about 11% from
#: seed to seed (interquartile range over ten seeds), more than the bound.
CHAOS_SEED = 0

#: Relative tolerance of carbon/water totals against the oracle (the digest
#: is compared exactly; totals get a message that says how far off they are).
TOTALS_RTOL = 1e-9


def duration_days_for(jobs: int) -> float:
    """Diurnal trace length whose expected job count is ``jobs``."""
    from repro.traces.arrival import DiurnalPoissonProcess

    process = DiurnalPoissonProcess(RATE_PER_HOUR, amplitude=DIURNAL_AMPLITUDE)
    lo, hi = 0.0, 8.0 * jobs / (RATE_PER_HOUR / 3600.0)
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if process.expected_count(mid) < jobs:
            lo = mid
        else:
            hi = mid
    return hi / 86_400.0


def make_dataset(days: float, seed: int):
    from repro.sustainability import ElectricityMapsLikeProvider

    return ElectricityMapsLikeProvider(
        horizon_hours=max(int(days * 24) + 48, 72), seed=seed
    )


@dataclasses.dataclass
class Answer:
    """What a run computed, in the form the correctness gate compares."""

    jobs: int
    #: ``None`` where the oracle's result type has a different digest.
    digest: int | None
    carbon_kg: float
    water_m3: float

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclasses.dataclass
class Rep:
    """One timed repetition of a simulation workload."""

    answer: Answer
    #: Jobs simulated (job·policies for the sweep) — the numerator of jobs_per_s.
    work: int
    #: Latency of each operation: a WaterWise scheduling round's decision
    #: (batch, sweep) or the engine's processing of one input chunk (stream).
    latency_s: list
    #: Event-kernel counters summed over the repetition's engines.
    kernel: dict


def _answer(result, digest=True) -> Answer:
    return Answer(
        jobs=int(result.num_jobs),
        digest=int(result.digest()) if digest else None,
        carbon_kg=float(result.total_carbon_kg),
        water_m3=float(result.total_water_m3),
    )


def _kernel_counts(results) -> dict:
    keys = ("clean_events", "conveyor_events", "replayed_events", "compiled_events")
    totals = dict.fromkeys(keys, 0)
    for result in results:
        stats = getattr(result, "kernel_stats", None) or {}
        for key in keys:
            totals[key] += int(stats.get(key, 0))
    return totals


def compare_answers(got: Answer, want: Answer) -> list[str]:
    """Mismatch messages between a run's answer and the oracle's ([] = equal)."""
    problems = []
    if got.jobs != want.jobs:
        problems.append(f"jobs {got.jobs} != {want.jobs}")
    if want.digest is not None and got.digest is not None and got.digest != want.digest:
        problems.append(f"digest {got.digest} != {want.digest}")
    for field in ("carbon_kg", "water_m3"):
        a, b = getattr(got, field), getattr(want, field)
        if not abs(a - b) <= TOTALS_RTOL * max(1.0, abs(b)):
            problems.append(f"{field} {a!r} != {b!r}")
    return problems


class ChunkTimer:
    """Source wrapper timing the engine's processing of each chunk.

    The engine pulls chunks one at a time, so the time from handing chunk
    ``k`` over to the request for chunk ``k + 1`` is how long the engine
    took to process it (generating the chunk is not included).
    """

    def __init__(self, source) -> None:
        self.source = source
        self.latency_s: list[float] = []

    def __getattr__(self, name):
        return getattr(self.source, name)

    def iter_chunks(self, chunk_size=None, skip_jobs=0):
        for chunk in self.source.iter_chunks(chunk_size, skip_jobs):
            handed = time.perf_counter()
            yield chunk
            self.latency_s.append(time.perf_counter() - handed)


class SimulationWorkload:
    """Base of the three simulation workloads (batch, stream, sweep).

    A run covers ``parts`` distinct instances (sub-seeds of ``--seed``) and
    cycles its repetitions through them.  One instance has only a handful of
    distinct heavy rounds, so a tail percentile over repetitions of a single
    instance repeats little from run to run.
    """

    name = ""
    scenario = "diurnal"

    def __init__(self, seed: int, scale: str) -> None:
        self.seed = int(seed)
        self.jobs = SCALES[scale][self.name]
        self.parts = SCALES[scale]["parts"]
        self.warmup_jobs = SCALES[scale]["warmup_jobs"]

    def instance_key(self, part: int) -> str:
        return f"seed={self.seed} part={part}/{self.parts} jobs={self.jobs}"

    def _build(self, jobs: int, seed: int):
        """``(source, dataset)`` of an instance of about ``jobs`` jobs."""
        from repro.traces.scenarios import scenario_source

        days = duration_days_for(jobs)
        source = scenario_source(
            self.scenario, seed=seed, rate_per_hour=RATE_PER_HOUR, duration_days=days
        )
        return source, make_dataset(days, seed)

    def _run(self, source, dataset):
        raise NotImplementedError

    def setup(self) -> None:
        """Build every part's inputs, then run the fixed-size warm-up instance."""
        self.instances = [
            self._build(self.jobs, self.seed * self.parts + part) for part in range(self.parts)
        ]
        self._run(*self._build(self.warmup_jobs, self.seed))

    def rep(self, part: int) -> Rep:
        raise NotImplementedError

    def reference(self, part: int) -> Answer:
        """The oracle's answer for one part (untimed)."""
        raise NotImplementedError


class WaterWiseBatch(SimulationWorkload):
    name = "waterwise-batch"

    def _build(self, jobs: int, seed: int):
        # The one-shot engine takes a materialized trace; building it is set-up.
        source, dataset = super()._build(jobs, seed)
        return source.materialize(), dataset

    def _run(self, trace, dataset):
        from repro.cluster import BatchSimulator
        from repro.schedulers import make_scheduler

        return BatchSimulator(
            trace, make_scheduler("waterwise"), dataset=dataset,
            servers_per_region=SERVERS_PER_REGION,
        ).run()

    def rep(self, part: int) -> Rep:
        result = self._run(*self.instances[part])
        return Rep(_answer(result), result.num_jobs, list(result.decision_times_s),
                   _kernel_counts([result]))

    def reference(self, part: int) -> Answer:
        from repro.cluster import StreamingSimulator
        from repro.schedulers import make_scheduler
        from repro.traces.stream import TraceView

        trace, dataset = self.instances[part]
        return _answer(StreamingSimulator(
            TraceView(trace), make_scheduler("waterwise"), dataset=dataset,
            servers_per_region=SERVERS_PER_REGION, collect="full",
        ).run())


class BaselineStream(SimulationWorkload):
    name = "baseline-stream"

    def _run(self, source, dataset):
        from repro.cluster import StreamingSimulator
        from repro.schedulers import make_scheduler

        # 1024-job chunks: four parts of 256k jobs then hold 1000 distinct
        # chunks, enough for a p99 with ten beyond it.
        return StreamingSimulator(
            source, make_scheduler("baseline"), dataset=dataset,
            servers_per_region=SERVERS_PER_REGION, chunk_size=1024, collect="aggregate",
        ).run()

    def rep(self, part: int) -> Rep:
        # The baseline decides a round in about a microsecond, which is
        # timer noise; the stream's unit of work is the input chunk.
        source, dataset = self.instances[part]
        timed = ChunkTimer(source)
        result = self._run(timed, dataset)
        return Rep(_answer(result), result.num_jobs, timed.latency_s,
                   _kernel_counts([result]))

    def reference(self, part: int) -> Answer:
        # The one-shot engine's BatchResult digests a different payload than
        # StreamResult, so the oracle is compared on jobs and totals only.
        from repro.cluster import BatchSimulator
        from repro.schedulers import make_scheduler

        source, dataset = self.instances[part]
        return _answer(BatchSimulator(
            source.materialize(), make_scheduler("baseline"), dataset=dataset,
            servers_per_region=SERVERS_PER_REGION,
        ).run(), digest=False)


class RegistryOutage(SimulationWorkload):
    name = "registry-outage"
    scenario = "region-outage"

    def __init__(self, seed: int, scale: str) -> None:
        from repro.schedulers import available_schedulers
        from repro.traces.scenarios import get_scenario

        super().__init__(seed, scale)
        self.policies = available_schedulers()
        self.engine_kwargs = dict(
            servers_per_region=SERVERS_PER_REGION, collect="aggregate",
            chaos=get_scenario(self.scenario).chaos, chaos_seed=CHAOS_SEED,
        )

    def _run(self, source, dataset):
        from repro.cluster.multi import MultiPolicyRunner
        from repro.schedulers import make_scheduler

        # The fused runner run_sweep builds, but with the fixed CHAOS_SEED:
        # run_sweep would draw the outages from the trace's seed.
        results = MultiPolicyRunner(
            source, [(name, make_scheduler(name)) for name in self.policies],
            dataset=dataset, **self.engine_kwargs,
        ).run()
        return [results[name] for name in self.policies]

    @staticmethod
    def _combined(results) -> Answer:
        digests = np.array([result.digest() for result in results], dtype=np.int64)
        return Answer(
            jobs=int(results[0].num_jobs),
            digest=int(zlib.crc32(digests.tobytes())),
            carbon_kg=float(sum(result.total_carbon_kg for result in results)),
            water_m3=float(sum(result.total_water_m3 for result in results)),
        )

    def rep(self, part: int) -> Rep:
        results = self._run(*self.instances[part])
        # Latency is the WaterWise cells' round decisions: the other policies
        # decide in 1 µs to 1 ms, and percentiles pooled over all eight fall
        # between those clusters.  Their cost shows in jobs_per_s.
        times = [t for name, result in zip(self.policies, results)
                 if name.startswith("waterwise") for t in result.decision_times_s]
        work = sum(int(result.num_jobs) for result in results)
        return Rep(self._combined(results), work, times, _kernel_counts(results))

    def reference(self, part: int) -> Answer:
        # Per-policy cells through their own engines: the fused runner must
        # match them bit for bit.
        from repro.cluster import StreamingSimulator
        from repro.schedulers import make_scheduler

        source, dataset = self.instances[part]
        return self._combined([
            StreamingSimulator(
                source, make_scheduler(name), dataset=dataset, **self.engine_kwargs,
            ).run()
            for name in self.policies
        ])


# -- the live workload ---------------------------------------------------------------


class OpenLoop:
    """Fires sends on a fixed schedule, however far behind the system falls.

    Send ``k`` is due at ``start + k * period_s``.  The generator shares the
    event loop with the gateway, so a long admission delays it; it then
    fires every overdue send at once and records how late each one was.
    ``clock`` and ``sleep`` are injectable so a test can drive it with a
    fake clock.
    """

    def __init__(self, period_s: float, clock=time.perf_counter, sleep=asyncio.sleep) -> None:
        self.period_s = float(period_s)
        self.clock = clock
        self.sleep = sleep

    async def run(self, count: int, fire) -> list[float]:
        """Call ``fire(k, due)`` for ``k < count``; returns each send's lateness (s)."""
        start = self.clock()
        lateness = []
        for k in range(count):
            due = start + k * self.period_s
            wait = due - self.clock()
            if wait > 0:
                await self.sleep(wait)
            lateness.append(self.clock() - due)
            fire(k, due)
        return lateness


@dataclasses.dataclass
class Session:
    """Outcome of one live session."""

    answer: Answer
    #: Per batch: seconds from its due time until the barrier tick returned.
    latency_s: list
    lateness_s: list
    #: Per batch: seconds from submit_nowait returning until admit() started.
    queue_wait_s: list
    cpu_s: float
    wall_s: float
    #: Wall time the event loop was not blocked waiting for work.
    busy_s: float
    decided: int
    #: Batches with a job not decided exactly once, or whose send raised.
    failed_batches: int
    failures: list
    kernel: dict


def slice_chunk(chunk, start: int, stop: int):
    """Rows ``[start, stop)`` of a :class:`JobChunk`."""
    from repro.traces.stream import CHUNK_COLUMNS, JobChunk

    return JobChunk(
        region_keys=chunk.region_keys,
        workload_names=chunk.workload_names,
        **{field: getattr(chunk, field)[start:stop] for field in CHUNK_COLUMNS},
    )


class WaterWiseLive:
    """Open-loop traffic through an AdmissionGateway over a WaterWise stream."""

    name = "waterwise-live"

    def __init__(self, seed: int, scale: str, session_s: float, workdir: str) -> None:
        self.seed = int(seed)
        self.batches = max(1, round(session_s / LIVE_PERIOD_S))
        self.warmup_jobs = SCALES[scale]["warmup_jobs"]
        self.checkpoint_every = SCALES[scale]["live_checkpoint_every"]
        self.checkpoint_path = os.path.join(workdir, f"live-{os.getpid()}.ckpt")

    #: One session covers distinct batches throughout; it needs no parts.
    parts = 1

    def instance_key(self, part: int = 0) -> str:
        return f"seed={self.seed} batches={self.batches} pace={LIVE_PACE:g} period={LIVE_PERIOD_S:g}"

    def _engine(self, source=None):
        from repro.cluster import StreamingSimulator
        from repro.schedulers import make_scheduler

        return StreamingSimulator(
            source, make_scheduler("waterwise"), dataset=self.dataset,
            servers_per_region=SERVERS_PER_REGION, collect="aggregate",
        )

    def setup(self) -> None:
        from repro.service import run_replay
        from repro.traces.scenarios import scenario_source

        window_s = LIVE_PACE * LIVE_PERIOD_S
        days = self.batches * window_s / 86_400.0
        self.dataset = make_dataset(days, self.seed)
        source = scenario_source(
            "diurnal", seed=self.seed, rate_per_hour=RATE_PER_HOUR, duration_days=days
        )
        self.trace_chunk = next(source.iter_chunks(None))
        bounds = np.searchsorted(
            self.trace_chunk.arrival, np.arange(self.batches + 1) * window_s, side="left"
        )
        bounds[-1] = self.trace_chunk.n
        self.chunks = [
            slice_chunk(self.trace_chunk, int(bounds[k]), int(bounds[k + 1]))
            for k in range(self.batches)
        ]
        warmup = scenario_source(
            "diurnal", seed=self.seed, rate_per_hour=RATE_PER_HOUR,
            duration_days=duration_days_for(self.warmup_jobs),
        )
        run_replay(warmup, self._engine(warmup), chunk_size=64)

    def reference(self, part: int = 0) -> Answer:
        from repro.traces.stream import CHUNK_COLUMNS, ColumnSource

        source = ColumnSource(
            {field: getattr(self.trace_chunk, field) for field in CHUNK_COLUMNS},
            region_keys=self.trace_chunk.region_keys,
            workload_names=self.trace_chunk.workload_names,
        )
        return _answer(self._engine(source).run())

    def session(self, tracer=None, admitted: list | None = None) -> Session:
        """Run one open-loop session over ``self.chunks`` (fresh engine).

        With a ``tracer``, each step of the load generator's coroutines is
        spanned as ``loadgen``, and ``admitted`` is the list the traced
        ``admit()`` appends each batch admission's start time to (see
        :func:`spans.layer_targets`), which yields per-batch queue waits.
        """
        import spans

        def wrap(coro):
            return coro if tracer is None else spans.stepped(tracer, "loadgen", coro)

        idle = [0.0]
        cpu0, wall0 = time.process_time(), time.perf_counter()
        try:
            with asyncio.Runner() as runner:
                # Time the loop spends blocked in its selector is idle time;
                # the rest of the session's wall time is busy.
                selector = runner.get_loop()._selector
                blocking_select = selector.select

                def select(timeout=None):
                    started = time.perf_counter()
                    try:
                        return blocking_select(timeout)
                    finally:
                        idle[0] += time.perf_counter() - started

                selector.select = select
                run = runner.run(wrap(self._drive(wrap)))
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.checkpoint_path)
        cpu_s, wall_s = time.process_time() - cpu0, time.perf_counter() - wall0
        return self._summarize(run, admitted or [], cpu_s, wall_s, wall_s - idle[0])

    async def _drive(self, wrap) -> dict:
        """The session itself; returns its raw record for :meth:`_summarize`."""
        from repro.service import AdmissionGateway

        clock = time.perf_counter
        gateway = AdmissionGateway(self._engine(), arrival_mode="recorded")
        n = self.batches
        run = {"due": [0.0] * n, "done": [0.0] * n, "submitted": [],
               "futures": [None] * n, "errors": {}}
        tasks = []

        async def send(k: int) -> None:
            try:
                run["futures"][k] = await gateway.submit_nowait(self.chunks[k])
                run["submitted"].append(clock())
                await gateway.tick()
            except Exception as error:  # recorded as a failed batch
                run["errors"][k] = error
            run["done"][k] = clock()

        def fire(k: int, due: float) -> None:
            run["due"][k] = due
            tasks.append(asyncio.create_task(wrap(send(k))))
            if (k + 1) % self.checkpoint_every == 0:
                tasks.append(asyncio.create_task(gateway.checkpoint(self.checkpoint_path)))

        await gateway.start()
        run["lateness"] = await OpenLoop(LIVE_PERIOD_S, clock=clock).run(n, fire)
        run["outcomes"] = await asyncio.gather(*tasks, return_exceptions=True)
        run["result"] = await gateway.close()
        run["stats"] = gateway.stats()
        return run

    def _summarize(self, run: dict, admitted: list, cpu_s: float, wall_s: float,
                   busy_s: float) -> Session:
        """Check that every job was decided exactly once; build the Session."""
        failures = [f"batch {k}: {error!r}" for k, error in sorted(run["errors"].items())]
        failures += [repr(o) for o in run["outcomes"] if isinstance(o, BaseException)]
        failed = set(run["errors"])
        decided = 0
        for k, futures in enumerate(run["futures"]):
            if futures is None:
                continue
            got = [f.result().job_id if f.done() and not f.cancelled() and f.exception() is None
                   else None for f in futures]
            decided += sum(job_id is not None for job_id in got)
            if got != self.chunks[k].job_id.tolist():
                failed.add(k)
        stats = run["stats"]
        if stats.decided != self.trace_chunk.n or stats.outstanding or stats.unclaimed:
            failures.append(
                f"gateway decided {stats.decided} of {self.trace_chunk.n} jobs "
                f"({stats.outstanding} outstanding, {stats.unclaimed} unclaimed)"
            )
        if failed:
            failures.append(f"{len(failed)} batches not decided exactly once")
        return Session(
            answer=_answer(run["result"]),
            latency_s=[done - due for done, due in zip(run["done"], run["due"])],
            lateness_s=run["lateness"],
            queue_wait_s=[a - s for a, s in zip(admitted, run["submitted"])],
            cpu_s=cpu_s,
            wall_s=wall_s,
            busy_s=busy_s,
            decided=decided,
            failed_batches=len(failed),
            failures=failures,
            kernel=_kernel_counts([run["result"]]),
        )


SIMULATIONS = {cls.name: cls for cls in (WaterWiseBatch, BaselineStream, RegistryOutage)}

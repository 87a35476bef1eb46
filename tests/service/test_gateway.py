"""Unit tests for the asyncio admission gateway.

Digest equivalence of replayed sessions lives in
``tests/integration/test_differential.py``; this file covers the gateway's
mechanics — submission, ticking, backpressure bounds, error poisoning,
checkpointing, and the latency/throughput counters.
"""

import asyncio
import gc
import itertools
import pickle
import types

import numpy as np
import pytest

from repro.cluster import StreamingSimulator
from repro.schedulers import make_scheduler
from repro.service import AdmissionGateway, SimClock, WallClock
from repro.sustainability import ElectricityMapsLikeProvider
from repro.traces.job import Job
from repro.traces.scenarios import scenario_source


@pytest.fixture(scope="module")
def dataset():
    return ElectricityMapsLikeProvider(horizon_hours=72, seed=4)


@pytest.fixture(scope="module")
def source():
    return scenario_source("bursty", seed=13, rate_per_hour=40.0, duration_days=0.1)


def _engine(source, dataset, **kwargs):
    kwargs.setdefault("servers_per_region", 8)
    kwargs.setdefault("chunk_size", 64)
    kwargs.setdefault("collect", "aggregate")
    return StreamingSimulator(
        source, make_scheduler("waterwise"), dataset=dataset, **kwargs
    )


def _jobs(engine, count, start_id=0, workload="web-search"):
    regions = engine._keys_tuple
    return [
        Job(
            job_id=start_id + i,
            workload=workload,
            arrival_time=0.0,
            execution_time=600.0,
            energy_kwh=0.4,
            home_region=regions[i % len(regions)],
        )
        for i in range(count)
    ]


class TestRecordedMode:
    def test_replayed_chunks_decide_every_job(self, source, dataset):
        async def scenario():
            engine = _engine(source, dataset)
            gateway = await AdmissionGateway(engine).start()
            futures = []
            for chunk in source.iter_chunks(64):
                futures.extend(await gateway.submit_nowait(chunk))
            result = await gateway.close()
            decisions = [future.result() for future in futures]
            return engine, decisions, result

        engine, decisions, result = asyncio.run(scenario())
        assert len(decisions) == engine.state.jobs_seen
        assert result.num_jobs == len(decisions)
        regions = set(engine._keys_tuple)
        assert all(d.region in regions for d in decisions)
        # decided_at is the committing round's simulation time.
        assert all(d.decided_at >= 0.0 for d in decisions)

    @pytest.mark.parametrize("batches", [2, 8])
    def test_latency_quantiles_track_order_statistics(
        self, source, dataset, batches, monkeypatch
    ):
        # The gateway's wall clock steps 10 µs per reading, so every latency
        # is sub-millisecond.  200 decisions stay in the estimator's exact
        # mode: the reported quantiles are the latencies' exact quantiles.
        # 800 go through its histogram, whose estimate must sit on the
        # nearest-rank order statistic within bin resolution (a grid that
        # started at 1 ms would clamp every one of them).
        from repro.service import gateway as gateway_module

        readings = itertools.count()
        monkeypatch.setattr(
            gateway_module, "time",
            types.SimpleNamespace(monotonic=lambda: 10e-6 * next(readings)),
        )

        async def scenario():
            engine = StreamingSimulator(
                source, make_scheduler("baseline"), dataset=dataset,
                servers_per_region=8, chunk_size=64, collect="aggregate",
            )
            gateway = await AdmissionGateway(engine).start()
            futures = []
            for batch in range(batches):
                futures.extend(
                    await gateway.submit_nowait(_jobs(engine, 100, start_id=100 * batch))
                )
            await gateway.close()
            return gateway.stats(), [future.result().latency_s for future in futures]

        stats, latencies = asyncio.run(scenario())
        assert stats.decided == len(latencies) == 100 * batches
        assert 0.0 < max(latencies) < 1e-3
        for q, got in ((0.5, stats.latency_p50_s), (0.95, stats.latency_p95_s),
                       (0.99, stats.latency_p99_s)):
            if batches == 2:
                assert got == np.quantile(latencies, q), q
            else:
                want = np.quantile(latencies, q, method="higher")
                assert got == pytest.approx(want, rel=3e-3), q
        assert stats.latency_max_s == max(latencies)

    def test_job_objects_are_columnized(self, source, dataset):
        async def scenario():
            engine = _engine(source, dataset)
            gateway = await AdmissionGateway(engine).start()
            jobs = _jobs(engine, 6)
            futures = await gateway.submit_nowait(jobs)
            await gateway.close()
            return jobs, [future.result() for future in futures]

        jobs, decisions = asyncio.run(scenario())
        # Futures come back in submission order, one per job.
        assert [d.job_id for d in decisions] == [j.job_id for j in jobs]

    def test_duplicate_outstanding_job_id_rejected(self, source, dataset):
        async def scenario():
            engine = _engine(source, dataset)
            gateway = await AdmissionGateway(engine).start()
            await gateway.submit_nowait(_jobs(engine, 2))
            with pytest.raises(ValueError, match="already outstanding"):
                await gateway.submit_nowait(_jobs(engine, 2))
            await gateway.close()

        asyncio.run(scenario())

    def test_rejected_batch_strands_no_waiters(self, source, dataset):
        async def scenario():
            engine = _engine(source, dataset)
            gateway = await AdmissionGateway(engine).start()
            # Intra-batch duplicate: rejected up front, before any waiter
            # registers.
            twice = _jobs(engine, 1, start_id=5) + _jobs(engine, 1, start_id=5)
            with pytest.raises(ValueError, match="already outstanding"):
                await gateway.submit_nowait(twice)
            # Partial overlap with an outstanding id: ids 0..2 are live, the
            # batch {2, 3} must be rejected without registering id 3.
            await gateway.submit_nowait(_jobs(engine, 3))
            with pytest.raises(ValueError, match="already outstanding"):
                await gateway.submit_nowait(_jobs(engine, 2, start_id=2))
            assert gateway.stats().outstanding == 3
            # Every id a failed batch carried stays submittable.
            futures = await gateway.submit_nowait(
                _jobs(engine, 1, start_id=3) + _jobs(engine, 1, start_id=5)
            )
            await gateway.close()
            return [future.result() for future in futures]

        decisions = asyncio.run(scenario())
        assert [d.job_id for d in decisions] == [3, 5]

    def test_futures_follow_caller_order_not_arrival_order(self, source, dataset):
        async def scenario():
            engine = _engine(source, dataset)
            gateway = await AdmissionGateway(engine).start()
            regions = engine._keys_tuple
            # Arrival times deliberately out of order within the batch: the
            # chunk handed to the engine is arrival-sorted, but the futures
            # must still line up with the caller's input list.
            jobs = [
                Job(job_id=100 + i, workload="web-search", arrival_time=when,
                    execution_time=300.0, energy_kwh=0.2,
                    home_region=regions[i % len(regions)])
                for i, when in enumerate([30.0, 10.0, 20.0, 5.0])
            ]
            futures = await gateway.submit_nowait(jobs)
            await gateway.close()
            return jobs, [future.result() for future in futures]

        jobs, decisions = asyncio.run(scenario())
        assert [d.job_id for d in decisions] == [j.job_id for j in jobs]

    def test_unknown_home_region_rejected(self, source, dataset):
        async def scenario():
            engine = _engine(source, dataset)
            gateway = await AdmissionGateway(engine).start()
            bad = [
                Job(job_id=0, workload="web-search", arrival_time=0.0,
                    execution_time=60.0, energy_kwh=0.1, home_region="atlantis")
            ]
            with pytest.raises(ValueError, match="atlantis"):
                await gateway.submit_nowait(bad)
            await gateway.close()

        asyncio.run(scenario())

    def test_late_batch_refused_without_poisoning(self, source, dataset):
        async def scenario():
            engine = _engine(source, dataset)
            gateway = await AdmissionGateway(engine).start()
            regions = engine._keys_tuple

            def batch(job_id, arrival):
                return [Job(job_id=job_id, workload="web-search", arrival_time=arrival,
                            execution_time=60.0, energy_kwh=0.1, home_region=regions[0])]

            futures = await gateway.submit_nowait(batch(0, 100.0))
            # Still queued, the t = 100 s batch already sets the watermark the
            # engine will have when it reaches a batch submitted now.
            assert engine.state is None or engine.state.watermark < 100.0
            with pytest.raises(ValueError, match="watermark"):
                await gateway.submit_nowait(batch(1, 50.0))
            # A queued tick(now) raises it too.
            tick = asyncio.ensure_future(gateway.tick(300.0))
            await asyncio.sleep(0)
            assert not tick.done()
            with pytest.raises(ValueError, match="watermark"):
                await gateway.submit_nowait(batch(2, 200.0))
            futures += await gateway.submit_nowait(batch(3, 400.0))
            await tick
            result = await gateway.close()
            return futures, result, gateway.stats()

        futures, result, stats = asyncio.run(scenario())
        assert all(f.done() and f.exception() is None for f in futures)
        assert sorted(f.result().job_id for f in futures) == [0, 3]
        assert result.num_jobs == 2
        assert stats.submitted == stats.decided == 2 and stats.outstanding == 0

    def test_batch_at_the_queued_watermark_is_accepted(self, source, dataset):
        # Only arrivals strictly before the watermark are late: a batch that
        # starts at the last queued arrival, or at a queued tick(now), is
        # decided like any other.
        async def scenario():
            engine = _engine(source, dataset)
            gateway = await AdmissionGateway(engine).start()
            regions = engine._keys_tuple

            def batch(job_id, arrival):
                return [Job(job_id=job_id, workload="web-search", arrival_time=arrival,
                            execution_time=60.0, energy_kwh=0.1, home_region=regions[0])]

            futures = await gateway.submit_nowait(batch(0, 100.0))
            futures += await gateway.submit_nowait(batch(1, 100.0))
            tick = asyncio.ensure_future(gateway.tick(250.0))
            await asyncio.sleep(0)
            futures += await gateway.submit_nowait(batch(2, 250.0))
            await tick
            result = await gateway.close()
            return futures, result

        futures, result = asyncio.run(scenario())
        assert [f.result().job_id for f in futures] == [0, 1, 2]
        assert result.num_jobs == 3

    def test_refused_batch_registers_no_waiter(self, source, dataset):
        # A late batch is refused before any of its ids is registered, so the
        # same ids can be submitted again with valid arrivals.
        async def scenario():
            engine = _engine(source, dataset)
            gateway = await AdmissionGateway(engine).start()
            regions = engine._keys_tuple

            def batch(ids, arrival):
                return [Job(job_id=job_id, workload="web-search", arrival_time=arrival,
                            execution_time=60.0, energy_kwh=0.1, home_region=regions[0])
                        for job_id in ids]

            futures = await gateway.submit_nowait(batch([0], 100.0))
            with pytest.raises(ValueError, match="watermark"):
                await gateway.submit_nowait(batch([1, 2], 50.0))
            refused = gateway.stats()
            futures += await gateway.submit_nowait(batch([1, 2], 150.0))
            result = await gateway.close()
            return futures, refused, result

        futures, refused, result = asyncio.run(scenario())
        assert refused.submitted == refused.outstanding == 1
        assert sorted(f.result().job_id for f in futures) == [0, 1, 2]
        assert result.num_jobs == 3


class TestClockMode:
    def test_tick_resolves_deferred_decisions(self, source, dataset):
        async def scenario():
            engine = _engine(source, dataset)
            clock = SimClock()
            gateway = await AdmissionGateway(
                engine, clock=clock, arrival_mode="clock", tick_interval_s=None
            ).start()
            futures = await gateway.submit_nowait(_jobs(engine, 4))
            # Flush the batch at watermark 0: ingested, but the deciding
            # round is in the future, so nothing resolves yet.
            assert await gateway.tick() == 0
            assert not any(f.done() for f in futures)
            clock.advance_to(3600.0)
            decided = await gateway.tick()
            assert decided == 4
            decisions = [f.result() for f in futures]
            await gateway.close()
            return decisions

        decisions = asyncio.run(scenario())
        assert len(decisions) == 4

    def test_auto_tick_gives_liveness(self, source, dataset):
        async def scenario():
            engine = _engine(source, dataset)
            gateway = await AdmissionGateway(
                engine,
                clock=WallClock(rate=200_000.0),
                arrival_mode="clock",
                tick_interval_s=0.01,
            ).start()
            # submit() awaits decisions inline — only the self-tick can
            # resolve them on a quiet service.
            decisions = await asyncio.wait_for(
                gateway.submit(_jobs(engine, 3)), timeout=30.0
            )
            stats = gateway.stats()
            await gateway.close()
            return decisions, stats

        decisions, stats = asyncio.run(scenario())
        assert len(decisions) == 3
        assert stats.ticks >= 1
        assert stats.decided == 3
        assert stats.latency_p99_s > 0.0
        assert stats.throughput_jobs_per_s > 0.0

    def test_pipelined_submissions_do_not_poison_gateway(self, source, dataset):
        async def scenario():
            engine = _engine(source, dataset)
            gateway = await AdmissionGateway(
                engine,
                clock=WallClock(rate=200_000.0),
                arrival_mode="clock",
                tick_interval_s=0.01,
            ).start()
            # Two back-to-back submissions (pipelined clients): both sit in
            # the queue before the loop admits either.  Admitting the first
            # raises the watermark past any submit-time stamp, so the batch
            # must be stamped at admission time or the second one arrives
            # "before the watermark" and poisons the gateway for everyone.
            first = await gateway.submit_nowait(_jobs(engine, 2))
            second = await gateway.submit_nowait(_jobs(engine, 2, start_id=10))
            decisions = await asyncio.wait_for(
                asyncio.gather(*first, *second), timeout=30.0
            )
            await gateway.close()
            return decisions

        decisions = asyncio.run(scenario())
        assert len(decisions) == 4

    def test_arrivals_never_stamped_before_watermark(self, source, dataset):
        async def scenario():
            engine = _engine(source, dataset)
            clock = SimClock()
            gateway = await AdmissionGateway(
                engine, clock=clock, arrival_mode="clock", tick_interval_s=None
            ).start()
            clock.advance_to(1000.0)
            await gateway.submit_nowait(_jobs(engine, 2))
            await gateway.tick(now=7200.0)
            # The clock lags the watermark now; the next batch must be
            # stamped at the watermark, not the stale clock.
            clock.advance_to(1500.0)
            futures = await gateway.submit_nowait(_jobs(engine, 2, start_id=10))
            await gateway.tick(now=14_400.0)
            decisions = [f.result() for f in futures]
            await gateway.close()
            return decisions

        decisions = asyncio.run(scenario())
        assert all(d.decided_at >= 7200.0 for d in decisions)


class TestLifecycle:
    def test_requires_start(self, source, dataset):
        async def scenario():
            gateway = AdmissionGateway(_engine(source, dataset))
            with pytest.raises(RuntimeError, match="not started"):
                await gateway.submit_nowait([])

        asyncio.run(scenario())

    def test_submit_after_close_rejected(self, source, dataset):
        async def scenario():
            engine = _engine(source, dataset)
            gateway = await AdmissionGateway(engine).start()
            await gateway.close()
            with pytest.raises(RuntimeError, match="closed"):
                await gateway.submit_nowait(_jobs(engine, 1))

        asyncio.run(scenario())

    def test_abort_cancels_outstanding_futures(self, source, dataset):
        async def scenario():
            engine = _engine(source, dataset)
            gateway = await AdmissionGateway(engine).start()
            futures = await gateway.submit_nowait(_jobs(engine, 2))
            # Jobs at arrival 0 defer to the first scheduling round, which
            # needs a higher watermark — they are outstanding at abort time.
            await gateway.abort()
            return futures

        futures = asyncio.run(scenario())
        assert all(f.cancelled() for f in futures)

    def test_invalid_parameters(self, source, dataset):
        engine = _engine(source, dataset)
        with pytest.raises(ValueError, match="arrival_mode"):
            AdmissionGateway(engine, arrival_mode="psychic")
        with pytest.raises(ValueError, match="max_pending_batches"):
            AdmissionGateway(engine, max_pending_batches=0)
        with pytest.raises(ValueError, match="tick_interval_s"):
            AdmissionGateway(engine, tick_interval_s=-1.0)

    def test_backpressure_bounds_queue(self, source, dataset):
        async def scenario():
            engine = _engine(source, dataset)
            gateway = await AdmissionGateway(engine, max_pending_batches=2).start()
            assert gateway._queue.maxsize == 2
            # Many more batches than the bound still all complete — the
            # submitter suspends instead of overflowing or dropping.
            futures = []
            for chunk in source.iter_chunks(8):
                futures.extend(await gateway.submit_nowait(chunk))
            await gateway.close()
            return futures

        futures = asyncio.run(scenario())
        assert futures and all(f.done() and not f.cancelled() for f in futures)

    def test_engine_fault_leaves_no_unretrieved_task_exception(self, source, dataset):
        contexts = []

        def broken_admit(chunk, now=None):
            raise RuntimeError("engine fault")

        async def scenario():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: contexts.append(context)
            )
            engine = _engine(source, dataset)
            engine.admit = broken_admit
            gateway = await AdmissionGateway(engine).start()
            with pytest.raises(RuntimeError, match="engine fault"):
                await asyncio.wait_for(gateway.tick(), timeout=5.0)
            # The loop ends on the fault and keeps it only in the gateway.
            await asyncio.wait_for(asyncio.shield(gateway._task), timeout=5.0)
            return gateway._task

        task = asyncio.run(scenario())
        assert task.done() and task.exception() is None
        # Nothing awaits the loop task once the gateway is poisoned; asyncio
        # logs an exception left on it when the task is collected.
        del task
        gc.collect()
        assert not [c for c in contexts if "never retrieved" in c["message"]]


class TestCheckpoint:
    def test_in_loop_checkpoint_roundtrips(self, source, dataset, tmp_path):
        target = tmp_path / "live.ckpt"

        async def scenario():
            engine = _engine(source, dataset)
            gateway = await AdmissionGateway(engine).start()
            chunks = source.iter_chunks(64)
            await gateway.submit_nowait(next(chunks))
            await gateway.checkpoint(target, extra={"note": "mid-session"})
            stats = gateway.stats()
            await gateway.abort()
            return stats

        stats = asyncio.run(scenario())
        assert stats.checkpoints == 1
        payload = StreamingSimulator.load_checkpoint(target)
        assert payload["extra"]["note"] == "mid-session"
        assert payload["state"].jobs_seen > 0

    def test_checkpoint_before_first_admission_fails_only_that_request(
        self, source, dataset, tmp_path
    ):
        async def scenario():
            engine = _engine(source, dataset)
            gateway = await AdmissionGateway(engine).start()
            # Nothing has been admitted, so there is no session state to save.
            with pytest.raises(RuntimeError, match="nothing to checkpoint"):
                await asyncio.wait_for(
                    gateway.checkpoint(tmp_path / "early.ckpt"), timeout=5.0
                )
            # The gateway keeps serving: batches, a later checkpoint and the
            # finalization all go through.
            futures = await gateway.submit_nowait(next(source.iter_chunks(64)))
            await asyncio.wait_for(gateway.checkpoint(tmp_path / "live.ckpt"), timeout=5.0)
            await asyncio.wait_for(gateway.close(), timeout=30.0)
            return futures, gateway.stats()

        futures, stats = asyncio.run(scenario())
        assert stats.checkpoints == 1
        assert futures and all(f.done() and f.exception() is None for f in futures)
        assert [path.name for path in tmp_path.iterdir()] == ["live.ckpt"]

    def test_unwritable_path_fails_only_that_request(self, source, dataset, tmp_path):
        async def scenario():
            engine = _engine(source, dataset)
            gateway = await AdmissionGateway(engine).start()
            chunks = source.iter_chunks(64)
            await gateway.submit_nowait(next(chunks))
            with pytest.raises(FileNotFoundError):
                await asyncio.wait_for(
                    gateway.checkpoint(tmp_path / "missing" / "live.ckpt"), timeout=5.0
                )
            # The gateway keeps serving: later batches and checkpoints go through.
            futures = await gateway.submit_nowait(next(chunks))
            await asyncio.wait_for(gateway.checkpoint(tmp_path / "live.ckpt"), timeout=5.0)
            await asyncio.wait_for(gateway.close(), timeout=30.0)
            return futures, gateway.stats()

        futures, stats = asyncio.run(scenario())
        assert stats.checkpoints == 1
        assert all(future.done() and future.exception() is None for future in futures)
        assert [path.name for path in tmp_path.iterdir()] == ["live.ckpt"]

    def test_engine_fault_fails_request_in_flight(self, source, dataset):
        # A failed save changes no engine state and fails only its own
        # request, so the fault is injected into the engine's admission: the
        # tick in flight must fail with it, and the gateway is poisoned.
        def broken_admit(chunk, now=None):
            raise RuntimeError("engine fault")

        async def scenario():
            engine = _engine(source, dataset)
            engine.admit = broken_admit
            gateway = await AdmissionGateway(engine).start()
            with pytest.raises(RuntimeError, match="engine fault"):
                await asyncio.wait_for(gateway.tick(), timeout=5.0)
            with pytest.raises(RuntimeError, match="failed"):
                await gateway.submit_nowait(_jobs(engine, 1, start_id=10_000))

        asyncio.run(scenario())

"""Unit tests for the streaming horizon engine.

The registry-wide decision-equivalence and resume-determinism cells live in
``tests/integration/test_differential.py``; this file covers the engine's
mechanics: the init/advance/finalize lifecycle, bounded pool memory, the
aggregate collectors, checkpoint round-trips and the error paths.
"""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from repro.cluster import BatchSimulator, StreamingSimulator
from repro.cluster.metrics import ReservoirSample, RunningJobStats, StreamingQuantiles
from repro.cluster.footprint import RunningFootprintTotals
from repro.schedulers import make_scheduler
from repro.sustainability import ElectricityMapsLikeProvider
from repro.traces.scenarios import scenario_source

from .conftest import DeferOnceTestScheduler


@pytest.fixture(scope="module")
def dataset():
    return ElectricityMapsLikeProvider(horizon_hours=72, seed=4)


@pytest.fixture(scope="module")
def source():
    return scenario_source("bursty", seed=13, rate_per_hour=40.0, duration_days=0.1)


@pytest.fixture(scope="module")
def oneshot(source, dataset):
    return BatchSimulator(
        source.materialize(), make_scheduler("waterwise"), dataset=dataset,
        servers_per_region=8,
    ).run()


def _stream(source, dataset, policy="waterwise", **kwargs):
    kwargs.setdefault("servers_per_region", 8)
    return StreamingSimulator(
        source, make_scheduler(policy), dataset=dataset, **kwargs
    )


class TestLifecycle:
    def test_full_collect_matches_oneshot_digest(self, source, dataset, oneshot):
        result = _stream(source, dataset, chunk_size=50).run()
        assert result.digest() == oneshot.digest()

    def test_manual_advance_finalize_equals_run(self, source, dataset, oneshot):
        engine = _stream(source, dataset, chunk_size=64)
        engine.init_state()
        for chunk in source.iter_chunks(64):
            engine.advance(chunk)
        assert engine.finalize().digest() == oneshot.digest()

    def test_caller_chosen_irregular_chunking(self, source, dataset, oneshot):
        # advance() accepts any time-ordered chunking, not just run()'s:
        # replay the stream in alternating 1-job and 97-job chunks.
        engine = _stream(source, dataset)
        engine.init_state()
        skip = 0
        size = 1
        while True:
            chunk = next(iter(source.iter_chunks(size, skip_jobs=skip)), None)
            if chunk is None:
                break
            engine.advance(chunk)
            skip += chunk.n
            size = 97 if size == 1 else 1
        assert engine.finalize().digest() == oneshot.digest()

    def test_finalize_without_chunks_is_empty(self, source, dataset):
        engine = _stream(source, dataset, collect="aggregate")
        result = engine.finalize()
        assert result.num_jobs == 0
        assert result.total_carbon_g == 0.0

    def test_pool_memory_stays_bounded(self, dataset):
        # A long stream with short jobs: the pool must track active jobs,
        # not the total processed, so its high-water mark stays far below
        # the job count.
        big = scenario_source("diurnal", seed=3, rate_per_hour=300.0, duration_days=1.0)
        engine = _stream(big, dataset, policy="baseline", collect="aggregate",
                         servers_per_region=40)
        engine.init_state()
        high_water = 0
        total = 0
        for chunk in big.iter_chunks(256):
            engine.advance(chunk)
            high_water = max(high_water, engine.state.pool_capacity)
            total += chunk.n
        result = engine.finalize()
        assert result.num_jobs == total > 2000
        assert high_water < total / 2

    def test_out_of_order_chunk_rejected(self, source, dataset):
        engine = _stream(source, dataset)
        engine.init_state()
        chunks = list(source.iter_chunks(50))
        engine.advance(chunks[1])
        with pytest.raises(ValueError, match="out of order"):
            engine.advance(chunks[0])

    @pytest.mark.parametrize(
        "arrivals, bad",
        [([100.0, math.nan, 4000.0], 1), ([100.0, 4000.0, 50.0], 2)],
        ids=["nan", "decreasing"],
    )
    def test_unorderable_chunk_arrivals_rejected(self, source, dataset, arrivals, bad):
        # A NaN arrival used to make finalize() tick forever, and a
        # decreasing one was considered rounds after it arrived.
        chunk = next(iter(source.iter_chunks(3)))
        chunk = dataclasses.replace(chunk, arrival=np.array(arrivals))
        engine = _stream(source, dataset, policy="baseline")
        engine.init_state()
        with pytest.raises(ValueError, match=rf"job {int(chunk.job_id[bad])}\b"):
            engine.advance(chunk)
        assert engine.state.jobs_seen == 0

    @pytest.mark.parametrize("collect", ["full", "aggregate"])
    def test_init_state_after_run_matches_fresh_engine(self, source, dataset, collect):
        # Full collect takes the baseline fast path; aggregate the scalar
        # fallback rounds, which build Jobs from the workload vocabulary.
        def engine():
            scheduler = (
                make_scheduler("baseline") if collect == "full" else DeferOnceTestScheduler()
            )
            return StreamingSimulator(
                source, scheduler, dataset=dataset, servers_per_region=8,
                chunk_size=50, collect=collect,
            )

        fresh = engine().run().digest()
        rerun = engine()
        rerun.run()
        rerun.init_state()
        assert rerun.run().digest() == fresh

    def test_init_state_after_partial_run_drops_cached_jobs(self, source, dataset):
        def engine():
            return StreamingSimulator(
                source, DeferOnceTestScheduler(), dataset=dataset,
                servers_per_region=8, chunk_size=16, collect="aggregate",
            )

        fresh = engine().run().digest()
        partial = engine()
        partial.run_chunks(max_chunks=3)
        assert partial._job_cache  # Jobs of pending slots the new pool reuses
        partial.init_state()
        assert partial.run().digest() == fresh

    def test_unknown_home_region_rejected(self, source, dataset):
        engine = StreamingSimulator(
            source, make_scheduler("baseline"), dataset=dataset,
            regions=dataset.regions[:2], servers_per_region=8,
        )
        engine.init_state()
        with pytest.raises(ValueError, match="not part of the simulated cluster"):
            for chunk in source.iter_chunks(200):
                engine.advance(chunk)

    def test_constructor_validation(self, source, dataset):
        with pytest.raises(ValueError, match="chunk_size"):
            _stream(source, dataset, chunk_size=0)
        with pytest.raises(ValueError, match="collect"):
            _stream(source, dataset, collect="everything")


class TestAggregateCollect:
    def test_aggregates_match_full_result(self, source, dataset, oneshot):
        result = _stream(source, dataset, chunk_size=33, collect="aggregate").run()
        assert result.num_jobs == oneshot.num_jobs
        assert result.total_carbon_g == pytest.approx(oneshot.total_carbon_g, rel=1e-9)
        assert result.total_water_l == pytest.approx(oneshot.total_water_l, rel=1e-9)
        assert result.mean_service_ratio == pytest.approx(
            oneshot.mean_service_ratio, rel=1e-9
        )
        assert result.violation_fraction == oneshot.violation_fraction
        assert result.migration_fraction == oneshot.migration_fraction
        assert result.jobs_per_region() == oneshot.jobs_per_region()
        assert result.region_utilization == pytest.approx(oneshot.region_utilization)
        assert result.makespan_s == oneshot.makespan_s
        assert result.summary().keys() == oneshot.summary().keys()
        assert result.solver_stats is not None  # the session survives streaming

    def test_quantiles_and_reservoir(self, source, dataset, oneshot):
        result = _stream(
            source, dataset, collect="aggregate", reservoir_size=32, chunk_size=40
        ).run()
        quantiles = result.service_ratio_quantiles()
        ratios = np.sort((oneshot.finish - oneshot.considered) / oneshot.execution_time)
        assert quantiles[0.5] == pytest.approx(np.quantile(ratios, 0.5), rel=0.15)
        assert quantiles[0.5] <= quantiles[0.95] <= quantiles[0.99]
        rows = result.reservoir_rows()
        assert len(rows["job_id"]) == 32
        assert set(rows["job_id"]) <= set(oneshot.job_id.tolist())

    def test_reservoir_is_seeded_and_deterministic(self, source, dataset):
        first = _stream(source, dataset, policy="baseline", collect="aggregate",
                        reservoir_size=16, chunk_size=25).run()
        second = _stream(source, dataset, policy="baseline", collect="aggregate",
                         reservoir_size=16, chunk_size=25).run()
        np.testing.assert_array_equal(
            first.reservoir_rows()["job_id"], second.reservoir_rows()["job_id"]
        )


class TestCheckpoint:
    def test_checkpoint_roundtrip_resumes_identically(self, source, dataset, oneshot, tmp_path):
        path = tmp_path / "engine.ckpt"
        engine = _stream(source, dataset, chunk_size=40)
        consumed = engine.run_chunks(max_chunks=2)
        assert consumed == 2
        engine.save_checkpoint(path, extra={"note": "mid-run"})
        payload = StreamingSimulator.load_checkpoint(path)
        assert payload["extra"]["note"] == "mid-run"
        resumed = StreamingSimulator.from_checkpoint(path, source, dataset=dataset)
        assert resumed.run().digest() == oneshot.digest()

    def test_resume_with_different_chunk_size(self, source, dataset, oneshot, tmp_path):
        path = tmp_path / "engine.ckpt"
        engine = _stream(source, dataset, chunk_size=40)
        engine.run_chunks(max_chunks=1)
        engine.save_checkpoint(path)
        resumed = StreamingSimulator.from_checkpoint(
            path, source, dataset=dataset, chunk_size=7
        )
        assert resumed.run().digest() == oneshot.digest()

    def test_checkpoint_region_mismatch_rejected(self, source, dataset, tmp_path):
        path = tmp_path / "engine.ckpt"
        engine = _stream(source, dataset, chunk_size=40)
        engine.run_chunks(max_chunks=1)
        engine.save_checkpoint(path)
        with pytest.raises(ValueError, match="regions"):
            StreamingSimulator.from_checkpoint(
                path, source, dataset=dataset, regions=dataset.regions[:2]
            )

    @pytest.mark.parametrize("kernel", ["auto", "compiled"])
    def test_removed_kernel_names_rejected(self, source, dataset, kernel):
        with pytest.raises(ValueError, match="kernel must be 'vector' or 'scalar'"):
            _stream(source, dataset, kernel=kernel)
        with pytest.raises(ValueError, match="kernel must be 'vector' or 'scalar'"):
            BatchSimulator(source.materialize(), make_scheduler("baseline"),
                           dataset=dataset, kernel=kernel)

    def test_checkpoint_naming_a_removed_kernel_resumes_on_vector(
        self, source, dataset, oneshot, tmp_path
    ):
        # A format-4 file saved while `kernel="compiled"` existed: its config
        # names the removed kernel and its KernelStats carries the removed
        # counter.  It still loads, refuses to resume on the stale name, and
        # resumes through the kernel="vector" override.
        path = tmp_path / "engine.ckpt"
        engine = _stream(source, dataset, chunk_size=40)
        engine.run_chunks(max_chunks=1)
        engine.save_checkpoint(path)
        payload = pickle.loads(path.read_bytes())
        payload["config"]["kernel"] = "compiled"
        payload["state"].kernel_stats.compiled_events = 17
        path.write_bytes(pickle.dumps(payload))
        with pytest.raises(ValueError, match="kernel must be"):
            StreamingSimulator.from_checkpoint(path, source, dataset=dataset)
        resumed = StreamingSimulator.from_checkpoint(
            path, source, dataset=dataset, kernel="vector"
        )
        result = resumed.run()
        assert result.digest() == oneshot.digest()
        assert "compiled_events" not in result.kernel_stats

    def test_checkpoint_requires_state(self, source, dataset, tmp_path):
        engine = _stream(source, dataset)
        with pytest.raises(RuntimeError, match="nothing to checkpoint"):
            engine.save_checkpoint(tmp_path / "nope.ckpt")

    def test_stale_format_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(pickle.dumps({"format": -1}))
        with pytest.raises(ValueError, match="checkpoint"):
            StreamingSimulator.load_checkpoint(path)

    def test_format_mismatch_reports_found_format(self, tmp_path):
        # A synthetic format-2 payload (pre-chaos layout): the error must name
        # the format actually found and point at the migration note, not just
        # say "not a format-3 checkpoint".
        path = tmp_path / "old.ckpt"
        path.write_bytes(pickle.dumps({"format": 2, "state": None, "extra": {}}))
        with pytest.raises(ValueError) as excinfo:
            StreamingSimulator.load_checkpoint(path)
        message = str(excinfo.value)
        assert "format-2" in message
        assert "format 3" in message
        assert "migration" in message

    def test_non_checkpoint_payload_reported_distinctly(self, tmp_path):
        path = tmp_path / "noise.ckpt"
        path.write_bytes(pickle.dumps([1, 2, 3]))
        with pytest.raises(ValueError, match="not a streaming checkpoint"):
            StreamingSimulator.load_checkpoint(path)

    def test_interrupted_write_preserves_old_checkpoint(
        self, source, dataset, tmp_path, monkeypatch
    ):
        import builtins

        path = tmp_path / "engine.ckpt"
        engine = _stream(source, dataset, chunk_size=40)
        engine.run_chunks(max_chunks=1)
        engine.save_checkpoint(path)
        good = path.read_bytes()
        engine.run_chunks(max_chunks=1)

        real_open = builtins.open

        class _DyingSink:
            """Writes half the payload, then fails — a crash mid-write."""

            def __init__(self, handle):
                self._handle = handle

            def write(self, data):
                self._handle.write(data[: max(1, len(data) // 2)])
                self._handle.flush()
                raise OSError("disk died mid-write")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._handle.close()
                return False

        def failing_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            if ".tmp-" in str(file) and "w" in str(mode):
                return _DyingSink(handle)
            return handle

        monkeypatch.setattr(builtins, "open", failing_open)
        with pytest.raises(OSError, match="mid-write"):
            engine.save_checkpoint(path)
        monkeypatch.undo()

        # The old checkpoint survives byte-for-byte, loads, and no temp file
        # litters the directory.
        assert path.read_bytes() == good
        assert list(tmp_path.glob("*.tmp-*")) == []
        assert list(tmp_path.glob(".*.tmp-*")) == []
        resumed = StreamingSimulator.from_checkpoint(path, source, dataset=dataset)
        assert resumed.state.jobs_seen > 0

    def test_checkpoint_write_is_atomic_replace(self, source, dataset, tmp_path, monkeypatch):
        import os as os_module

        calls = []
        real_replace = os_module.replace

        def spying_replace(src, dst):
            calls.append((str(src), str(dst)))
            return real_replace(src, dst)

        monkeypatch.setattr(os_module, "replace", spying_replace)
        path = tmp_path / "engine.ckpt"
        engine = _stream(source, dataset, chunk_size=40)
        engine.run_chunks(max_chunks=1)
        engine.save_checkpoint(path)
        assert len(calls) == 1
        src, dst = calls[0]
        assert dst == str(path)
        # The temp file lives in the same directory (os.replace would not be
        # atomic across filesystems).
        assert os_module.path.dirname(src) == str(tmp_path)


class TestAdmit:
    """The incremental admission API the live service is built on."""

    def test_admitted_decisions_cover_every_job(self, source, dataset, oneshot):
        engine = _stream(source, dataset, chunk_size=64)
        seen = []
        for chunk in source.iter_chunks(64):
            decisions = engine.admit(chunk)
            seen.extend(job_id for job_id, _region, _when in decisions.items())
        result = engine.finalize()
        tail = engine.drain_decisions()
        seen.extend(job_id for job_id, _region, _when in tail.items())
        assert sorted(seen) == sorted(job.job_id for job in source.materialize().jobs)
        assert result.digest() == oneshot.digest()

    def test_admit_matches_advance_digest(self, source, dataset, oneshot):
        engine = _stream(source, dataset, chunk_size=50)
        for chunk in source.iter_chunks(50):
            engine.admit(chunk)
        assert engine.finalize().digest() == oneshot.digest()

    def test_decisions_carry_region_keys_and_round_times(self, source, dataset):
        engine = _stream(source, dataset, chunk_size=1000)
        chunk = next(source.iter_chunks(1000))
        engine.admit(chunk)
        decisions = engine.admit(None, now=float(chunk.arrival[-1]) + 7200.0)
        assert len(decisions) > 0
        regions = set(engine._keys_tuple)
        for job_id, region, decided_at in decisions.items():
            assert region in regions
            assert decided_at <= engine.state.watermark

    def test_now_never_moves_watermark_backwards(self, source, dataset):
        engine = _stream(source, dataset, chunk_size=64)
        engine.admit(next(source.iter_chunks(64)))
        watermark = engine.state.watermark
        engine.admit(None, now=watermark - 100.0)
        assert engine.state.watermark == watermark
        engine.admit(None, now=watermark + 100.0)
        assert engine.state.watermark == watermark + 100.0

    def test_drain_decisions_empty_without_rounds(self, source, dataset):
        engine = _stream(source, dataset, chunk_size=64)
        engine.init_state()
        drained = engine.drain_decisions()
        assert len(drained) == 0
        assert list(drained.items()) == []

    def test_advance_does_not_record_decisions(self, source, dataset):
        # advance() is the bulk path — it must not accumulate an unbounded
        # decision log nobody drains.
        engine = _stream(source, dataset, chunk_size=64)
        engine.init_state()
        for chunk in source.iter_chunks(64):
            engine.advance(chunk)
        assert engine._decision_log == []


class TestAccumulators:
    def test_streaming_quantiles_track_exact_quantiles(self):
        # Past exact_limit the estimate is the geometric midpoint of the bin
        # holding the nearest-rank order statistic, so it sits within half a
        # bin (~0.14% on an 8192-bin, ten-decade grid) of that statistic.
        # Checked on the default grid and on the gateway's latency grid with
        # sub-millisecond data, which a grid starting at 1e-3 would clamp.
        rng = np.random.default_rng(1)
        data = rng.lognormal(0.0, 1.0, size=20_000)
        for scale, grid in ((1.0, {}), (1e-4, {"lo": 1e-6, "hi": 1e4})):
            estimator = StreamingQuantiles((0.5, 0.95, 0.99), **grid)
            estimator.add_many(scale * data)
            for q, got in estimator.values().items():
                want = np.quantile(scale * data, q, method="higher")
                assert got == pytest.approx(want, rel=1.5e-3), (scale, q)

    def test_streaming_quantiles_small_samples_are_exact(self):
        estimator = StreamingQuantiles((0.5,))
        for value in (5.0, 1.0, 3.0):
            estimator.add(value)
        assert estimator.value(0.5) == 3.0
        assert np.isnan(StreamingQuantiles().value(0.5))
        with pytest.raises(ValueError):
            StreamingQuantiles((1.5,))
        # Up to exact_limit observations the order statistics are exact.
        data = np.random.default_rng(3).lognormal(size=512)
        estimator = StreamingQuantiles(exact_limit=512)
        estimator.add_many(data)
        for q, got in estimator.values().items():
            assert got == np.quantile(data, q), q

    def test_streaming_quantiles_pickle_mid_stream(self):
        # Pickled in exact mode, the estimator hands off to the histogram
        # after resume and lands on the uninterrupted estimator's values.
        data = np.random.default_rng(2).lognormal(size=5000)
        direct = StreamingQuantiles()
        direct.add_many(data)
        halved = StreamingQuantiles()
        halved.add_many(data[:300])
        halved = pickle.loads(pickle.dumps(halved))
        halved.add_many(data[300:])
        assert halved.values() == direct.values()
        assert (halved.count, halved.min, halved.max) == (
            direct.count, direct.min, direct.max
        )

    def test_reservoir_uniformity_and_capacity(self):
        reservoir = ReservoirSample(50, seed=3)
        reservoir.offer({"x": np.arange(10_000)})
        rows = reservoir.rows()
        assert len(rows["x"]) == 50
        assert reservoir.seen == 10_000
        # A uniform sample's mean is near the population mean.
        assert abs(rows["x"].mean() - 5000) < 2000

    def test_running_job_stats_match_direct_computation(self):
        rng = np.random.default_rng(5)
        n = 1000
        considered = rng.uniform(0, 1000, n)
        execution = rng.uniform(10, 500, n)
        finish = considered + execution * rng.uniform(1.0, 2.0, n)
        ready = considered + rng.uniform(0, 5, n)
        start = ready + rng.uniform(0, 3, n)
        region = rng.integers(0, 3, n)
        home = rng.integers(0, 3, n)
        stats = RunningJobStats(3, delay_tolerance=0.5)
        for lo in range(0, n, 137):  # uneven chunking
            s = slice(lo, min(lo + 137, n))
            stats.add(
                region_idx=region[s], home_idx=home[s], considered=considered[s],
                ready=ready[s], start=start[s], finish=finish[s],
                execution_time=execution[s], transfer_latency=np.zeros(s.stop - s.start),
                carbon_g=np.ones(s.stop - s.start), water_l=np.ones(s.stop - s.start),
            )
        ratios = (finish - considered) / execution
        assert stats.num_jobs == n
        assert stats.mean_service_ratio == pytest.approx(ratios.mean())
        assert stats.violation_fraction == pytest.approx(
            np.mean((finish - considered) > 1.5 * execution + 1e-9)
        )
        assert stats.migration_fraction == pytest.approx(np.mean(region != home))
        np.testing.assert_array_equal(stats.jobs_per_region, np.bincount(region, minlength=3))

    def test_running_footprint_totals(self):
        totals = RunningFootprintTotals(2)
        totals.add(np.array([0, 1, 1]), np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.5, 1.0]))
        totals.add(np.array([0]), np.array([4.0]), np.array([0.25]))
        assert totals.total_carbon_g == pytest.approx(10.0)
        assert totals.total_water_l == pytest.approx(2.25)
        np.testing.assert_allclose(totals.carbon_g_per_region, [5.0, 5.0])
        assert totals.jobs_integrated == 4


class TestResultSurface:
    def test_stream_result_report_surface(self, source, dataset):
        result = _stream(source, dataset, policy="least-load", collect="aggregate",
                         reservoir_size=0).run()
        assert result.reservoir_rows() == {}
        assert 0.0 <= result.overall_utilization <= 1.0
        assert result.total_decision_time_s >= result.mean_decision_time_s >= 0.0
        assert result.decision_overhead_fraction() >= 0.0
        assert sum(result.region_distribution().values()) == pytest.approx(1.0)
        assert result.carbon_savings_vs(result) == pytest.approx(0.0)
        assert result.water_savings_vs(result) == pytest.approx(0.0)
        assert "least-load" in repr(result)

    def test_sweep_simulate_accepts_sources_for_every_engine(self, source, dataset):
        from repro.analysis.sweep import simulate

        results = {
            engine: simulate(
                source, make_scheduler("baseline"), dataset,
                servers_per_region=8, delay_tolerance=0.25, engine=engine,
            )
            for engine in ("scalar", "batch", "stream")
        }
        reference = results["scalar"]
        for engine, result in results.items():
            assert result.num_jobs == reference.num_jobs, engine
            assert result.total_carbon_g == pytest.approx(
                reference.total_carbon_g, rel=1e-9
            ), engine
        with pytest.raises(ValueError, match="engine"):
            simulate(source, make_scheduler("baseline"), dataset,
                     servers_per_region=8, delay_tolerance=0.25, engine="warp")

    def test_auto_built_datasets_agree_between_engines(self):
        # Regression: with dataset=None both engines must size the
        # sustainability dataset from the same (declared) horizon — a
        # last-arrival-vs-duration mismatch silently broke digest equality.
        src = scenario_source("diurnal", seed=7, rate_per_hour=2.0, duration_days=0.8)
        one = BatchSimulator(src.materialize(), make_scheduler("waterwise")).run()
        streamed = StreamingSimulator(src, make_scheduler("waterwise")).run()
        assert streamed.digest() == one.digest()

    def test_semantic_overrides_on_resume_rejected(self, source, dataset, tmp_path):
        path = tmp_path / "engine.ckpt"
        engine = _stream(source, dataset, chunk_size=40)
        engine.run_chunks(max_chunks=1)
        engine.save_checkpoint(path)
        with pytest.raises(ValueError, match="cannot override"):
            StreamingSimulator.from_checkpoint(
                path, source, dataset=dataset, servers_per_region=40
            )
        with pytest.raises(ValueError, match="cannot override"):
            StreamingSimulator.from_checkpoint(
                path, source, dataset=dataset, delay_tolerance=1.0
            )

    def test_run_chunks_zero_consumes_nothing(self, source, dataset):
        engine = _stream(source, dataset, chunk_size=16)
        assert engine.run_chunks(max_chunks=0) == 0
        assert engine.state.jobs_seen == 0

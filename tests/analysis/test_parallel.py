"""Tests for sweep points and ``run_sweep``: determinism and worker invariance."""

import pytest

from repro.analysis import run_sweep
from repro.analysis.parallel import (
    SweepPoint,
    _run_point,
    derive_seed,
    expand_grid,
)

# Small enough that the whole module stays in the seconds range even with
# worker processes on a single-core machine.
TINY = dict(rate_per_hour=30.0, duration_days=0.1, servers_per_region=10)


def stable_summary(outcome):
    """Summary without wall-clock fields (decision times vary run to run)."""
    summary = dict(outcome.summary)
    summary.pop("mean_decision_time_s")
    return summary


def tiny_points():
    return expand_grid(
        scheduler=["baseline", "round-robin"],
        delay_tolerance=[0.0, 0.5],
        **TINY,
    )


class TestGridExpansion:
    def test_cross_product_size_and_order_stability(self):
        points = tiny_points()
        assert len(points) == 4
        assert points == tiny_points()  # identical on re-expansion
        assert [ (p.scheduler, p.delay_tolerance) for p in points ] == [
            ("baseline", 0.0), ("baseline", 0.5),
            ("round-robin", 0.0), ("round-robin", 0.5),
        ]

    def test_scalar_values_and_mappings_accepted(self):
        points = expand_grid(
            scheduler="baseline",
            scheduler_kwargs={},
            delay_tolerance=[0.1, 0.2],
            **TINY,
        )
        assert len(points) == 2
        assert all(p.scheduler == "baseline" for p in points)

    def test_unknown_parameter_rejected(self):
        with pytest.raises(TypeError, match="unknown sweep parameters"):
            expand_grid(schedulr=["baseline"])

    def test_invalid_point_values_rejected(self):
        with pytest.raises(ValueError, match="trace_kind"):
            SweepPoint(trace_kind="nonexistent")

    def test_scenario_trace_kinds_are_valid(self):
        point = SweepPoint(trace_kind="heavy-tail")
        assert point.trace_kind == "heavy-tail"
        assert "heavy-tail" in point.label()

    def test_family_default_rate_only_for_scenarios(self):
        # None = "keep the scenario family's natural rate/length"; the
        # classic generators have no family defaults to fall back to.
        point = SweepPoint(trace_kind="ml-training", rate_per_hour=None, duration_days=None)
        assert "rate=auto" in point.label()
        with pytest.raises(ValueError, match="family default"):
            SweepPoint(trace_kind="borg", rate_per_hour=None)


class TestDeterministicSeeding:
    def test_seed_is_content_based_not_order_based(self):
        a = derive_seed(42, trace_kind="borg", rate_per_hour=30.0, duration_days=0.1)
        b = derive_seed(42, duration_days=0.1, rate_per_hour=30.0, trace_kind="borg")
        assert a == b

    def test_seed_changes_with_workload_and_base(self):
        base = derive_seed(42, trace_kind="borg", rate_per_hour=30.0, duration_days=0.1)
        assert derive_seed(42, trace_kind="borg", rate_per_hour=60.0, duration_days=0.1) != base
        assert derive_seed(42, trace_kind="alibaba", rate_per_hour=30.0, duration_days=0.1) != base
        assert derive_seed(43, trace_kind="borg", rate_per_hour=30.0, duration_days=0.1) != base

    def test_policy_knobs_do_not_change_the_workload(self):
        # Every (scheduler, tolerance) cell of a sweep must replay the SAME
        # jobs against the SAME intensities, or cross-policy savings would
        # compare different workloads.
        points = tiny_points()
        assert len({p.seed for p in points}) == 1
        outcomes = run_sweep(points, transport="inprocess")
        assert len({o.num_jobs for o in outcomes}) == 1  # literally the same trace
        # Baseline ignores the tolerance, so its two cells are identical runs.
        by_key = {(o.point.scheduler, o.point.delay_tolerance): o for o in outcomes}
        assert (
            by_key[("baseline", 0.0)].total_carbon_g
            == by_key[("baseline", 0.5)].total_carbon_g
        )

    def test_different_workloads_get_distinct_seeds(self):
        points = expand_grid(
            scheduler="baseline",
            rate_per_hour=[20.0, 30.0],
            trace_kind=["borg", "alibaba"],
            duration_days=0.1,
        )
        assert len({p.seed for p in points}) == len(points) == 4

    def test_same_parameters_same_workload_across_grids(self):
        # The same workload parameters get the same seed even when they
        # appear in differently shaped grids or are left at their defaults.
        wide = expand_grid(scheduler=["baseline", "round-robin"], delay_tolerance=[0.0], **TINY)
        narrow = expand_grid(scheduler="baseline", delay_tolerance=[0.0], **TINY)
        assert wide[0].seed == narrow[0].seed
        implicit = expand_grid(scheduler="baseline", delay_tolerance=[0.0])
        explicit = expand_grid(
            scheduler="baseline", delay_tolerance=[0.0],
            trace_kind="borg", rate_per_hour=40.0, duration_days=0.25,
        )
        assert implicit[0].seed == explicit[0].seed


class TestRunSweep:
    def test_serial_results_in_input_order(self):
        points = tiny_points()
        outcomes = run_sweep(points, transport="inprocess")
        assert [o.point for o in outcomes] == points
        assert all(o.num_jobs > 0 for o in outcomes)
        assert all(o.total_carbon_g > 0.0 for o in outcomes)
        assert all(o.digest is not None for o in outcomes)

    def test_worker_count_invariance_across_transports(self):
        # The serial in-process reference against worker processes: same
        # summaries, same totals, same digests.
        points = tiny_points()
        one = run_sweep(points, transport="inprocess")
        many = run_sweep(points, workers=2, transport="process")
        assert [stable_summary(o) for o in one] == [stable_summary(o) for o in many]
        assert [o.total_carbon_g for o in one] == [o.total_carbon_g for o in many]
        assert [o.total_water_l for o in one] == [o.total_water_l for o in many]
        assert [o.digest for o in one] == [o.digest for o in many]

    def test_worker_count_invariance_with_processes(self):
        # Real cross-process determinism at two worker counts (seeded
        # datasets must not depend on per-process state such as hash
        # randomization).
        points = tiny_points()[:2]
        single = run_sweep(points, workers=1, transport="process")
        procs = run_sweep(points, workers=2, transport="process")
        assert [stable_summary(o) for o in single] == [stable_summary(o) for o in procs]
        assert [o.total_carbon_g for o in single] == [o.total_carbon_g for o in procs]

    def test_batch_and_scalar_engines_agree(self):
        point = expand_grid(scheduler=["baseline"], delay_tolerance=[0.25], **TINY)[0]
        batch_outcome = _run_point(point)
        scalar_outcome = _run_point(point, engine="scalar")
        assert batch_outcome.num_jobs == scalar_outcome.num_jobs
        assert batch_outcome.total_carbon_g == pytest.approx(
            scalar_outcome.total_carbon_g, rel=1e-9
        )
        assert batch_outcome.total_water_l == pytest.approx(
            scalar_outcome.total_water_l, rel=1e-9
        )
        with pytest.raises(ValueError, match="engine"):
            _run_point(point, engine="stream")

    def test_stream_engine_agrees_with_batch(self):
        # The sweep's fused streaming shards must report the same figures of
        # merit as the per-cell batch oracle for the identical workload.
        points = expand_grid(
            scheduler=["baseline", "waterwise"], delay_tolerance=[0.25], **TINY
        )
        for batch_outcome, stream_outcome in zip(
            [_run_point(point) for point in points],
            run_sweep(points, transport="inprocess"),
        ):
            assert stream_outcome.num_jobs == batch_outcome.num_jobs
            assert stream_outcome.total_carbon_g == pytest.approx(
                batch_outcome.total_carbon_g, rel=1e-9
            )
            assert stream_outcome.total_water_l == pytest.approx(
                batch_outcome.total_water_l, rel=1e-9
            )
            assert stream_outcome.mean_service_ratio == pytest.approx(
                batch_outcome.mean_service_ratio, rel=1e-9
            )
            assert stream_outcome.violation_fraction == batch_outcome.violation_fraction

    def test_stream_engine_is_worker_invariant(self):
        points = expand_grid(
            scheduler=["baseline", "round-robin"], delay_tolerance=[0.25], **TINY,
        )
        serial = run_sweep(points, transport="inprocess")
        fused = run_sweep(points, transport="inprocess", policies_per_shard=2)
        procs = run_sweep(points, workers=2, transport="process")
        assert [stable_summary(o) for o in serial] == [stable_summary(o) for o in procs]
        assert [o.digest for o in serial] == [o.digest for o in fused]
        assert [o.digest for o in serial] == [o.digest for o in procs]

    def test_validation(self):
        with pytest.raises(ValueError, match="transport"):
            run_sweep([], transport="cluster")
        with pytest.raises(ValueError, match="workers"):
            run_sweep([], workers=0)
        with pytest.raises(ValueError, match="one worker"):
            run_sweep(tiny_points(), workers=2, transport="inprocess")


class TestWorkloadCacheSafety:
    def test_mixed_workload_sweep_is_deterministic(self):
        # Shards of different workloads share one process's workload cache
        # on the in-process transport and split it across workers on the
        # process transport; neither may leak one workload into another.
        points = expand_grid(
            scheduler=["baseline", "least-load"],
            trace_kind=["borg", "alibaba", "diurnal"],
            rate_per_hour=30.0, duration_days=0.1, servers_per_region=10,
        )
        serial = run_sweep(points, transport="inprocess")
        procs = run_sweep(points, workers=2, transport="process")
        assert [stable_summary(o) for o in procs] == [
            stable_summary(o) for o in serial
        ]
        assert [o.digest for o in procs] == [o.digest for o in serial]
        oracle = [_run_point(point) for point in points]
        assert [o.num_jobs for o in oracle] == [o.num_jobs for o in serial]

    def test_policies_of_one_workload_share_one_source(self):
        # Every policy of a workload gets the same seed and so the same
        # cache key: its shards reuse one generated source.
        from repro.analysis import parallel

        first, second = expand_grid(scheduler=["baseline", "least-load"], **TINY)
        assert parallel._workload_key(first) == parallel._workload_key(second)
        assert parallel._point_source(first) is parallel._point_source(second)
        other = expand_grid(scheduler="baseline", **{**TINY, "rate_per_hour": 31.0})[0]
        assert parallel._point_source(other) is not parallel._point_source(first)

    def test_workload_cache_is_bounded_lru(self):
        # A long sweep over many workloads must not grow the process's
        # cache without limit: it is an LRU bounded to a few workloads.
        from repro.analysis import parallel

        points = expand_grid(
            scheduler=["baseline"],
            trace_kind="borg",
            rate_per_hour=[5.0 + i for i in range(10)],
            duration_days=0.02,
            servers_per_region=4,
        )
        assert len(points) == 10
        run_sweep(points, transport="inprocess")
        entries = parallel._WORKLOAD_CACHE
        assert len(entries) <= parallel._WORKLOAD_CACHE_SIZE
        # Most-recently-used workload is retained (cache hit on re-run).
        last_key = parallel._workload_key(points[-1])
        cached_source = entries[last_key]["source"]
        assert parallel._point_source(points[-1]) is cached_source

"""Registry-wide differential harness: every policy × every scenario family.

This suite is the enforcement mechanism behind the fast-path contract: it
iterates the *live* scheduler registry (:func:`available_schedulers`) against
the *live* scenario library (:func:`available_scenarios`) and asserts that the
batch engine reproduces the scalar engine's scheduling decisions exactly and
its footprints within 1e-9 relative — whether the policy runs through a
registered vectorized fast path or through the scalar fallback.

The streaming horizon engine rides the same harness: for every registered
policy, :class:`~repro.cluster.streaming.StreamingSimulator` must produce a
``BatchResult`` whose :meth:`digest` — every per-job decision column —
equals the one-shot batch engine's at multiple chunk sizes, and a run
checkpointed and resumed at *every* chunk boundary must produce that same
digest.

Because both axes are enumerated dynamically, a future policy registered with
:func:`repro.schedulers.registry.register_scheduler` (or a new scenario added
to :data:`repro.traces.scenarios.SCENARIOS`) is covered with zero new test
code — registering a fast path that diverges from its scalar ``schedule``
fails here immediately.
"""

import math

import pytest

from repro.cluster import BatchSimulator, MultiPolicyRunner, Simulator, StreamingSimulator
from repro.schedulers import available_schedulers, has_fast_path, make_scheduler
from repro.sustainability import ElectricityMapsLikeProvider
from repro.traces.scenarios import available_scenarios, get_scenario

from ..equivalence import assert_equivalent, run_both

#: Small per-scenario rates so each cell stays sub-second while still
#: producing multi-round, multi-region schedules (None = family default).
_SCENARIO_RATES = {
    "diurnal": 30.0,
    "bursty": 40.0,
    "heavy-tail": 30.0,
    "ml-training": 10.0,
    "region-skew": 30.0,
}
_DURATION_DAYS = 0.1


@pytest.fixture(scope="module")
def dataset():
    return ElectricityMapsLikeProvider(horizon_hours=72, seed=4)


@pytest.fixture(scope="module")
def scenario_traces():
    return {
        name: get_scenario(name).trace(
            seed=13, rate_per_hour=_SCENARIO_RATES.get(name), duration_days=_DURATION_DAYS
        )
        for name in available_scenarios()
    }


#: Moderate pressure for the streaming cells: some rounds saturate, so commit
#: order and FIFO tie-breaking are exercised across chunk boundaries.
_STREAM_SERVERS = 8


@pytest.fixture(scope="module")
def policy_sources(dataset, scenario_traces):
    """Per-policy (chunked source, one-shot reference result), cached."""
    source = get_scenario("bursty").source(
        seed=13, rate_per_hour=_SCENARIO_RATES["bursty"], duration_days=_DURATION_DAYS
    )
    cache = {}

    def get(policy):
        if policy not in cache:
            oneshot = BatchSimulator(
                scenario_traces["bursty"],
                _policy_factory(policy)(),
                dataset=dataset,
                servers_per_region=_STREAM_SERVERS,
            ).run()
            cache[policy] = (source, oneshot)
        return cache[policy]

    return get


def _policy_factory(name):
    if name in ("carbon-greedy-opt", "water-greedy-opt"):
        # A shorter lookahead keeps the oracle cells fast without changing
        # the code paths under test.
        return lambda: make_scheduler(name, max_lookahead_rounds=8)
    return lambda: make_scheduler(name)


def _gate_relaxations(relaxations, monkeypatch):
    """Send the placement path's relaxations above its size gate to HiGHS
    (``"highs"``, needs SciPy) or to the native engines (``"native"``, as on
    an install without SciPy)."""
    from repro.milp import structure

    if relaxations == "highs":
        pytest.importorskip("scipy")
    else:
        monkeypatch.setattr(structure, "_scipy_available", lambda: False)


class TestRegistryWideEquivalence:
    @pytest.mark.parametrize("scenario", available_scenarios())
    @pytest.mark.parametrize("policy", available_schedulers())
    def test_batch_matches_scalar(self, policy, scenario, dataset, scenario_traces):
        scalar, batch = run_both(
            scenario_traces[scenario],
            _policy_factory(policy),
            dataset,
            servers_per_region=24,
        )
        assert_equivalent(scalar, batch)

    @pytest.mark.parametrize("policy", available_schedulers())
    def test_equivalence_under_saturation(self, policy, dataset, scenario_traces):
        # Two servers per region saturate the FIFO queues; start times then
        # depend on commit order and event tie-breaking, which must match too.
        scalar, batch = run_both(
            scenario_traces["bursty"],
            _policy_factory(policy),
            dataset,
            servers_per_region=2,
            delay_tolerance=20.0,
        )
        assert_equivalent(scalar, batch)

    @pytest.mark.parametrize("relaxations", ["highs", "native"])
    @pytest.mark.parametrize("servers", [24, 2], ids=["slack", "saturated"])
    def test_waterwise_equivalence_with_and_without_saturation(
        self, servers, relaxations, dataset, scenario_traces, monkeypatch
    ):
        # The batch engine must reproduce the scalar engine both when rounds
        # take the trivial argmin and on a saturated cluster, where
        # capacity-bound rounds take the transportation-LP path — with
        # relaxations above the size gate on HiGHS (SciPy imports) and on the
        # native simplex (as on an install without SciPy).  The gate reads
        # only the problem dimensions, so both engines take the same paths.
        _gate_relaxations(relaxations, monkeypatch)
        schedulers = []

        def factory():
            schedulers.append(make_scheduler("waterwise"))
            return schedulers[-1]

        scalar, batch = run_both(
            scenario_traces["bursty"], factory, dataset, servers_per_region=servers,
        )
        assert_equivalent(scalar, batch)
        paths = [
            (stats.solves, stats.structured_lp, stats.structured_bb,
             stats.cold_starts + stats.warm_starts)
            for stats in (s.controller.session.stats for s in schedulers)
        ]
        assert paths[0] == paths[1]
        _solves, relaxed, _branched, native_lps = paths[0]
        assert relaxed > 0
        if relaxations == "native":
            assert native_lps >= relaxed

    def test_streaming_decision_equivalence_registry_wide(self, policy_sources, dataset):
        # Acceptance gate of the streaming tentpole: for every registered
        # scheduler, the streaming engine's per-job decisions (executed
        # regions, start/finish times, deferrals, footprints) are
        # byte-identical to the one-shot batch engine at ≥ 2 distinct chunk
        # sizes.
        for policy in available_schedulers():
            source, oneshot = policy_sources(policy)
            for chunk_size in (37, 512):
                streamed = StreamingSimulator(
                    source,
                    _policy_factory(policy)(),
                    dataset=dataset,
                    servers_per_region=_STREAM_SERVERS,
                    chunk_size=chunk_size,
                ).run()
                assert streamed.digest() == oneshot.digest(), (policy, chunk_size)

    def test_checkpoint_resume_at_every_boundary_registry_wide(
        self, policy_sources, dataset, tmp_path
    ):
        # Resume determinism: stop after k chunks, checkpoint to disk, resume
        # in a fresh engine — for every k and every registered scheduler the
        # final digest must equal the one-shot run's.
        chunk_size = 48
        for policy in available_schedulers():
            source, oneshot = policy_sources(policy)
            n_chunks = math.ceil(oneshot.num_jobs / chunk_size)
            assert n_chunks >= 3, "the trace must span several chunks"
            for stop in range(1, n_chunks + 1):
                engine = StreamingSimulator(
                    source,
                    _policy_factory(policy)(),
                    dataset=dataset,
                    servers_per_region=_STREAM_SERVERS,
                    chunk_size=chunk_size,
                )
                assert engine.run_chunks(max_chunks=stop) == stop
                path = tmp_path / f"{policy}-{stop}.ckpt"
                engine.save_checkpoint(path)
                resumed = StreamingSimulator.from_checkpoint(path, source, dataset=dataset)
                result = resumed.run()
                assert result.digest() == oneshot.digest(), (policy, stop)

    def test_fused_runner_digest_equality_registry_wide(self, policy_sources, dataset):
        # Acceptance gate of the fused tentpole: one MultiPolicyRunner pass
        # over the whole registry produces, for every policy, a BatchResult
        # byte-identical (digest) to that policy's own streaming run and to
        # the one-shot batch engine — at ≥ 2 distinct chunk sizes.
        policies = available_schedulers()
        source, _ = policy_sources(policies[0])
        for chunk_size in (37, 512):
            runner = MultiPolicyRunner(
                source,
                {policy: _policy_factory(policy)() for policy in policies},
                dataset=dataset,
                servers_per_region=_STREAM_SERVERS,
                chunk_size=chunk_size,
                collect="full",
            )
            results = runner.run()
            for policy in policies:
                _, oneshot = policy_sources(policy)
                assert results[policy].digest() == oneshot.digest(), (policy, chunk_size)

    @pytest.mark.parametrize("servers", [24, 2])
    @pytest.mark.parametrize("policy", available_schedulers())
    def test_event_kernels_are_digest_identical(self, policy, servers, dataset,
                                                scenario_traces):
        # The classic event-at-a-time reference loop vs the production
        # vectorized window kernel (binding-point segmentation + conveyor) —
        # uncontended (24 servers) and saturated (2 servers — FIFO queues and
        # equal-time tie-breaking in play).  Digests must be byte-identical.
        trace = scenario_traces["bursty"]
        scalar = BatchSimulator(
            trace, _policy_factory(policy)(), dataset=dataset,
            servers_per_region=servers, kernel="scalar",
        ).run()
        vector = BatchSimulator(
            trace, _policy_factory(policy)(), dataset=dataset,
            servers_per_region=servers, kernel="vector",
        ).run()
        assert scalar.digest() == vector.digest(), (policy, servers)
        assert vector.kernel_stats["kernel"] == "vector"

    @pytest.mark.parametrize("stop", [1, 3])
    @pytest.mark.parametrize("before,after", [("vector", "scalar"), ("scalar", "vector")])
    def test_checkpoint_resume_across_kernel_switches(
        self, before, after, stop, policy_sources, dataset, tmp_path
    ):
        # Format-4 checkpoints carry no kernel-dependent state: a run started
        # on one kernel, checkpointed mid-stream and resumed on the other
        # must land on the one-shot digest, in both directions.
        source, oneshot = policy_sources("waterwise")
        engine = StreamingSimulator(
            source, _policy_factory("waterwise")(), dataset=dataset,
            servers_per_region=_STREAM_SERVERS, chunk_size=48, kernel=before,
        )
        assert engine.run_chunks(max_chunks=stop) == stop
        path = tmp_path / f"switch-{before}-{after}-{stop}.ckpt"
        engine.save_checkpoint(path)
        resumed = StreamingSimulator.from_checkpoint(
            path, source, dataset=dataset, kernel=after
        )
        assert resumed.kernel == after
        result = resumed.run()
        assert result.digest() == oneshot.digest(), (before, after, stop)

    def test_aggregate_results_agree_across_kernels(self, dataset):
        # Aggregate StreamResult digests are not kernel-invariant: region
        # utilization comes from busy server-seconds, which the vector
        # kernel sums per pass and the scalar replay one event at a time.
        # Every other hashed field must match exactly, utilization to
        # rounding.  Under `baseline` the input queues enough to send window
        # events down the clean, conveyor and replay paths alike.
        source = get_scenario("diurnal").source(
            seed=42, rate_per_hour=1400.0, duration_days=0.5
        )
        vector, scalar = (
            StreamingSimulator(
                source, _policy_factory("baseline")(), dataset=dataset,
                servers_per_region=30, chunk_size=1024, collect="aggregate",
                kernel=kernel,
            ).run()
            for kernel in ("vector", "scalar")
        )
        paths = ("clean_events", "conveyor_events", "replayed_events")
        assert all(vector.kernel_stats[path] > 0 for path in paths), vector.kernel_stats
        for key in vector.region_keys:
            assert vector.region_utilization[key] == pytest.approx(
                scalar.region_utilization[key], rel=1e-12, abs=0.0
            ), key
        # Every other hashed field is exact: with the scalar utilization
        # swapped in, the digests agree.
        vector.region_utilization = dict(scalar.region_utilization)
        assert vector.digest() == scalar.digest()

    def test_fused_sweep_matches_per_cell_at_multiple_worker_counts(self):
        # run_sweep's fused shards must return outcomes element-wise
        # equivalent to the per-cell batch oracle, on both transports.
        from repro.analysis import run_sweep
        from repro.analysis.parallel import _run_point, expand_grid

        points = expand_grid(
            scheduler=["baseline", "least-load", "waterwise"],
            delay_tolerance=[0.25, 0.5],
            trace_kind="bursty",
            rate_per_hour=30.0,
            duration_days=0.05,
        )
        reference = [_run_point(point) for point in points]
        for workers, transport in ((1, "inprocess"), (2, "process")):
            fused = run_sweep(points, workers=workers, transport=transport)
            assert [o.point for o in fused] == [o.point for o in reference]
            for ours, theirs in zip(fused, reference):
                assert ours.num_jobs == theirs.num_jobs
                assert ours.summary["trace"] == theirs.summary["trace"]
                assert ours.total_carbon_g == pytest.approx(
                    theirs.total_carbon_g, rel=1e-9
                )
                assert ours.total_water_l == pytest.approx(
                    theirs.total_water_l, rel=1e-9
                )
                assert ours.violation_fraction == theirs.violation_fraction

    def test_distributed_sweep_digest_identical_registry_wide(
        self, tmp_path, monkeypatch
    ):
        # The shard fabric's exactness contract: a sweep over the ENTIRE
        # live scheduler registry, split into per-policy shards and run on
        # both transports, must return outcomes digest-identical
        # (StreamResult.digest — every aggregate, bit for bit) to one
        # unsharded fused pass.  On the inprocess leg every shard also
        # fails once right after its second checkpoint and is re-run from
        # it, so every policy's state must survive a mid-lineage resume.
        # A policy whose results drift under sharding or resume fails here
        # with zero new test code.
        from repro.analysis import SweepPoint, run_sweep

        points = [
            SweepPoint(
                scheduler=policy,
                trace_kind="bursty",
                rate_per_hour=_SCENARIO_RATES["bursty"],
                duration_days=_DURATION_DAYS,
                seed=13,
            )
            for policy in available_schedulers()
        ]
        reference = run_sweep(
            points, transport="inprocess", policies_per_shard=len(points)
        )
        expected = {i: outcome.digest for i, outcome in enumerate(reference)}
        assert all(digest is not None for digest in expected.values())

        save_checkpoint = MultiPolicyRunner.save_checkpoint
        crashed = set()

        def crash_once_after_second_checkpoint(runner, path, extra=None):
            save_checkpoint(runner, path, extra=extra)
            if extra["chunks_done"] == 2 and path not in crashed:
                crashed.add(path)
                raise RuntimeError("simulated crash mid-lineage")

        for workers, transport in ((1, "inprocess"), (3, "process")):
            with monkeypatch.context() as patch:
                if transport == "inprocess":
                    patch.setattr(
                        MultiPolicyRunner, "save_checkpoint",
                        crash_once_after_second_checkpoint,
                    )
                outcomes = run_sweep(
                    points,
                    workers=workers,
                    transport=transport,
                    chunk_size=64,
                    checkpoint_every=1,
                    checkpoint_dir=tmp_path / transport,
                )
            assert [o.point for o in outcomes] == points
            assert {i: o.digest for i, o in enumerate(outcomes)} == expected
        assert len(crashed) == len(points)

    def test_sustainability_policies_use_fast_paths(self):
        # Guard the point of this PR: the paper's core policies no longer
        # fall back to the scalar path inside the batch engine.
        for name in ("waterwise", "ecovisor-like", "carbon-greedy-opt",
                     "water-greedy-opt", "waterwise-cost-aware"):
            assert has_fast_path(make_scheduler(name)), name
        # A subclass that tweaks a decision hook without registering its own
        # mirrored fast path must fall back to the scalar path — the
        # registrations are exact, so nothing is inherited silently.
        from repro.core.cost import CostAwareWaterWiseScheduler

        class TweakedCost(CostAwareWaterWiseScheduler):
            def _extra_cost(self, jobs, context):
                return None

        assert not has_fast_path(TweakedCost())


class TestRoundOracle:
    """Every round the production path solves, checked against the paper's
    full MILP (Eq. 8–13) solved whole by HiGHS."""

    @pytest.mark.parametrize("relaxations", ["highs", "native"])
    def test_every_waterwise_round_reaches_the_full_milp_optimum(
        self, relaxations, dataset, monkeypatch
    ):
        # Each round's placement form, solved whole by the HiGHS MILP, must
        # give the solve path's status and objective.  This run is saturated:
        # 77 of its 99 rounds are softened and 37 solve their relaxation on
        # HiGHS, the others by argmin or the native simplex.  With the size
        # gate's large relaxations on the native simplex instead (as without
        # SciPy), every relaxation runs there.
        pytest.importorskip("scipy")
        _gate_relaxations(relaxations, monkeypatch)
        import repro.core.decision as decision
        from repro.milp import SolveStatus
        from repro.milp.scipy_backend import solve_form_scipy

        solved = []
        solve = decision.solve_standard_form

        def recording(form, *args, **kwargs):
            result = solve(form, *args, **kwargs)
            solved.append((form, result))
            return result

        monkeypatch.setattr(decision, "solve_standard_form", recording)
        scheduler = make_scheduler("waterwise")
        trace = get_scenario("bursty").trace(seed=3, duration_days=0.25)
        BatchSimulator(
            trace, scheduler, dataset=dataset, servers_per_region=4, delay_tolerance=0.5
        ).run()
        stats = scheduler.controller.session.stats
        assert scheduler.controller.rounds_softened > 0
        assert stats.structured_lp > 0
        # Only the native engine records its simplex solves in the session.
        native_lps = stats.cold_starts + stats.warm_starts
        if relaxations == "native":
            assert native_lps >= stats.structured_lp
        else:
            assert native_lps < stats.structured_lp
        assert len(solved) > 50
        for form, (status, _x, objective, *_rest) in solved:
            reference, _x_ref, optimum, *_ = solve_form_scipy(form)
            assert status is reference
            if status is SolveStatus.OPTIMAL:
                assert objective == pytest.approx(optimum, rel=1e-9)


# -- chaos & elasticity differential cells ------------------------------------------

#: Rates for the chaos scenario cells (sub-second per cell, capacity events
#: verified live at this seed for every capacity-chaos family).
_CHAOS_RATES = {
    "region-outage": 60.0,
    "autoscale-diurnal": 60.0,
    "capacity-flap": 60.0,
    "carbon-spike": 60.0,
    "forecast-shock": 40.0,
}
_CHAOS_SEED = 29
_CHAOS_SERVERS = 3

#: An over-the-top outage spec guaranteeing the evict-and-requeue path runs
#: in every policy's cell, not just when a scenario seed happens to align.
_STORM_SPEC = "outage_rate_per_day=24,outage_duration_s=3600,flap_rate_per_day=24,flap_duration_s=900,flap_fraction=0.5"


def _chaos_scenarios():
    return tuple(
        name for name in available_scenarios()
        if get_scenario(name).chaos is not None
    )


class TestChaosDifferential:
    """Chaos runs are engine-, kernel- and chunking-invariant, registry-wide."""

    @pytest.fixture(scope="class")
    def chaos_workloads(self):
        return {
            name: (
                get_scenario(name).trace(
                    seed=_CHAOS_SEED, rate_per_hour=_CHAOS_RATES[name], duration_days=0.1
                ),
                get_scenario(name).source(
                    seed=_CHAOS_SEED, rate_per_hour=_CHAOS_RATES[name], duration_days=0.1
                ),
            )
            for name in _chaos_scenarios()
        }

    @pytest.mark.parametrize("scenario", _chaos_scenarios())
    @pytest.mark.parametrize("policy", available_schedulers())
    def test_chaos_cells_agree_across_engines_and_kernels(
        self, policy, scenario, dataset, chaos_workloads
    ):
        trace, source = chaos_workloads[scenario]
        chaos = get_scenario(scenario).chaos
        kwargs = dict(
            dataset=dataset, servers_per_region=_CHAOS_SERVERS,
            chaos=chaos, chaos_seed=_CHAOS_SEED,
        )
        vector = BatchSimulator(
            trace, _policy_factory(policy)(), kernel="vector", **kwargs
        ).run()
        scalar = BatchSimulator(
            trace, _policy_factory(policy)(), kernel="scalar", **kwargs
        ).run()
        assert vector.digest() == scalar.digest(), (policy, scenario, "kernel")
        for chunk_size in (23, 512):
            streamed = StreamingSimulator(
                source, _policy_factory(policy)(), chunk_size=chunk_size, **kwargs
            ).run()
            assert streamed.digest() == vector.digest(), (policy, scenario, chunk_size)
        assert vector.chaos_stats is not None
        assert vector.chaos_stats["chaos"] == chaos

    @pytest.mark.parametrize("scenario", _chaos_scenarios())
    def test_chaos_fused_matches_per_cell(self, scenario, dataset, chaos_workloads):
        trace, source = chaos_workloads[scenario]
        chaos = get_scenario(scenario).chaos
        policies = available_schedulers()
        kwargs = dict(
            dataset=dataset, servers_per_region=_CHAOS_SERVERS,
            chaos=chaos, chaos_seed=_CHAOS_SEED,
        )
        fused = MultiPolicyRunner(
            source,
            {policy: _policy_factory(policy)() for policy in policies},
            chunk_size=37,
            collect="full",
            **kwargs,
        ).run()
        for policy in policies:
            oneshot = BatchSimulator(trace, _policy_factory(policy)(), **kwargs).run()
            assert fused[policy].digest() == oneshot.digest(), (policy, scenario)

    @pytest.mark.parametrize("policy", available_schedulers())
    def test_eviction_storm_is_engine_invariant(self, policy, dataset, chaos_workloads):
        # Guarantee the evict-and-requeue machinery itself is differential-
        # tested for every policy: a storm spec that demonstrably evicts.
        trace, source = chaos_workloads["region-outage"]
        kwargs = dict(
            dataset=dataset, servers_per_region=2,
            chaos=_STORM_SPEC, chaos_seed=0,
        )
        vector = BatchSimulator(
            trace, _policy_factory(policy)(), kernel="vector", **kwargs
        ).run()
        assert vector.total_evictions > 0, "the storm must evict"
        scalar = BatchSimulator(
            trace, _policy_factory(policy)(), kernel="scalar", **kwargs
        ).run()
        assert vector.digest() == scalar.digest(), policy
        streamed = StreamingSimulator(
            source, _policy_factory(policy)(), chunk_size=16, **kwargs
        ).run()
        assert streamed.digest() == vector.digest(), policy
        # The bounded-memory collector keeps no per-job columns, so it is
        # held to the one-shot totals instead of the digest.
        aggregate = StreamingSimulator(
            source, _policy_factory(policy)(), chunk_size=16, collect="aggregate",
            **kwargs,
        ).run()
        assert aggregate.num_jobs == vector.num_jobs, policy
        assert aggregate.total_evictions == vector.total_evictions, policy
        for total in ("total_carbon_kg", "total_water_m3", "mean_service_ratio"):
            assert getattr(aggregate, total) == pytest.approx(
                getattr(vector, total), rel=1e-9
            ), (policy, total)

    def test_static_runs_are_unchanged_by_chaos_plumbing(self, dataset, scenario_traces):
        # chaos=None must be byte-identical to a pre-chaos engine: same
        # digest columns (evictions all zero), same dataset object reused.
        trace = scenario_traces["bursty"]
        engine = BatchSimulator(
            trace, _policy_factory("baseline")(), dataset=dataset,
            servers_per_region=_STREAM_SERVERS,
        )
        assert engine.chaos is None
        assert engine.dataset is dataset
        assert engine.input_dataset is dataset
        result = engine.run()
        assert result.chaos_stats is None
        assert result.total_evictions == 0


class TestLiveReplayDifferential:
    """The live admission path is decision-identical to the batch engine.

    Replaying a recorded trace through the asyncio gateway — the exact code
    path a live service uses — must reproduce the one-shot batch digest
    byte-for-byte, fast-forwarded and wall-paced, with and without a chaos
    timeline, and across a checkpoint/resume of the live session.
    """

    @pytest.mark.parametrize("policy", available_schedulers())
    def test_replayed_live_matches_batch_registry_wide(
        self, policy, policy_sources, dataset
    ):
        from repro.service import run_replay

        source, oneshot = policy_sources(policy)
        engine = StreamingSimulator(
            source,
            _policy_factory(policy)(),
            dataset=dataset,
            servers_per_region=_STREAM_SERVERS,
            chunk_size=64,
        )
        report = run_replay(source, engine, pace=0.0, chunk_size=64)
        assert report.result.digest() == oneshot.digest(), policy
        assert report.stats.decided == report.jobs
        assert report.stats.outstanding == 0

    @pytest.mark.parametrize("policy", ["baseline", "round-robin", "waterwise"])
    def test_paced_replay_matches_batch(self, policy, policy_sources, dataset):
        # A very fast wall clock exercises the real-sleep pacing path while
        # keeping the cell quick; pacing must not change a single decision.
        from repro.service import run_replay

        source, oneshot = policy_sources(policy)
        engine = StreamingSimulator(
            source, _policy_factory(policy)(), dataset=dataset,
            servers_per_region=_STREAM_SERVERS, chunk_size=64,
        )
        report = run_replay(source, engine, pace=5e6, chunk_size=64)
        assert report.result.digest() == oneshot.digest(), policy

    @pytest.mark.parametrize("policy", ["baseline", "waterwise"])
    def test_replayed_chaos_cell_matches_batch(self, policy, dataset):
        # Chaos capacity events fire between admissions inside admit() —
        # the replayed live session must see the identical elasticity.
        from repro.service import run_replay

        scenario = "region-outage"
        family = get_scenario(scenario)
        trace = family.trace(
            seed=_CHAOS_SEED, rate_per_hour=_CHAOS_RATES[scenario], duration_days=0.1
        )
        source = family.source(
            seed=_CHAOS_SEED, rate_per_hour=_CHAOS_RATES[scenario], duration_days=0.1
        )
        chaos = family.chaos
        kwargs = dict(
            dataset=dataset, servers_per_region=_CHAOS_SERVERS,
            chaos=chaos, chaos_seed=_CHAOS_SEED,
        )
        oneshot = BatchSimulator(trace, _policy_factory(policy)(), **kwargs).run()
        engine = StreamingSimulator(
            source, _policy_factory(policy)(), chunk_size=48, **kwargs
        )
        report = run_replay(source, engine, pace=0.0, chunk_size=48)
        assert report.result.digest() == oneshot.digest(), (policy, scenario)
        assert report.result.chaos_stats is not None

    def test_live_session_checkpoint_resume_mid_replay(
        self, policy_sources, dataset, tmp_path
    ):
        # A live gateway session checkpointed mid-replay and resumed in a
        # fresh gateway must still land on the batch digest.
        import asyncio

        from repro.service import AdmissionGateway, TraceReplayer, replay_source

        source, oneshot = policy_sources("waterwise")
        target = tmp_path / "live-session.ckpt"

        async def scenario():
            engine = StreamingSimulator(
                source, _policy_factory("waterwise")(), dataset=dataset,
                servers_per_region=_STREAM_SERVERS, chunk_size=64,
            )
            gateway = await AdmissionGateway(engine).start()
            replayer = TraceReplayer(source, gateway, chunk_size=64)
            await replayer.run(max_chunks=1)
            await gateway.checkpoint(target)
            await gateway.abort()  # simulated crash: no finalize

            resumed = StreamingSimulator.from_checkpoint(
                target, source, dataset=dataset
            )
            report = await replay_source(source, resumed, pace=0.0, chunk_size=64)
            return report

        report = asyncio.run(scenario())
        assert report.result.digest() == oneshot.digest()
        # Decisions for jobs admitted before the checkpoint are re-emitted
        # after resume with no waiter attached — counted, never dropped.
        assert report.stats.unclaimed >= 0

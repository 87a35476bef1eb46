"""Equivalence and unit tests for the vectorized batch simulation engine.

The contract under test: for any trace, policy and cluster configuration,
:class:`BatchSimulator` makes *identical scheduling decisions* to the scalar
:class:`Simulator` (same executed regions, start/finish times and deferral
counts) and produces footprints equal within 1e-9 relative.
"""

import numpy as np
import pytest

from repro.cluster import BatchSimulator, JobArrays, Simulator, StreamingSimulator
from repro.schedulers import (
    BaselineScheduler,
    CarbonGreedyOptimalScheduler,
    EcovisorLikeScheduler,
    LeastLoadScheduler,
    RoundRobinScheduler,
    has_fast_path,
)
from repro.traces import Trace, TraceView

from ..equivalence import EQ_RTOL, assert_equivalent, run_both
from .conftest import DeferOnceTestScheduler, FixedRegionTestScheduler, HomeRegionTestScheduler, make_job

POLICY_FACTORIES = {
    "baseline": BaselineScheduler,
    "round-robin": RoundRobinScheduler,
    "least-load": LeastLoadScheduler,
    "ecovisor-like": EcovisorLikeScheduler,
    "carbon-greedy-opt": CarbonGreedyOptimalScheduler,
    "defer-once": DeferOnceTestScheduler,
}


class TestScalarBatchEquivalence:
    @pytest.mark.parametrize("policy", sorted(POLICY_FACTORIES))
    def test_decisions_and_footprints_match(self, policy, small_dataset, small_trace):
        scalar, batch = run_both(
            small_trace, POLICY_FACTORIES[policy], small_dataset, servers_per_region=30
        )
        assert_equivalent(scalar, batch)

    @pytest.mark.parametrize("policy", ["baseline", "round-robin", "least-load"])
    def test_equivalence_under_queueing_pressure(self, policy, small_dataset, small_trace):
        # One server per region saturates the FIFO queues: start times now
        # depend on the exact event ordering, which must also match.
        scalar, batch = run_both(
            small_trace,
            POLICY_FACTORIES[policy],
            small_dataset,
            servers_per_region=1,
            delay_tolerance=50.0,
        )
        assert scalar.mean_queue_delay_s > 0.0  # the pressure is real
        assert_equivalent(scalar, batch)

    def test_equivalence_with_multi_server_jobs(self, small_dataset):
        trace = Trace(
            [
                make_job(i, 200.0 * i, region="milan", exec_time=900.0, servers_required=1 + i % 3)
                for i in range(12)
            ]
        )
        scalar, batch = run_both(
            trace, HomeRegionTestScheduler, small_dataset,
            servers_per_region=3, delay_tolerance=20.0,
        )
        assert_equivalent(scalar, batch)

    def test_fallback_is_used_for_custom_policies(self):
        assert not has_fast_path(HomeRegionTestScheduler())
        assert not has_fast_path(DeferOnceTestScheduler())
        assert has_fast_path(BaselineScheduler())
        assert has_fast_path(RoundRobinScheduler())
        assert has_fast_path(LeastLoadScheduler())
        assert has_fast_path(EcovisorLikeScheduler())
        assert has_fast_path(CarbonGreedyOptimalScheduler())

    def test_deferrals_survive_the_fast_and_fallback_paths(self, small_dataset):
        trace = Trace([make_job(0, 0.0, region="oregon", exec_time=2000.0)])
        scalar, batch = run_both(
            trace, DeferOnceTestScheduler, small_dataset,
            servers_per_region=2, delay_tolerance=1.0,
        )
        assert batch.deferrals[0] == 1
        assert_equivalent(scalar, batch)

    def test_equivalence_with_reordered_latency_model(self, small_dataset, small_trace):
        # The latency model orders its regions differently from the simulator
        # (and region codes must not be used to index its matrix directly).
        from repro.regions.latency import TransferLatencyModel

        shuffled = TransferLatencyModel(list(reversed(small_dataset.regions)))
        scalar, batch = run_both(
            small_trace, RoundRobinScheduler, small_dataset,
            servers_per_region=30, latency=shuffled,
        )
        assert scalar.mean_transfer_latency_s > 0.0
        assert_equivalent(scalar, batch)

    def test_equivalence_with_custom_latency_subclass(self, small_dataset, small_trace):
        # A subclass overriding transfer_time breaks the propagation +
        # serialization decomposition; the batch engine must fall back to
        # calling transfer_time per job.
        from repro.regions.latency import TransferLatencyModel

        class QuadraticLatency(TransferLatencyModel):
            def transfer_time(self, source, destination, package_gb=1.0):
                base = super().transfer_time(source, destination, package_gb)
                return base + 0.001 * base * base

        custom = QuadraticLatency(small_dataset.regions)
        scalar, batch = run_both(
            small_trace, RoundRobinScheduler, small_dataset,
            servers_per_region=30, latency=custom,
        )
        assert_equivalent(scalar, batch)

    def test_overriding_scheduler_subclass_is_decision_equivalent(
        self, small_dataset, small_trace
    ):
        # A RoundRobin subclass with different logic must NOT inherit the
        # parent's fast path — both engines must run its schedule().
        from repro.cluster.interface import SchedulerDecision

        class InvertedRoundRobin(RoundRobinScheduler):
            name = "inverted-round-robin"

            def schedule(self, jobs, context):
                keys = list(reversed(context.region_keys))
                assignments = {}
                for job in jobs:
                    assignments[job.job_id] = keys[self._cursor % len(keys)]
                    self._cursor += 1
                return SchedulerDecision(assignments=assignments)

        assert not has_fast_path(InvertedRoundRobin())
        scalar, batch = run_both(
            small_trace, InvertedRoundRobin, small_dataset, servers_per_region=30
        )
        assert_equivalent(scalar, batch)
        # Sanity: the decisions really differ from plain round-robin.
        plain = BatchSimulator(
            small_trace, RoundRobinScheduler(), dataset=small_dataset, servers_per_region=30
        ).run()
        assert batch.executed_regions != plain.executed_regions

    def test_duck_typed_latency_object(self, small_dataset, small_trace):
        # The batch engine only requires transfer_time() of non-standard
        # latency models, exactly like the scalar engine.
        class FlatLatency:
            def transfer_time(self, source, destination, package_gb=1.0):
                return 0.0 if source == destination else 42.0

        scalar, batch = run_both(
            small_trace, RoundRobinScheduler, small_dataset,
            servers_per_region=30, latency=FlatLatency(),
        )
        assert scalar.mean_transfer_latency_s > 0.0
        assert_equivalent(scalar, batch)

    def test_empty_trace(self, small_dataset):
        result = BatchSimulator(
            Trace([]), BaselineScheduler(), dataset=small_dataset
        ).run()
        assert result.num_jobs == 0
        assert result.total_carbon_g == 0.0
        assert result.total_water_l == 0.0
        assert np.isnan(result.mean_service_ratio)


class TestJobArrays:
    def test_columns_align_with_trace_order(self, small_trace, small_dataset):
        arrays = JobArrays.from_trace(small_trace, small_dataset.region_keys)
        assert arrays.n == len(small_trace)
        for i in (0, len(small_trace) // 2, len(small_trace) - 1):
            job = small_trace[i]
            assert arrays.job_id[i] == job.job_id
            assert arrays.arrival[i] == job.arrival_time
            assert arrays.exec_real[i] == job.realized_execution_time
            assert arrays.energy_real[i] == job.realized_energy_kwh
            assert arrays.region_keys[arrays.home_idx[i]] == job.home_region
            assert arrays.workloads[i] == job.workload

    def test_unknown_home_region_rejected(self, small_trace):
        with pytest.raises(ValueError, match="home region"):
            JobArrays.from_trace(small_trace, ["zurich"])  # trace spans 5 regions


class TestBatchResult:
    def test_summary_matches_scalar_summary(self, small_dataset, small_trace):
        scalar, batch = run_both(
            small_trace, BaselineScheduler, small_dataset, servers_per_region=30
        )
        scalar_summary = scalar.summary()
        batch_summary = batch.summary()
        assert set(scalar_summary) == set(batch_summary)
        # Decision times are wall-clock and engine-specific; everything else matches.
        scalar_summary.pop("mean_decision_time_s")
        batch_summary.pop("mean_decision_time_s")
        assert batch_summary == scalar_summary

    def test_to_simulation_result_round_trip(self, small_dataset, small_trace):
        _, batch = run_both(
            small_trace, RoundRobinScheduler, small_dataset, servers_per_region=30
        )
        converted = batch.to_simulation_result()
        assert converted.num_jobs == batch.num_jobs
        assert converted.total_carbon_g == pytest.approx(batch.total_carbon_g)
        assert converted.total_water_l == pytest.approx(batch.total_water_l)
        assert converted.mean_service_ratio == pytest.approx(batch.mean_service_ratio)
        assert converted.jobs_per_region() == batch.jobs_per_region()
        outcome = converted.outcomes[0]
        assert outcome.job_id == int(batch.job_id[0])
        assert outcome.executed_region == batch.executed_regions[0]

    def test_savings_interop_with_scalar_results(self, small_dataset, small_trace):
        scalar_base = Simulator(
            small_trace, BaselineScheduler(), dataset=small_dataset, servers_per_region=30
        ).run()
        batch_base = BatchSimulator(
            small_trace, BaselineScheduler(), dataset=small_dataset, servers_per_region=30
        ).run()
        _, batch_rr = run_both(
            small_trace, RoundRobinScheduler, small_dataset, servers_per_region=30
        )
        # Batch results compare against scalar results and vice versa.
        assert batch_rr.carbon_savings_vs(scalar_base) == pytest.approx(
            batch_rr.carbon_savings_vs(batch_base), rel=EQ_RTOL
        )
        assert scalar_base.carbon_savings_vs(batch_base.to_simulation_result()) == pytest.approx(
            0.0, abs=1e-9
        )

    def test_validation_errors_match_scalar_engine(self, small_dataset):
        trace = Trace([make_job(0, 0.0)])
        with pytest.raises(ValueError):
            BatchSimulator(
                trace, FixedRegionTestScheduler("atlantis"),
                dataset=small_dataset, servers_per_region=1,
            ).run()
        with pytest.raises(ValueError):
            BatchSimulator(
                trace, BaselineScheduler(), dataset=small_dataset, servers_per_region=0
            )

    def test_non_finite_arrival_rejected_like_scalar_engine(self, small_dataset):
        # Trace.from_columns does not check arrivals; the scalar engine fails
        # building the Job, the array engine when it ingests the chunk.
        columns = dict(Trace([make_job(0, 0.0), make_job(1, 60.0)]).to_columns())
        columns["arrival_time"] = np.array([0.0, np.nan])
        trace = Trace.from_columns(columns)
        for engine_cls in (Simulator, BatchSimulator):
            with pytest.raises(ValueError, match="arrival"):
                engine_cls(trace, BaselineScheduler(), dataset=small_dataset).run()


class TestOneShotFront:
    @pytest.mark.parametrize("policy", ["baseline", "defer-once"])
    def test_run_twice_on_one_instance(self, policy, small_dataset, small_trace):
        engine = BatchSimulator(
            small_trace, POLICY_FACTORIES[policy](), dataset=small_dataset,
            servers_per_region=30,
        )
        first = engine.run()
        assert engine.run().digest() == first.digest()

    def test_second_finalize_after_full_collect_run(self, small_dataset, small_trace):
        engine = StreamingSimulator(
            TraceView(small_trace), BaselineScheduler(), dataset=small_dataset,
            servers_per_region=30, collect="full",
        )
        first = engine.run()
        second = engine.finalize()
        assert second.num_jobs == first.num_jobs == len(small_trace)
        assert second.digest() == first.digest()

"""Experiment plumbing: run policies over traces and sweep parameters.

Every evaluation experiment in the paper boils down to "simulate this trace
under these policies at these settings and compare against the baseline".
This module centralizes that plumbing so the per-figure experiment functions
(:mod:`repro.analysis.experiments`) and the benchmark harness stay thin.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Mapping, Sequence

from repro.cluster.capacity import servers_for_target_utilization
from repro.cluster.interface import Scheduler
from repro.cluster.metrics import SimulationResult
from repro.cluster.multi import MultiPolicyRunner
from repro.cluster.simulator import Simulator
from repro.cluster.streaming import BatchSimulator, StreamingSimulator
from repro.traces.stream import TraceSource, TraceView
from repro.core.config import WaterWiseConfig
from repro.core.waterwise import WaterWiseScheduler
from repro.regions.region import Region
from repro.schedulers import (
    BaselineScheduler,
    CarbonGreedyOptimalScheduler,
    WaterGreedyOptimalScheduler,
)
from repro.sustainability.datasets import ElectricityMapsLikeProvider, SustainabilityDataset
from repro.traces.alibaba import AlibabaTraceGenerator
from repro.traces.borg import BorgTraceGenerator
from repro.traces.scenarios import available_scenarios, get_scenario
from repro.traces.trace import Trace

__all__ = [
    "ExperimentScale",
    "simulate",
    "run_policies",
    "delay_tolerance_sweep",
    "scenario_suite",
    "default_policy_set",
]

SchedulerFactory = Callable[[], Scheduler]


@dataclasses.dataclass(frozen=True)
class ExperimentScale:
    """Size of a trace-driven experiment.

    The paper's full scale (10 days of the Borg trace, ≈ 230k jobs, 175
    servers) takes hours to simulate; the default here is a scaled-down
    setting that finishes in seconds per policy while keeping the same
    structure (five regions, ~15% utilization, diurnal arrivals).  Benchmarks
    accept a scale so users can dial the experiment up to the paper's size.

    Attributes
    ----------
    rate_per_hour:
        Borg-like submission rate (the Alibaba-like rate is 8.5× this).
    duration_days:
        Trace length.
    seed:
        Seed for trace generation and synthetic data.
    target_utilization:
        Average cluster utilization the server count is sized for.
    scheduling_interval_s:
        Scheduling-round cadence.
    """

    rate_per_hour: float = 60.0
    duration_days: float = 0.5
    seed: int = 42
    target_utilization: float = 0.15
    scheduling_interval_s: float = 300.0

    def borg_trace(self, rate_multiplier: float = 1.0) -> Trace:
        """Generate the Borg-like trace for this scale."""
        return BorgTraceGenerator(
            rate_per_hour=self.rate_per_hour * rate_multiplier,
            duration_days=self.duration_days,
            seed=self.seed,
        ).generate()

    def alibaba_trace(self) -> Trace:
        """Generate the Alibaba-like trace for this scale (8.5× the Borg rate)."""
        return AlibabaTraceGenerator(
            rate_per_hour=self.rate_per_hour * 8.5,
            duration_days=self.duration_days,
            seed=self.seed,
        ).generate()

    def scenario_trace(
        self, name: str, rate_per_hour: float | None = None
    ) -> Trace:
        """Generate a named scenario trace over this scale's horizon and seed.

        The scenario family's natural submission rate is kept unless
        ``rate_per_hour`` overrides it (families differ deliberately — e.g.
        ``ml-training`` submits few long jobs).
        """
        return get_scenario(name).trace(
            seed=self.seed,
            rate_per_hour=rate_per_hour,
            duration_days=self.duration_days,
        )

    def dataset(
        self, provider: type[SustainabilityDataset] = ElectricityMapsLikeProvider, **kwargs
    ) -> SustainabilityDataset:
        """Build the sustainability dataset covering this scale's horizon."""
        horizon_hours = int(self.duration_days * 24) + 48
        kwargs.setdefault("horizon_hours", max(horizon_hours, 72))
        kwargs.setdefault("seed", self.seed)
        return provider(**kwargs)

    def servers_for(self, trace: Trace, region_keys: Sequence[str],
                    utilization: float | None = None) -> int:
        """Servers per region for the requested utilization."""
        return servers_for_target_utilization(
            trace, region_keys, utilization if utilization is not None else self.target_utilization
        )


def simulate(
    trace: Trace,
    scheduler: Scheduler,
    dataset: SustainabilityDataset,
    servers_per_region: int | Mapping[str, int],
    delay_tolerance: float,
    scheduling_interval_s: float = 300.0,
    regions: Sequence[Region] | None = None,
    include_embodied: bool = True,
    engine: str = "scalar",
    chunk_size: int = 4096,
    chaos=None,
    chaos_seed: int = 0,
    kernel: str = "vector",
) -> SimulationResult:
    """Run one policy over one trace (thin wrapper around the simulators).

    ``engine="batch"`` runs the vectorized :class:`BatchSimulator` (identical
    decisions and footprints, ~13–16x faster on large traces) and converts
    the columnar result back to a :class:`SimulationResult` so callers are
    engine-agnostic.  ``engine="stream"`` runs the bounded-memory
    :class:`StreamingSimulator` over ``trace`` — either a chunked
    :class:`~repro.traces.stream.TraceSource` or a materialized trace
    (wrapped in a :class:`~repro.traces.stream.TraceView`) — and returns its
    aggregate-only :class:`~repro.cluster.streaming.StreamResult` (same
    figures of merit, no per-job outcome list).

    ``kernel`` selects the array engines' event kernel: ``vector`` (the
    production kernel) or ``scalar`` (the event-at-a-time reference; same
    decisions).  The scalar *engine* has no kernel and ignores it.
    """
    if engine not in ("scalar", "batch", "stream"):
        raise ValueError(
            f"engine must be 'scalar', 'batch' or 'stream', got {engine!r}"
        )
    if chaos is not None and engine == "scalar":
        raise ValueError(
            "chaos timelines need the array engines: use engine='batch' or "
            "'stream' (BatchSimulator(kernel='scalar') is the chaos reference)"
        )
    if engine == "stream":
        source = trace if isinstance(trace, TraceSource) else TraceView(trace)
        return StreamingSimulator(
            source,
            scheduler,
            dataset=dataset,
            regions=regions,
            servers_per_region=servers_per_region,
            scheduling_interval_s=scheduling_interval_s,
            delay_tolerance=delay_tolerance,
            include_embodied=include_embodied,
            chunk_size=chunk_size,
            collect="aggregate",
            chaos=chaos,
            chaos_seed=chaos_seed,
            kernel=kernel,
        ).run()
    if isinstance(trace, TraceSource):
        trace = trace.materialize()
    engine_cls = BatchSimulator if engine == "batch" else Simulator
    engine_kwargs = {"kernel": kernel} if engine == "batch" else {}
    result = engine_cls(
        trace=trace,
        scheduler=scheduler,
        dataset=dataset,
        regions=regions,
        servers_per_region=servers_per_region,
        scheduling_interval_s=scheduling_interval_s,
        delay_tolerance=delay_tolerance,
        include_embodied=include_embodied,
        chaos=chaos,
        chaos_seed=chaos_seed,
        **engine_kwargs,
    ).run()
    return result.to_simulation_result() if engine == "batch" else result


def default_policy_set(include_oracles: bool = True) -> dict[str, SchedulerFactory]:
    """The policy set used by most experiments: baseline, oracles, WaterWise."""
    policies: dict[str, SchedulerFactory] = {"baseline": BaselineScheduler}
    if include_oracles:
        policies["carbon-greedy-opt"] = CarbonGreedyOptimalScheduler
        policies["water-greedy-opt"] = WaterGreedyOptimalScheduler
    policies["waterwise"] = WaterWiseScheduler
    return policies


def run_policies(
    trace: Trace,
    dataset: SustainabilityDataset,
    policies: Mapping[str, SchedulerFactory],
    servers_per_region: int | Mapping[str, int],
    delay_tolerance: float,
    scheduling_interval_s: float = 300.0,
    regions: Sequence[Region] | None = None,
    include_embodied: bool = True,
    engine: str = "scalar",
    chunk_size: int = 4096,
    chaos=None,
    chaos_seed: int = 0,
    kernel: str = "vector",
) -> dict[str, SimulationResult]:
    """Simulate every policy in ``policies`` under identical conditions.

    With ``engine="stream"`` every policy cell replays the *same* chunked
    source (streams are restartable and chunk-size-invariant), so sweep
    memory stays O(chunk) instead of O(n_policies × n_jobs).
    ``engine="fused"`` goes one step further: a single
    :class:`~repro.cluster.multi.MultiPolicyRunner` pass drives every policy
    in lockstep over one chunk stream, so trace generation and columnization
    are paid once for the whole policy set instead of once per cell.  Fused
    results are the streaming engine's aggregate
    :class:`~repro.cluster.streaming.StreamResult`\\ s (identical decisions,
    same summary keys).
    """
    if engine == "fused":
        source = trace if isinstance(trace, TraceSource) else TraceView(trace)
        runner = MultiPolicyRunner(
            source,
            {name: factory() for name, factory in policies.items()},
            dataset=dataset,
            chunk_size=chunk_size,
            collect="aggregate",
            regions=regions,
            servers_per_region=servers_per_region,
            scheduling_interval_s=scheduling_interval_s,
            delay_tolerance=delay_tolerance,
            include_embodied=include_embodied,
            chaos=chaos,
            chaos_seed=chaos_seed,
            kernel=kernel,
        )
        return runner.run()
    if engine != "stream" and isinstance(trace, TraceSource):
        # Materialize once, not once per policy cell.
        trace = trace.materialize()
    results: dict[str, SimulationResult] = {}
    for name, factory in policies.items():
        results[name] = simulate(
            trace,
            factory(),
            dataset,
            servers_per_region=servers_per_region,
            delay_tolerance=delay_tolerance,
            scheduling_interval_s=scheduling_interval_s,
            regions=regions,
            include_embodied=include_embodied,
            engine=engine,
            chunk_size=chunk_size,
            chaos=chaos,
            chaos_seed=chaos_seed,
            kernel=kernel,
        )
    return results


def delay_tolerance_sweep(
    trace: Trace,
    dataset: SustainabilityDataset,
    policies: Mapping[str, SchedulerFactory],
    servers_per_region: int | Mapping[str, int],
    tolerances: Sequence[float],
    scheduling_interval_s: float = 300.0,
) -> dict[float, dict[str, SimulationResult]]:
    """Run ``policies`` for every delay tolerance in ``tolerances``.

    This is the shape of the paper's Fig. 3/5/6/9/11: one group of bars per
    delay tolerance, one bar per policy.
    """
    if not tolerances:
        raise ValueError("tolerances must not be empty")
    sweep: dict[float, dict[str, SimulationResult]] = {}
    for tolerance in tolerances:
        sweep[float(tolerance)] = run_policies(
            trace,
            dataset,
            policies,
            servers_per_region=servers_per_region,
            delay_tolerance=float(tolerance),
            scheduling_interval_s=scheduling_interval_s,
        )
    return sweep


def scenario_suite(
    policies: Mapping[str, SchedulerFactory],
    scenario_names: Sequence[str] | None = None,
    scale: ExperimentScale | None = None,
    delay_tolerance: float = 0.25,
    servers_per_region: int | Mapping[str, int] | None = None,
    engine: str = "batch",
) -> dict[str, dict[str, SimulationResult]]:
    """Run ``policies`` over every scenario family under identical conditions.

    The scenario-diversity counterpart of :func:`delay_tolerance_sweep`: one
    result group per scenario, one result per policy.  Server counts are
    sized per scenario for the scale's target utilization unless given.
    Chaos scenarios (``Scenario.chaos``) automatically run their engines
    under the scenario's fault-injection timeline, seeded with the scale's
    seed.
    """
    scale = scale if scale is not None else ExperimentScale()
    names = tuple(scenario_names) if scenario_names is not None else available_scenarios()
    if not names:
        raise ValueError("scenario_names must not be empty")
    dataset = scale.dataset()
    suite: dict[str, dict[str, SimulationResult]] = {}
    for name in names:
        scenario = get_scenario(name)
        trace = scale.scenario_trace(name)
        servers = (
            servers_per_region
            if servers_per_region is not None
            else scale.servers_for(trace, dataset.region_keys)
        )
        suite[name] = run_policies(
            trace,
            dataset,
            policies,
            servers_per_region=servers,
            delay_tolerance=delay_tolerance,
            scheduling_interval_s=scale.scheduling_interval_s,
            engine=engine,
            chaos=scenario.chaos,
            chaos_seed=scale.seed,
        )
    return suite


def waterwise_factory(config: WaterWiseConfig) -> SchedulerFactory:
    """A factory returning WaterWise schedulers with a fixed configuration."""

    def factory() -> WaterWiseScheduler:
        return WaterWiseScheduler(config)

    return factory

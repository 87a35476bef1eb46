"""Named workload-scenario library for sweeps, benchmarks and the CLI.

PR 1's batch engine made single-trace sweeps fast; this library makes them
*diverse*.  Each scenario is a named, seeded recipe producing a workload with
a distinct shape, so experiments can exercise the schedulers well beyond the
default Borg/Alibaba pair:

``diurnal``
    Borg-like arrivals with a pronounced day/night cycle (0.9 amplitude) —
    the canonical "follow the sun" workload.
``bursty``
    Alibaba-like arrivals with frequent, strong bursts on a flat-ish base —
    stresses scheduling rounds with large batches.
``heavy-tail``
    Borg-like arrivals whose execution times carry a Pareto-distributed
    elephant tail: a few percent of jobs run one to two orders of magnitude
    longer than the median, as in production Borg traces.  Stresses capacity
    accounting and queueing.
``ml-training``
    Sparse arrivals of long (multi-hour) multi-server training jobs with
    large package sizes — migration is expensive in transfer time but very
    profitable per job.
``region-skew``
    Diurnal arrivals submitted overwhelmingly from two of the five regions —
    stresses migration policies, since the home regions saturate first.
``region-outage`` / ``autoscale-diurnal`` / ``capacity-flap`` /
``carbon-spike`` / ``forecast-shock``
    Chaos & elasticity experiments: the workload families above paired with a
    seeded fault-injection timeline from
    :data:`repro.cluster.timeline.CHAOS_SPECS` (whole-region outages with
    evict-and-requeue, stepped autoscaling, partial capacity flaps in drain
    mode, carbon/water intensity spikes, forecast-error injection).  The
    trace itself is unchanged; sweep fabric and the CLI thread the scenario's
    ``chaos`` spec into the engines they build.

Every scenario is a :class:`~repro.traces.stream.TraceSource`:
:func:`scenario_source` streams fixed-size, time-ordered chunks with
*chunk-size-invariant* seeding (every random draw is keyed on absolute time
slabs and job-index blocks, never on generator call order — the same
``(seed, rate, duration)`` yields byte-identical jobs whether consumed one
job, 512 jobs, or the whole trace at a time), and :func:`scenario_trace`
materializes the same stream as a :class:`~repro.traces.trace.Trace` built
directly from columns, with no intermediate ``Job`` list.

Determinism is also cross-process and cross-platform (NumPy ``SeedSequence``
streams only — no ``hash()``; see the PR 1 crc32 lesson), which the
Hypothesis suites in ``tests/traces/test_scenarios.py`` and
``tests/traces/test_stream.py`` enforce.

Scenarios plug in everywhere traces do: :func:`scenario_trace` feeds the
one-shot simulators, :func:`scenario_source` the streaming engine,
``SweepPoint(trace_kind=<scenario>)`` runs them through
:func:`repro.analysis.run_sweep`, and ``python -m repro simulate --scenario
<name>`` drives them from the command line.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterator

import numpy as np

from repro._validation import ensure_positive
from repro.regions.catalog import DEFAULT_REGION_KEYS
from repro.sustainability.embodied import DEFAULT_SERVER
from repro.traces.alibaba import AlibabaTraceGenerator
from repro.traces.arrival import PoissonArrivalProcess
from repro.traces.borg import BorgTraceGenerator
from repro.traces.stream import (
    ATTR_BLOCK,
    BlockGather,
    JobChunk,
    StreamingTraceGenerator,
    TraceSource,
)
from repro.traces.trace import Trace

__all__ = [
    "Scenario",
    "SCENARIOS",
    "available_scenarios",
    "get_scenario",
    "scenario_source",
    "scenario_trace",
]

#: Fraction of heavy-tail jobs promoted to elephants, and the Pareto shape of
#: their duration multiplier (shape 1.6 → infinite variance, finite mean).
_ELEPHANT_FRACTION = 0.05
_ELEPHANT_PARETO_SHAPE = 1.6
_ELEPHANT_MAX_FACTOR = 200.0

#: Entropy tags of the scenario-specific random streams.
_ELEPHANT_STREAM = 0x7E47A11
_ML_ARRIVAL_STREAM = 0x317A1
_ML_ATTR_STREAM = 0x317A2


class _HeavyTailSource(TraceSource):
    """Promote a block-keyed fraction of an inner stream's jobs to elephants.

    The promotion draw for job ``i`` lives in job-index block ``i // B`` of a
    dedicated stream, so it is independent of chunking; estimates and
    realized values are stretched by the same factor, preserving the
    estimate-error model.
    """

    def __init__(self, inner: BorgTraceGenerator) -> None:
        self.inner = inner
        self.name = inner.name
        self.seed = inner.seed
        self.horizon_s = inner.horizon_s

    def job_metadata(self, workload: str) -> dict:
        return self.inner.job_metadata(workload)

    def _factor_block(self, block_index: int) -> dict[str, np.ndarray]:
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, _ELEPHANT_STREAM, block_index])
        )
        promote = rng.random(ATTR_BLOCK) < _ELEPHANT_FRACTION
        factor = np.minimum(
            1.0 + rng.pareto(_ELEPHANT_PARETO_SHAPE, size=ATTR_BLOCK),
            _ELEPHANT_MAX_FACTOR,
        )
        return {"factor": np.where(promote, factor, 1.0)}

    def iter_chunks(
        self, chunk_size: int | None = None, skip_jobs: int = 0
    ) -> Iterator[JobChunk]:
        gather = BlockGather(self._factor_block)
        for chunk in self.inner.iter_chunks(chunk_size, skip_jobs=skip_jobs):
            if chunk.n == 0:
                yield chunk
                continue
            first = int(chunk.job_id[0])
            factor = gather.rows(first, first + chunk.n)["factor"]
            yield dataclasses.replace(
                chunk,
                exec_est=chunk.exec_est * factor,
                exec_real=chunk.exec_real * factor,
                energy_est=chunk.energy_est * factor,
                energy_real=chunk.energy_real * factor,
            )


class MLTrainingTraceGenerator(StreamingTraceGenerator):
    """Sparse multi-hour, multi-server training jobs with heavyweight packages."""

    def __init__(self, seed: int, rate_per_hour: float, duration_days: float) -> None:
        self.seed = int(seed)
        self.rate_per_hour = ensure_positive(rate_per_hour, "rate_per_hour")
        self.duration_days = ensure_positive(duration_days, "duration_days")
        self.name = "ml-training"
        self.region_keys = list(DEFAULT_REGION_KEYS)

    @property
    def horizon_s(self) -> float:
        return self.duration_days * 86_400.0

    @property
    def chunk_region_keys(self) -> tuple[str, ...]:
        return tuple(self.region_keys)

    @property
    def chunk_workload_names(self) -> tuple[str, ...]:
        return ("ml-training",)

    def job_metadata(self, workload: str) -> dict:
        return {"generator": self.name}

    def _arrival_slabs(self) -> Iterator[np.ndarray]:
        process = PoissonArrivalProcess(self.rate_per_hour)
        return process.iter_slab_arrivals(self.horizon_s, (self.seed, _ML_ARRIVAL_STREAM))

    def _attribute_block(self, block_index: int) -> dict[str, np.ndarray]:
        rng = np.random.default_rng(
            np.random.SeedSequence([self.seed, _ML_ATTR_STREAM, block_index])
        )
        execution = np.exp(
            np.log(3.0 * 3600.0) + 0.6 * rng.standard_normal(ATTR_BLOCK)
        )
        servers = rng.integers(2, 9, size=ATTR_BLOCK).astype(np.int64)
        utilization = rng.uniform(0.75, 0.95, size=ATTR_BLOCK)
        home_idx = rng.integers(0, len(self.region_keys), size=ATTR_BLOCK).astype(np.int64)
        package_gb = rng.uniform(8.0, 24.0, size=ATTR_BLOCK)
        error = 1.0 + rng.uniform(-0.15, 0.15, size=ATTR_BLOCK)
        power_w = (
            DEFAULT_SERVER.idle_power_w
            + (DEFAULT_SERVER.peak_power_w - DEFAULT_SERVER.idle_power_w) * utilization
        ) * servers
        energy = power_w * execution / 3600.0 / 1000.0
        return {
            "workload_idx": np.zeros(ATTR_BLOCK, dtype=np.int64),
            "home_idx": home_idx,
            "exec_est": execution,
            "exec_real": execution * error,
            "energy_est": energy,
            "energy_real": energy * error,
            "package_gb": package_gb,
            "servers": servers,
        }


@dataclasses.dataclass(frozen=True)
class Scenario:
    """A named, seeded workload family.

    ``builder`` maps ``(seed, rate_per_hour, duration_days)`` to a
    :class:`~repro.traces.stream.TraceSource`; ``default_rate_per_hour`` /
    ``default_duration_days`` are the family's natural scale (used when the
    caller passes ``None``).  ``chaos`` optionally names a
    :data:`repro.cluster.timeline.CHAOS_SPECS` entry: the workload itself is
    unaffected (``trace()``/``source()`` stay chaos-free), but sweep fabric
    and CLI runs construct their engines with that chaos spec, making the
    scenario a reproducible fault-injection experiment.
    """

    name: str
    description: str
    builder: Callable[[int, float, float], TraceSource]
    default_rate_per_hour: float = 60.0
    default_duration_days: float = 0.5
    chaos: str | None = None

    def source(
        self,
        seed: int = 0,
        rate_per_hour: float | None = None,
        duration_days: float | None = None,
    ) -> TraceSource:
        """Build this scenario's chunked stream (family defaults where unspecified)."""
        rate = self.default_rate_per_hour if rate_per_hour is None else rate_per_hour
        days = self.default_duration_days if duration_days is None else duration_days
        ensure_positive(rate, "rate_per_hour")
        ensure_positive(days, "duration_days")
        source = self.builder(int(seed), float(rate), float(days))
        # Re-label the family so results read "<scenario>-<seed>"; the
        # generator's own name stays untouched as the provenance tag in
        # job metadata.
        source.label = self.name
        return source

    def trace(
        self,
        seed: int = 0,
        rate_per_hour: float | None = None,
        duration_days: float | None = None,
    ) -> Trace:
        """Materialize this scenario's trace (identical jobs to the stream)."""
        return self.source(
            seed=seed, rate_per_hour=rate_per_hour, duration_days=duration_days
        ).materialize()


def _diurnal(seed: int, rate: float, days: float) -> TraceSource:
    return BorgTraceGenerator(
        rate_per_hour=rate, duration_days=days, seed=seed, diurnal_amplitude=0.9
    )


def _bursty(seed: int, rate: float, days: float) -> TraceSource:
    return AlibabaTraceGenerator(
        rate_per_hour=rate,
        duration_days=days,
        seed=seed,
        diurnal_amplitude=0.2,
        bursts_per_day=16.0,
        burst_duration_s=900.0,
        burst_multiplier=6.0,
    )


def _heavy_tail(seed: int, rate: float, days: float) -> TraceSource:
    return _HeavyTailSource(
        BorgTraceGenerator(
            rate_per_hour=rate, duration_days=days, seed=seed, diurnal_amplitude=0.5
        )
    )


def _ml_training(seed: int, rate: float, days: float) -> TraceSource:
    return MLTrainingTraceGenerator(seed, rate, days)


def _region_skew(seed: int, rate: float, days: float) -> TraceSource:
    keys = list(DEFAULT_REGION_KEYS)
    # Two dominant submission regions, a long tail over the rest.
    weights = np.full(len(keys), 0.05)
    weights[0] = 0.55
    weights[1] = 0.25
    weights = weights / weights.sum()
    return BorgTraceGenerator(
        rate_per_hour=rate,
        duration_days=days,
        seed=seed,
        diurnal_amplitude=0.5,
        region_weights=weights,
    )


SCENARIOS: dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "diurnal",
            "Borg-like arrivals with a strong day/night cycle",
            _diurnal,
        ),
        Scenario(
            "bursty",
            "Alibaba-like arrivals with frequent high-rate bursts",
            _bursty,
            default_rate_per_hour=120.0,
        ),
        Scenario(
            "heavy-tail",
            "Borg-like arrivals with a Pareto elephant tail of long jobs",
            _heavy_tail,
        ),
        Scenario(
            "ml-training",
            "Sparse multi-hour multi-server training jobs with large packages",
            _ml_training,
            default_rate_per_hour=8.0,
        ),
        Scenario(
            "region-skew",
            "Diurnal arrivals submitted mostly from two dominant regions",
            _region_skew,
        ),
        # -- chaos & elasticity experiments: same workload families, but the
        # engines run them under a seeded fault-injection timeline.
        Scenario(
            "region-outage",
            "Diurnal workload under random whole-region outages (evict + requeue)",
            _diurnal,
            chaos="region-outage",
        ),
        Scenario(
            "autoscale-diurnal",
            "Diurnal workload on a cluster whose capacity breathes with the day",
            _diurnal,
            chaos="autoscale-diurnal",
        ),
        Scenario(
            "capacity-flap",
            "Bursty workload under rapid partial capacity flaps (drain mode)",
            _bursty,
            default_rate_per_hour=120.0,
            chaos="capacity-flap",
        ),
        Scenario(
            "carbon-spike",
            "Diurnal workload with transient carbon/water intensity spikes",
            _diurnal,
            chaos="carbon-spike",
        ),
        Scenario(
            "forecast-shock",
            "Heavy-tail workload where schedulers see error-injected intensities",
            _heavy_tail,
            chaos="forecast-shock",
        ),
    )
}


def available_scenarios() -> tuple[str, ...]:
    """Scenario names accepted by :func:`get_scenario` / :func:`scenario_trace`."""
    return tuple(sorted(SCENARIOS))


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name (case-insensitive)."""
    key = name.strip().lower()
    try:
        return SCENARIOS[key]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {list(available_scenarios())}"
        ) from None


def scenario_source(
    name: str,
    seed: int = 0,
    rate_per_hour: float | None = None,
    duration_days: float | None = None,
) -> TraceSource:
    """Build the named scenario's chunked stream (family defaults where unspecified)."""
    return get_scenario(name).source(
        seed=seed, rate_per_hour=rate_per_hour, duration_days=duration_days
    )


def scenario_trace(
    name: str,
    seed: int = 0,
    rate_per_hour: float | None = None,
    duration_days: float | None = None,
) -> Trace:
    """Build the named scenario's trace (family defaults where unspecified)."""
    return get_scenario(name).trace(
        seed=seed, rate_per_hour=rate_per_hour, duration_days=duration_days
    )

"""Per-job outcomes, aggregate simulation results, and streaming accumulators.

Besides the object-world :class:`JobOutcome` / :class:`SimulationResult`
pair, this module provides the *carry-over accumulators* of the streaming
horizon engine: :class:`RunningJobStats` folds finished-job chunks into the
aggregate figures of merit without retaining per-job columns, assisted by
:class:`StreamingQuantiles` (constant-memory quantile estimation) and
:class:`ReservoirSample` (a seeded uniform sample of per-job rows for
post-hoc inspection).  All three are picklable, so a checkpointed engine
resumes mid-aggregation.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from collections.abc import Mapping, Sequence

import numpy as np

__all__ = [
    "JobOutcome",
    "SimulationResult",
    "ExactSum",
    "StreamingQuantiles",
    "ReservoirSample",
    "RunningJobStats",
]

_MANT_BITS = 53
_MANT_SCALE = float(1 << _MANT_BITS)
#: int64 partial sums stay overflow-safe for segments of ≤ 512 mantissas:
#: 512 × (2**53 − 1) < 2**62.
_SEGMENT = 512


class ExactSum:
    """Exact, order-independent accumulator of finite float64 values.

    Every finite float64 is an integer multiple of a power of two
    (``value = M * 2**E`` with ``|M| < 2**53``), so the accumulator keeps the
    running total as an arbitrary-precision integer ``n`` scaled by ``2**e``
    — the *exact* real-number sum of everything it has seen.  Rounding
    happens once, in :meth:`value`, which means two accumulators fed the same
    multiset of values report bit-identical totals regardless of insertion
    order, chunking, or how they were combined from partial accumulators with
    :meth:`merge`.  That invariance is what makes streaming aggregates
    independent of chunk size and flush batching.

    :meth:`add_array` folds whole NumPy arrays with vectorized
    mantissa/exponent decomposition (``np.frexp`` + segmented int64 partial
    sums), so streaming-engine flushes stay cheap.  Plain attributes only, so
    instances pickle (checkpoints carry them).
    """

    def __init__(self) -> None:
        #: Exact total = ``_n * 2**_e`` (``_n == 0`` means an empty sum).
        self._n = 0
        self._e = 0

    def _fold(self, n: int, e: int) -> None:
        if n == 0:
            return
        if self._n == 0:
            self._n, self._e = n, e
        elif e >= self._e:
            self._n += n << (e - self._e)
        else:
            self._n = (self._n << (self._e - e)) + n
            self._e = e
        if self._n:
            # Strip trailing zero bits so the integer stays small.
            trailing = (self._n & -self._n).bit_length() - 1
            if trailing:
                self._n >>= trailing
                self._e += trailing
        else:
            self._e = 0

    def add(self, value: float) -> None:
        value = float(value)
        if value == 0.0:
            return
        if not math.isfinite(value):
            raise ValueError(f"ExactSum accepts finite values only, got {value!r}")
        mantissa, exponent = math.frexp(value)
        self._fold(int(mantissa * _MANT_SCALE), exponent - _MANT_BITS)

    def add_array(self, values) -> None:
        values = np.ascontiguousarray(values, dtype=float).ravel()
        if values.size == 0:
            return
        if not np.all(np.isfinite(values)):
            raise ValueError("ExactSum accepts finite values only")
        mantissa, exponent = np.frexp(values)
        mant = (mantissa * _MANT_SCALE).astype(np.int64)
        exp = exponent.astype(np.int64) - _MANT_BITS
        order = np.argsort(exp, kind="stable")
        mant = mant[order]
        exp = exp[order]
        # Segment boundaries: every exponent change plus every _SEGMENT
        # values, so each int64 partial sum is overflow-safe and shares one
        # exponent; the few partials then combine exactly in Python ints.
        cuts = np.flatnonzero(np.diff(exp)) + 1
        starts = np.union1d(np.arange(0, len(mant), _SEGMENT), cuts)
        partials = np.add.reduceat(mant, starts)
        part_exp = exp[starts]
        base = int(part_exp[0])
        total = 0
        for part, ex in zip(partials.tolist(), part_exp.tolist()):
            total += part << (ex - base)
        self._fold(total, base)

    def merge(self, other: "ExactSum") -> None:
        """Fold another accumulator in exactly (commutative and associative)."""
        self._fold(other._n, other._e)

    def value(self) -> float:
        """The correctly-rounded float64 total (0.0 for an empty sum)."""
        if self._n == 0:
            return 0.0
        if self._e >= 0:
            return float(self._n << self._e)
        # Correctly-rounded by CPython's exact int/int true division.
        return self._n / (1 << -self._e)

    def __float__(self) -> float:
        return self.value()

    def __repr__(self) -> str:
        return f"ExactSum({self.value()!r})"


@dataclasses.dataclass(frozen=True)
class JobOutcome:
    """Everything the evaluation needs to know about one completed job.

    Times are seconds since the start of the trace.  ``service_time`` follows
    the paper's definition of delay tolerance: it measures the extra delay a
    job experienced relative to running immediately with no transfer or
    queuing, so it is counted from the first scheduling round at which the
    job was considered (``considered_time``) rather than from the raw arrival
    time; the batching alignment delay is identical for every policy and
    would otherwise obscure the comparison.  ``raw_service_time`` (from
    arrival) is also kept for completeness.
    """

    job_id: int
    workload: str
    home_region: str
    executed_region: str
    arrival_time: float
    considered_time: float
    assigned_time: float
    ready_time: float
    start_time: float
    finish_time: float
    execution_time: float
    transfer_latency: float
    carbon_g: float
    water_l: float
    deferrals: int
    delay_tolerance: float

    @property
    def queue_delay(self) -> float:
        """Seconds spent waiting for a free server after the transfer completed."""
        return max(0.0, self.start_time - self.ready_time)

    @property
    def scheduling_delay(self) -> float:
        """Seconds between first consideration and final assignment (deferrals)."""
        return max(0.0, self.assigned_time - self.considered_time)

    @property
    def service_time(self) -> float:
        """Delay-tolerance-relevant service time (see class docstring)."""
        return self.finish_time - self.considered_time

    @property
    def raw_service_time(self) -> float:
        """Service time measured from the job's raw arrival."""
        return self.finish_time - self.arrival_time

    @property
    def service_ratio(self) -> float:
        """Service time normalized to the realized execution time (1.0 = no delay)."""
        return self.service_time / self.execution_time

    @property
    def migrated(self) -> bool:
        """Whether the job executed away from its home region."""
        return self.executed_region != self.home_region

    @property
    def violated_delay_tolerance(self) -> bool:
        """Whether the service time exceeded the allowed delay tolerance."""
        return self.service_time > (1.0 + self.delay_tolerance) * self.execution_time + 1e-9


class SimulationResult:
    """Aggregated result of one simulation run.

    Provides the figures of merit used throughout the paper's evaluation:
    total carbon and water footprints, average normalized service time,
    percentage of delay-tolerance violations, job distribution across regions,
    utilization, and the scheduler decision-making overhead.
    """

    #: Aggregate MILP-solver counters for the run (warm-start iteration
    #: savings, structured-path hit rates) when the policy routed
    #: rounds through a :class:`~repro.milp.session.SolverSession`; ``None``
    #: for policies that never solve MILPs.  Set by the engines after
    #: construction.
    solver_stats: dict | None = None
    #: Event-kernel telemetry for array-engine runs; ``None`` here (the
    #: object-world engine has no array kernel).  Declared so result types
    #: stay attribute-compatible.  See :class:`repro.cluster.events.KernelStats`.
    kernel_stats: dict | None = None

    def __init__(
        self,
        scheduler_name: str,
        outcomes: Sequence[JobOutcome],
        region_servers: Mapping[str, int],
        region_utilization: Mapping[str, float],
        makespan_s: float,
        decision_times_s: Sequence[float],
        round_times_s: Sequence[float],
        delay_tolerance: float,
        trace_name: str = "",
    ) -> None:
        self.scheduler_name = scheduler_name
        self.outcomes = tuple(outcomes)
        self.region_servers = dict(region_servers)
        self.region_utilization = dict(region_utilization)
        self.makespan_s = float(makespan_s)
        self.decision_times_s = tuple(decision_times_s)
        self.round_times_s = tuple(round_times_s)
        self.delay_tolerance = float(delay_tolerance)
        self.trace_name = trace_name

    # -- totals ------------------------------------------------------------------------
    @property
    def num_jobs(self) -> int:
        return len(self.outcomes)

    @property
    def total_carbon_g(self) -> float:
        return float(sum(outcome.carbon_g for outcome in self.outcomes))

    @property
    def total_carbon_kg(self) -> float:
        return self.total_carbon_g / 1000.0

    @property
    def total_water_l(self) -> float:
        return float(sum(outcome.water_l for outcome in self.outcomes))

    @property
    def total_water_m3(self) -> float:
        return self.total_water_l / 1000.0

    # -- service time / violations ----------------------------------------------------------
    @property
    def mean_service_ratio(self) -> float:
        """Average service time normalized to execution time (paper Table 2)."""
        if not self.outcomes:
            return float("nan")
        return statistics.fmean(outcome.service_ratio for outcome in self.outcomes)

    @property
    def violation_fraction(self) -> float:
        """Fraction of jobs whose delay tolerance was violated (paper Table 2)."""
        if not self.outcomes:
            return 0.0
        violated = sum(1 for outcome in self.outcomes if outcome.violated_delay_tolerance)
        return violated / len(self.outcomes)

    @property
    def mean_queue_delay_s(self) -> float:
        if not self.outcomes:
            return 0.0
        return statistics.fmean(outcome.queue_delay for outcome in self.outcomes)

    @property
    def mean_transfer_latency_s(self) -> float:
        if not self.outcomes:
            return 0.0
        return statistics.fmean(outcome.transfer_latency for outcome in self.outcomes)

    @property
    def migration_fraction(self) -> float:
        """Fraction of jobs executed away from their home region."""
        if not self.outcomes:
            return 0.0
        return sum(1 for outcome in self.outcomes if outcome.migrated) / len(self.outcomes)

    # -- distribution / utilization -------------------------------------------------------------
    def jobs_per_region(self) -> dict[str, int]:
        """Number of jobs executed in each region (paper Fig. 3b)."""
        counts: dict[str, int] = {key: 0 for key in self.region_servers}
        for outcome in self.outcomes:
            counts[outcome.executed_region] = counts.get(outcome.executed_region, 0) + 1
        return counts

    def region_distribution(self) -> dict[str, float]:
        """Share of jobs executed in each region (sums to 1)."""
        counts = self.jobs_per_region()
        total = sum(counts.values())
        if total == 0:
            return {key: 0.0 for key in counts}
        return {key: value / total for key, value in counts.items()}

    @property
    def overall_utilization(self) -> float:
        """Server-weighted average utilization across regions."""
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

    # -- overhead ----------------------------------------------------------------------------------
    @property
    def total_decision_time_s(self) -> float:
        """Total wall-clock time spent inside the scheduling policy."""
        return float(sum(self.decision_times_s))

    @property
    def mean_decision_time_s(self) -> float:
        if not self.decision_times_s:
            return 0.0
        return statistics.fmean(self.decision_times_s)

    def decision_overhead_fraction(self) -> float:
        """Decision time as a fraction of the mean job execution time (Fig. 13)."""
        if not self.outcomes:
            return 0.0
        mean_exec = statistics.fmean(outcome.execution_time for outcome in self.outcomes)
        if mean_exec == 0.0:
            return 0.0
        return self.mean_decision_time_s / mean_exec

    # -- comparisons --------------------------------------------------------------------------------
    def carbon_savings_vs(self, baseline: "SimulationResult") -> float:
        """Percent carbon-footprint saving relative to ``baseline`` (higher is better)."""
        if baseline.total_carbon_g == 0.0:
            return 0.0
        return 100.0 * (1.0 - self.total_carbon_g / baseline.total_carbon_g)

    def water_savings_vs(self, baseline: "SimulationResult") -> float:
        """Percent water-footprint saving relative to ``baseline`` (higher is better)."""
        if baseline.total_water_l == 0.0:
            return 0.0
        return 100.0 * (1.0 - self.total_water_l / baseline.total_water_l)

    # -- reporting -----------------------------------------------------------------------------------
    def summary(self) -> dict[str, float | str | int]:
        """Flat summary dictionary for reports and benchmark output."""
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
            f"SimulationResult({self.scheduler_name!r}, jobs={self.num_jobs}, "
            f"carbon={self.total_carbon_kg:.2f} kg, water={self.total_water_m3:.2f} m3)"
        )


class StreamingQuantiles:
    """Vectorized streaming quantile estimates over a fixed log-spaced grid.

    Whole batches fold into a fixed histogram (``np.searchsorted`` +
    ``np.bincount``), so the update cost is one vectorized pass per batch
    instead of per-observation Python work.  Because bin counts are
    order-independent, the estimates are *exactly* invariant to chunking and
    flush batching, and the histogram pickles for checkpoint/resume.

    The grid spans ``[lo, hi]`` with geometrically spaced edges — with the
    default 8192 bins over [1e-3, 1e7] the relative resolution is ~0.3%,
    far inside the accuracy of any streaming estimate.  Values outside the
    grid clamp into the edge bins; the exact running min/max bound the
    returned estimates.  The exact order statistics are returned while fewer
    than ``exact_limit`` observations have been seen (small runs stay exact).
    """

    def __init__(
        self,
        quantiles: Sequence[float] = (0.5, 0.95, 0.99),
        lo: float = 1e-3,
        hi: float = 1e7,
        bins: int = 8192,
        exact_limit: int = 512,
    ) -> None:
        for q in quantiles:
            if not 0.0 < q < 1.0:
                raise ValueError(f"quantiles must be in (0, 1), got {q}")
        if not (0.0 < lo < hi):
            raise ValueError("need 0 < lo < hi")
        if bins < 2:
            raise ValueError("bins must be >= 2")
        self.qs = tuple(float(q) for q in quantiles)
        self._log_lo = float(np.log(lo))
        self._log_hi = float(np.log(hi))
        self._edges = np.exp(np.linspace(self._log_lo, self._log_hi, int(bins) + 1))
        self._counts = np.zeros(int(bins), dtype=np.int64)
        self._exact: list[float] | None = []
        self._exact_limit = int(exact_limit)
        self.count = 0
        self.min = np.inf
        self.max = -np.inf

    def _fold(self, values: np.ndarray) -> None:
        cells = np.clip(
            np.searchsorted(self._edges, values, side="right") - 1,
            0,
            len(self._counts) - 1,
        )
        self._counts += np.bincount(cells, minlength=len(self._counts))

    def add_many(self, values) -> None:
        values = np.asarray(values, dtype=float).ravel()
        if len(values) == 0:
            return
        self.count += len(values)
        self.min = min(self.min, float(values.min()))
        self.max = max(self.max, float(values.max()))
        if self._exact is not None:
            self._exact.extend(values.tolist())
            if len(self._exact) > self._exact_limit:
                self._fold(np.asarray(self._exact))
                self._exact = None
            return
        self._fold(values)

    def add(self, value: float) -> None:
        self.add_many(np.array([float(value)]))

    def value(self, q: float) -> float:
        """Estimate of quantile ``q`` (NaN before the first observation)."""
        if self.count == 0:
            return float("nan")
        if self._exact is not None:
            return float(np.quantile(np.asarray(self._exact), q))
        # Rank-based read: first bin whose cumulative count reaches the
        # target rank; the geometric bin midpoint is the estimate, clamped to
        # the exact observed range.
        target = q * (self.count - 1) + 1.0
        cumulative = np.cumsum(self._counts)
        cell = int(np.searchsorted(cumulative, target, side="left"))
        cell = min(cell, len(self._counts) - 1)
        estimate = float(np.sqrt(self._edges[cell] * self._edges[cell + 1]))
        return float(min(max(estimate, self.min), self.max))

    def values(self) -> dict[float, float]:
        """All configured quantile estimates, keyed by quantile."""
        return {q: self.value(q) for q in self.qs}


class ReservoirSample:
    """Uniform fixed-size sample over a stream of per-job rows (algorithm R).

    ``offer`` takes a dict of equal-length arrays; each row is kept with
    probability ``capacity / rows_seen``.  Seeded, so a given stream always
    produces the same sample, and picklable, so resume continues the same
    random sequence.
    """

    def __init__(self, capacity: int, seed: int = 0) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self.seen = 0
        self._rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x5E5E]))
        self._rows: dict[str, list] = {}

    def offer(self, rows: Mapping[str, np.ndarray]) -> None:
        names = sorted(rows)
        if not names:
            return
        n = len(rows[names[0]])
        if n == 0:
            return
        if not self._rows:
            self._rows = {name: [] for name in names}
        columns = {name: np.asarray(rows[name]) for name in names}
        start = 0
        # Fill phase: the first `capacity` rows are always kept.
        while len(self._rows[names[0]]) < self.capacity and start < n:
            for name in names:
                self._rows[name].append(columns[name][start])
            self.seen += 1
            start += 1
        if start >= n:
            return
        # Replacement phase, vectorized: row t (1-based count) replaces a
        # random slot when integers(0, t) < capacity.
        counts = self.seen + 1 + np.arange(n - start)
        draws = self._rng.integers(0, counts)
        hits = np.flatnonzero(draws < self.capacity)
        for i in hits.tolist():
            slot = int(draws[i])
            for name in names:
                self._rows[name][slot] = columns[name][start + i]
        self.seen += n - start

    def rows(self) -> dict[str, np.ndarray]:
        """The current sample as arrays (insertion/replacement order)."""
        return {name: np.asarray(values) for name, values in self._rows.items()}


class RunningJobStats:
    """Carry-over aggregation of finished jobs for the streaming engine.

    Folds chunks of finished-job columns into the same figures of merit
    :class:`SimulationResult` computes from its outcome list — totals, means,
    violation/migration fractions, per-region job counts — plus streaming
    service-ratio quantiles and an optional reservoir of per-job rows.
    Memory is O(regions + reservoir), independent of the number of jobs.

    Float totals accumulate in :class:`ExactSum`, so every figure is exactly
    invariant to chunking: the order in which finished jobs are flushed never
    moves a bit.
    """

    def __init__(
        self,
        n_regions: int,
        delay_tolerance: float,
        reservoir_size: int = 0,
        seed: int = 0,
        quantiles: Sequence[float] = (0.5, 0.95, 0.99),
    ) -> None:
        self.n_regions = int(n_regions)
        self.delay_tolerance = float(delay_tolerance)
        self.num_jobs = 0
        self._carbon_g = ExactSum()
        self._water_l = ExactSum()
        self._service_ratio_sum = ExactSum()
        self._queue_delay_sum = ExactSum()
        self._transfer_sum = ExactSum()
        self._execution_sum = ExactSum()
        self.violations = 0
        self.migrated = 0
        self.evictions = 0
        self.jobs_per_region = np.zeros(self.n_regions, dtype=np.int64)
        self.quantiles = StreamingQuantiles(quantiles)
        self.reservoir = (
            ReservoirSample(reservoir_size, seed=seed) if reservoir_size else None
        )

    # -- exact totals (floats, rounded once at read time) -------------------------------
    @property
    def carbon_g(self) -> float:
        return self._carbon_g.value()

    @property
    def water_l(self) -> float:
        return self._water_l.value()

    @property
    def service_ratio_sum(self) -> float:
        return self._service_ratio_sum.value()

    @property
    def queue_delay_sum(self) -> float:
        return self._queue_delay_sum.value()

    @property
    def transfer_sum(self) -> float:
        return self._transfer_sum.value()

    @property
    def execution_sum(self) -> float:
        return self._execution_sum.value()

    def add(
        self,
        *,
        region_idx: np.ndarray,
        home_idx: np.ndarray,
        considered: np.ndarray,
        ready: np.ndarray,
        start: np.ndarray,
        finish: np.ndarray,
        execution_time: np.ndarray,
        transfer_latency: np.ndarray,
        carbon_g: np.ndarray,
        water_l: np.ndarray,
        job_id: np.ndarray | None = None,
        evictions: np.ndarray | None = None,
    ) -> None:
        n = len(region_idx)
        if n == 0:
            return
        if evictions is not None:
            self.evictions += int(np.sum(evictions))
        service = finish - considered
        ratios = service / execution_time
        limit = (1.0 + self.delay_tolerance) * execution_time + 1e-9
        self.num_jobs += n
        self._carbon_g.add_array(carbon_g)
        self._water_l.add_array(water_l)
        self._service_ratio_sum.add_array(ratios)
        self._queue_delay_sum.add_array(np.maximum(0.0, start - ready))
        self._transfer_sum.add_array(transfer_latency)
        self._execution_sum.add_array(execution_time)
        self.violations += int(np.count_nonzero(service > limit))
        self.migrated += int(np.count_nonzero(region_idx != home_idx))
        self.jobs_per_region += np.bincount(region_idx, minlength=self.n_regions)
        self.quantiles.add_many(ratios)
        if self.reservoir is not None:
            self.reservoir.offer(
                {
                    "job_id": job_id if job_id is not None else np.zeros(n, dtype=np.int64),
                    "region_idx": region_idx,
                    "service_ratio": ratios,
                    "carbon_g": carbon_g,
                    "water_l": water_l,
                }
            )

    # -- derived figures ---------------------------------------------------------------
    @property
    def mean_service_ratio(self) -> float:
        return self.service_ratio_sum / self.num_jobs if self.num_jobs else float("nan")

    @property
    def violation_fraction(self) -> float:
        return self.violations / self.num_jobs if self.num_jobs else 0.0

    @property
    def migration_fraction(self) -> float:
        return self.migrated / self.num_jobs if self.num_jobs else 0.0

    @property
    def mean_queue_delay_s(self) -> float:
        return self.queue_delay_sum / self.num_jobs if self.num_jobs else 0.0

    @property
    def mean_transfer_latency_s(self) -> float:
        return self.transfer_sum / self.num_jobs if self.num_jobs else 0.0

    @property
    def mean_execution_time_s(self) -> float:
        return self.execution_sum / self.num_jobs if self.num_jobs else 0.0

    def service_ratio_quantiles(self) -> dict[float, float]:
        return self.quantiles.values()

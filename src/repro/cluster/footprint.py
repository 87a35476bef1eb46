"""Vectorized carbon/water footprint evaluation for scheduling decisions.

Every scheduling policy in this repository — WaterWise's MILP as well as the
greedy oracles — needs the same quantity: for a batch of M jobs and N
candidate regions, the carbon footprint ``CO2(m, n)`` and water footprint
``H2O(m, n)`` of running job *m* in region *n* right now (or at some future
time, for the oracles).  :class:`FootprintCalculator` builds those M×N
matrices in a handful of NumPy operations using the job *estimates* (what a
real scheduler would know) and the dataset's intensity values at the decision
time.

The simulator separately uses :meth:`FootprintCalculator.integrate_job` for
*accounting*: the realized footprint of a finished job, integrating the
region's hourly intensity series over the job's actual execution window.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cluster.metrics import ExactSum
from repro.sustainability.carbon import CarbonModel
from repro.sustainability.datasets import SustainabilityDataset
from repro.sustainability.embodied import DEFAULT_SERVER, ServerSpec
from repro.sustainability.water import WaterModel
from repro.traces.job import Job

__all__ = ["FootprintCalculator", "RunningFootprintTotals"]

_SECONDS_PER_HOUR = 3600.0


class RunningFootprintTotals:
    """Carry-over footprint accumulator for the streaming engine.

    The streaming engine integrates each chunk of *finished* jobs as it
    retires them (:meth:`FootprintCalculator.integrate_batch`, a prefix-sum
    kernel whose per-job values do not depend on the chunking); in aggregate
    mode it folds the results into this accumulator: per-region and overall
    totals survive across chunk boundaries while the per-job columns are
    released.  Picklable, so checkpoints carry it.

    Per-region sums accumulate in :class:`~repro.cluster.metrics.ExactSum`,
    so every total is exactly invariant to chunking.
    """

    def __init__(self, n_regions: int) -> None:
        self.n_regions = int(n_regions)
        self._carbon = [ExactSum() for _ in range(self.n_regions)]
        self._water = [ExactSum() for _ in range(self.n_regions)]
        self.jobs_integrated = 0

    def add(
        self, region_idx: np.ndarray, carbon_g: np.ndarray, water_l: np.ndarray
    ) -> None:
        region_idx = np.asarray(region_idx)
        carbon_g = np.asarray(carbon_g, dtype=float)
        water_l = np.asarray(water_l, dtype=float)
        for code in np.unique(region_idx).tolist():
            mask = region_idx == code
            self._carbon[code].add_array(carbon_g[mask])
            self._water[code].add_array(water_l[mask])
        self.jobs_integrated += len(region_idx)

    @property
    def carbon_g_per_region(self) -> np.ndarray:
        return np.array([s.value() for s in self._carbon])

    @property
    def water_l_per_region(self) -> np.ndarray:
        return np.array([s.value() for s in self._water])

    @property
    def total_carbon_g(self) -> float:
        total = ExactSum()
        for s in self._carbon:
            total.merge(s)
        return total.value()

    @property
    def total_water_l(self) -> float:
        total = ExactSum()
        for s in self._water:
            total.merge(s)
        return total.value()


class _RegionPrefixIntegrals:
    """Prefix-sum integrators over one region's hourly intensity series.

    For a piecewise-constant hourly series ``v[h]`` (clamped to the final
    hour beyond the horizon, like ``RegionSustainabilitySeries`` lookups),
    ``integral(t)`` is the exact running integral ``∫₀ᵗ v`` in value·seconds.
    Differences of two such integrals reproduce, hour segment by hour
    segment, what :meth:`FootprintCalculator.integrate_job` accumulates with
    a Python loop — but for whole job batches in a few NumPy operations.
    """

    def __init__(self, series) -> None:
        self.wsf = float(series.wsf)
        self.pue = float(series.pue)
        self._values = (
            np.asarray(series.carbon_intensity, dtype=float),
            np.asarray(series.ewif, dtype=float),
            np.asarray(series.wue, dtype=float),
        )
        self._cums = tuple(
            np.concatenate(([0.0], np.cumsum(v) * _SECONDS_PER_HOUR)) for v in self._values
        )

    def _integral(self, which: int, t: np.ndarray) -> np.ndarray:
        values = self._values[which]
        cum = self._cums[which]
        horizon = len(values)
        hour = np.minimum((t // _SECONDS_PER_HOUR).astype(np.int64), horizon)
        offset = t - _SECONDS_PER_HOUR * hour
        return cum[hour] + values[np.minimum(hour, horizon - 1)] * offset

    def carbon_integral(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        return self._integral(0, t1) - self._integral(0, t0)

    def ewif_integral(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        return self._integral(1, t1) - self._integral(1, t0)

    def wue_integral(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        return self._integral(2, t1) - self._integral(2, t0)


class FootprintCalculator:
    """Carbon/water footprints of jobs across regions.

    Parameters
    ----------
    dataset:
        Sustainability dataset providing per-region intensity series.
    server:
        Server model for embodied footprints.
    include_embodied:
        Whether embodied carbon/water are included (True for WaterWise,
        configurable for baselines and ablations).
    """

    def __init__(
        self,
        dataset: SustainabilityDataset,
        server: ServerSpec = DEFAULT_SERVER,
        include_embodied: bool = True,
    ) -> None:
        self.dataset = dataset
        self.server = server
        self.include_embodied = bool(include_embodied)
        self.carbon_model = CarbonModel(server=server, include_embodied=include_embodied)
        self.water_model = WaterModel(server=server, include_embodied=include_embodied)
        self._prefix_cache: dict[str, _RegionPrefixIntegrals] = {}

    # -- decision-time estimates ---------------------------------------------------
    def _region_factors(self, region_keys: Sequence[str], time_s: float):
        """Per-region (CI, EWIF, WUE, WSF, PUE) arrays at ``time_s``."""
        ci, ewif, wue, wsf, pue = [], [], [], [], []
        for key in region_keys:
            series = self.dataset.series_for(key)
            ci.append(series.carbon_intensity_at(time_s))
            ewif.append(series.ewif_at(time_s))
            wue.append(series.wue_at(time_s))
            wsf.append(series.wsf)
            pue.append(series.pue)
        return (np.array(ci), np.array(ewif), np.array(wue), np.array(wsf), np.array(pue))

    def carbon_matrix_arrays(
        self,
        energy_kwh: np.ndarray,
        execution_time_s: np.ndarray,
        region_keys: Sequence[str],
        time_s: float,
    ) -> np.ndarray:
        """Array-world :meth:`carbon_matrix`: per-job estimate columns in, M×N out.

        ``energy_kwh`` / ``execution_time_s`` are 1-D arrays of the
        scheduler-visible estimates (one entry per job).  All operations are
        elementwise, so the result is bit-identical to the ``Job``-based
        matrix — the vectorized scheduler fast paths rely on that.
        """
        energy = np.asarray(energy_kwh, dtype=float)
        exec_time = np.asarray(execution_time_s, dtype=float)
        if energy.size == 0 or not region_keys:
            return np.zeros((energy.size, len(region_keys)))
        ci = self._region_factors(region_keys, time_s)[0][None, :]
        return np.asarray(self.carbon_model.total(energy[:, None], ci, exec_time[:, None]))

    def water_matrix_arrays(
        self,
        energy_kwh: np.ndarray,
        execution_time_s: np.ndarray,
        region_keys: Sequence[str],
        time_s: float,
    ) -> np.ndarray:
        """Array-world :meth:`water_matrix` (see :meth:`carbon_matrix_arrays`)."""
        energy = np.asarray(energy_kwh, dtype=float)
        exec_time = np.asarray(execution_time_s, dtype=float)
        if energy.size == 0 or not region_keys:
            return np.zeros((energy.size, len(region_keys)))
        _, ewif, wue, wsf, pue = self._region_factors(region_keys, time_s)
        return np.asarray(
            self.water_model.total(
                energy[:, None], ewif[None, :], wue[None, :], wsf[None, :], pue[None, :],
                exec_time[:, None],
            )
        )

    def footprint_matrices_arrays(
        self,
        energy_kwh: np.ndarray,
        execution_time_s: np.ndarray,
        region_keys: Sequence[str],
        time_s: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Both array-world matrices in one call."""
        return (
            self.carbon_matrix_arrays(energy_kwh, execution_time_s, region_keys, time_s),
            self.water_matrix_arrays(energy_kwh, execution_time_s, region_keys, time_s),
        )

    def carbon_matrix(
        self, jobs: Sequence[Job], region_keys: Sequence[str], time_s: float
    ) -> np.ndarray:
        """Estimated carbon footprint (g) of each job in each region at ``time_s``.

        Shape ``(len(jobs), len(region_keys))``; uses the scheduler-visible
        estimates of energy and execution time.
        """
        if not jobs or not region_keys:
            return np.zeros((len(jobs), len(region_keys)))
        energy = np.array([job.energy_kwh for job in jobs])
        exec_time = np.array([job.execution_time for job in jobs])
        return self.carbon_matrix_arrays(energy, exec_time, region_keys, time_s)

    def water_matrix(
        self, jobs: Sequence[Job], region_keys: Sequence[str], time_s: float
    ) -> np.ndarray:
        """Estimated water footprint (L) of each job in each region at ``time_s``."""
        if not jobs or not region_keys:
            return np.zeros((len(jobs), len(region_keys)))
        energy = np.array([job.energy_kwh for job in jobs])
        exec_time = np.array([job.execution_time for job in jobs])
        return self.water_matrix_arrays(energy, exec_time, region_keys, time_s)

    def footprint_matrices(
        self, jobs: Sequence[Job], region_keys: Sequence[str], time_s: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Both matrices in one call (the common case for the MILP objective)."""
        return (
            self.carbon_matrix(jobs, region_keys, time_s),
            self.water_matrix(jobs, region_keys, time_s),
        )

    # -- accounting of realized executions --------------------------------------------
    def integrate_job(
        self, job: Job, region_key: str, start_time_s: float
    ) -> tuple[float, float]:
        """Realized (carbon_g, water_l) of running ``job`` in ``region_key``.

        The job's realized energy is spread uniformly over its realized
        execution window and integrated against the region's hourly intensity
        series, so a job spanning a carbon-intensity dip is charged less than
        one that runs entirely inside a peak.  Embodied footprints are added
        according to the calculator's configuration.
        """
        series = self.dataset.series_for(region_key)
        duration = job.realized_execution_time
        energy = job.realized_energy_kwh
        if duration <= 0.0:
            return 0.0, 0.0

        # Split the execution window at hour boundaries.
        start = start_time_s
        end = start_time_s + duration
        first_hour = int(start // _SECONDS_PER_HOUR)
        last_hour = int(np.ceil(end / _SECONDS_PER_HOUR))
        boundaries = np.arange(first_hour, last_hour + 1, dtype=float) * _SECONDS_PER_HOUR
        boundaries[0] = start
        boundaries[-1] = end
        segment_durations = np.diff(boundaries)
        if segment_durations.sum() <= 0.0:
            return 0.0, 0.0
        weights = segment_durations / duration
        segment_times = boundaries[:-1]

        ci = np.array([series.carbon_intensity_at(t) for t in segment_times])
        ewif = np.array([series.ewif_at(t) for t in segment_times])
        wue = np.array([series.wue_at(t) for t in segment_times])

        seg_energy = energy * weights
        carbon = float(np.sum(self.carbon_model.operational(seg_energy, ci)))
        water = float(
            np.sum(self.water_model.operational(seg_energy, ewif, wue, series.wsf, series.pue))
        )
        if self.include_embodied:
            carbon += self.carbon_model.embodied(duration)
            water += self.water_model.embodied(duration)
        return carbon, water

    def _prefix_integrals(self, region_key: str) -> _RegionPrefixIntegrals:
        cached = self._prefix_cache.get(region_key)
        if cached is None:
            cached = _RegionPrefixIntegrals(self.dataset.series_for(region_key))
            self._prefix_cache[region_key] = cached
        return cached

    def integrate_batch(
        self,
        region_keys: Sequence[str],
        region_idx: np.ndarray,
        start_time_s: np.ndarray,
        duration_s: np.ndarray,
        energy_kwh: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Realized (carbon_g, water_l) arrays for a whole batch of executions.

        The array counterpart of :meth:`integrate_job`: job ``i`` ran in
        region ``region_keys[region_idx[i]]`` from ``start_time_s[i]`` for
        ``duration_s[i]`` seconds consuming ``energy_kwh[i]`` kWh, its energy
        spread uniformly over the execution window and integrated against the
        region's hourly intensity series.  Uses cached per-region prefix sums,
        so the cost is a handful of NumPy gathers per region instead of a
        Python loop per job; results agree with :meth:`integrate_job` to
        floating-point rounding (≪ 1e-9 relative).
        """
        region_idx = np.asarray(region_idx)
        start = np.asarray(start_time_s, dtype=float)
        duration = np.asarray(duration_s, dtype=float)
        energy = np.asarray(energy_kwh, dtype=float)
        n = len(region_idx)
        carbon = np.zeros(n)
        water = np.zeros(n)
        if n == 0:
            return carbon, water

        end = start + duration
        for code, key in enumerate(region_keys):
            mask = region_idx == code
            if not np.any(mask):
                continue
            integrals = self._prefix_integrals(key)
            t0 = start[mask]
            t1 = end[mask]
            d = duration[mask]
            with np.errstate(divide="ignore", invalid="ignore"):
                mean_energy_rate = np.where(d > 0.0, energy[mask] / d, 0.0)
            carbon[mask] = mean_energy_rate * integrals.carbon_integral(t0, t1)
            scarcity = 1.0 + integrals.wsf
            water[mask] = mean_energy_rate * (
                integrals.pue * scarcity * integrals.ewif_integral(t0, t1)
                + scarcity * integrals.wue_integral(t0, t1)
            )

        if self.include_embodied:
            positive = duration > 0.0
            carbon[positive] += self.carbon_model.embodied(duration[positive])
            water[positive] += self.water_model.embodied(duration[positive])
        return carbon, water

    # -- per-region normalization helpers ------------------------------------------------
    def worst_case_footprints(
        self, jobs: Sequence[Job], region_keys: Sequence[str], time_s: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-job maxima across regions, used to normalize the MILP objective.

        Returns ``(CO2_max[m], H2O_max[m])`` — the paper's
        :math:`CO^{max}_{2,j}` and :math:`H_2O^{max}_j` (Eq. 7).
        """
        carbon, water = self.footprint_matrices(jobs, region_keys, time_s)
        if carbon.size == 0:
            return np.zeros(len(jobs)), np.zeros(len(jobs))
        return carbon.max(axis=1), water.max(axis=1)

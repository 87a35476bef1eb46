"""Optimization Decision Controller: solve the placement MILP for one round.

The controller implements the solve-side of the paper's Algorithm 1:

1. build and solve the hard-constraint MILP (Eq. 8–11);
2. if the solver reports infeasibility (or the caller requested it outright,
   as Algorithm 1 does when the slack manager had to shed load), rebuild with
   soft delay constraints (Eq. 12–13) and solve again;
3. if even the soft problem cannot be solved — which only happens when the
   MILP backend errors out — fall back to a deterministic greedy assignment
   that respects capacity, so a scheduling round never returns nothing.

The controller records which path produced each decision; the evaluation uses
that to report how often constraints had to be softened.

:meth:`DecisionController.decide` (the scalar engine's entry point) gathers
the round's cost, latency-ratio and tolerance matrices from ``Job`` objects
and hands them to
:meth:`DecisionController.decide_arrays` — the entry point the batch engines'
fast path calls directly — which builds the MILP with
:func:`repro.core.objective.build_placement_form` and solves it through
:func:`repro.milp.structure.solve_standard_form`.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import numpy as np

from repro.cluster.interface import SchedulingContext
from repro.core.config import WaterWiseConfig
from repro.core.history import HistoryLearner
from repro.core.objective import build_placement_form, placement_cost
from repro.milp.session import SolverSession
from repro.milp.structure import solve_standard_form
from repro.traces.job import Job

__all__ = ["ControllerResult", "DecisionController"]


def _transfer_matrix(
    jobs: Sequence[Job],
    region_keys: tuple[str, ...],
    context: SchedulingContext,
) -> tuple[np.ndarray, np.ndarray]:
    """(M × N) transfer latencies + home-region codes for :meth:`decide`.

    For the standard :class:`~repro.regions.latency.TransferLatencyModel`
    (with every home region inside the simulated cluster) the matrix is
    assembled from the cached propagation term plus the per-job serialization
    term — the same decomposition
    :func:`repro.schedulers.vectorized.batch_transfer_matrix` uses, which
    reproduces ``context.transfer_time`` bit for bit.  Latency subclasses,
    duck-typed models and out-of-cluster homes fall back to per-pair
    ``context.transfer_time`` calls.

    Home codes are resolved against ``region_keys`` with ``0`` for homes
    outside the cluster — the code the greedy fallback's
    "``region_keys[0]`` when the home is unknown" rule expects.
    """
    from repro.regions.latency import TransferLatencyModel

    m = len(jobs)
    code_of = {key: idx for idx, key in enumerate(region_keys)}
    home_idx = np.fromiter(
        (code_of.get(job.home_region, -1) for job in jobs), dtype=np.int64, count=m
    )
    latency = context.latency
    if type(latency) is TransferLatencyModel and not np.any(home_idx < 0):
        from repro.schedulers.vectorized import _propagation_for  # lazy: import cycle

        propagation = _propagation_for(latency, region_keys)
        package = np.fromiter((j.package_gb for j in jobs), dtype=float, count=m)
        serialization = package * 8.0 / latency.bandwidth_gbps
        transfer = serialization[:, None] + propagation[home_idx]
        transfer[np.arange(m), home_idx] = 0.0
        return transfer, home_idx
    transfer = np.array(
        [[context.transfer_time(job, region) for region in region_keys] for job in jobs]
    )
    return transfer, np.maximum(home_idx, 0)


@dataclasses.dataclass(frozen=True)
class ControllerResult:
    """Assignments produced by the decision controller for one round."""

    assignments: dict[int, str]
    used_soft_constraints: bool
    used_fallback: bool
    #: MILP objective of the solved round; ``None`` for an empty batch or
    #: the greedy fallback.
    objective: float | None = None

    @property
    def objective_value(self) -> float:
        return float("nan") if self.objective is None else float(self.objective)


class DecisionController:
    """Builds and solves the WaterWise placement MILP."""

    def __init__(self, config: WaterWiseConfig | None = None) -> None:
        self.config = config if config is not None else WaterWiseConfig()
        # Round counters exposed for diagnostics / the evaluation.
        self.rounds_solved = 0
        self.rounds_softened = 0
        self.rounds_fallback = 0
        #: Warm-start bases and solver statistics, threaded through every
        #: solve this controller issues, so consecutive scheduling rounds
        #: reuse each other's bases regardless of engine.
        self.session = SolverSession()

    def reset(self) -> None:
        self.rounds_solved = 0
        self.rounds_softened = 0
        self.rounds_fallback = 0
        self.session.reset()

    # -- main entry point -----------------------------------------------------------------
    def decide(
        self,
        jobs: Sequence[Job],
        context: SchedulingContext,
        history: HistoryLearner | None = None,
        force_soft: bool = False,
        extra_cost=None,
    ) -> ControllerResult:
        """Choose a region for every job in ``jobs``.

        ``force_soft`` skips the hard-constraint attempt (Algorithm 1 uses the
        soft controller directly when the slack manager had to shed load).
        ``extra_cost`` is an optional pre-weighted (M × N) additive objective
        term forwarded to the MILP objective (extension hook).

        The round's footprint, cost, latency-ratio and tolerance matrices
        are computed with the same whole-batch operations the batch fast
        path uses (:mod:`repro.core.fastpath`), on the same floats, and the
        MILP is solved through :meth:`decide_arrays`.
        """
        if not jobs:
            return ControllerResult(
                assignments={}, used_soft_constraints=False, used_fallback=False,
            )
        jobs = tuple(jobs)
        region_keys = tuple(context.region_keys)
        if history is not None and self.config.use_history:
            co2_ref, h2o_ref = history.reference(region_keys)
        else:
            co2_ref = h2o_ref = None

        m = len(jobs)
        energy = np.fromiter((j.energy_kwh for j in jobs), dtype=float, count=m)
        exec_times = np.fromiter((j.execution_time for j in jobs), dtype=float, count=m)
        servers = np.fromiter((j.servers_required for j in jobs), dtype=np.int64, count=m)

        carbon, water = context.footprints.footprint_matrices_arrays(
            energy, exec_times, region_keys, context.now
        )
        cost = placement_cost(
            carbon, water, self.config, co2_ref=co2_ref, h2o_ref=h2o_ref,
            extra_cost=extra_cost,
        )

        transfer, home_idx = _transfer_matrix(jobs, region_keys, context)
        latency_ratio = transfer / exec_times[:, None]
        waited = np.fromiter(
            (context.wait_time(j) for j in jobs), dtype=float, count=m
        )
        tolerance = np.maximum(0.0, context.delay_tolerance - waited / exec_times)
        capacity = np.fromiter(
            (int(context.capacity.get(key, 0)) for key in region_keys),
            dtype=np.int64,
            count=len(region_keys),
        )

        codes, used_soft, used_fallback, objective = self.decide_arrays(
            cost, latency_ratio, tolerance, servers, capacity, home_idx,
            force_soft=force_soft,
        )
        assignments = {
            job.job_id: region_keys[code]
            for job, code in zip(jobs, codes.tolist())
        }
        return ControllerResult(
            assignments=assignments,
            used_soft_constraints=used_soft,
            used_fallback=used_fallback,
            objective=objective,
        )

    # -- matrix entry point (decide and the batch engine fast path) ---------------------
    def decide_arrays(
        self,
        cost: np.ndarray,
        latency_ratio: np.ndarray,
        tolerance: np.ndarray,
        servers_required: np.ndarray,
        capacity: np.ndarray,
        home_idx: np.ndarray,
        force_soft: bool = False,
    ) -> tuple[np.ndarray, bool, bool, float | None]:
        """Run the hard → soft → greedy-fallback ladder on one round's matrices.

        Takes the already-computed placement matrices (cost, latency ratio,
        remaining tolerance — see :func:`repro.core.objective.placement_cost`)
        instead of ``Job`` objects, builds the MILP with
        :func:`~repro.core.objective.build_placement_form` and solves it
        through :func:`~repro.milp.structure.solve_standard_form`, updating the
        round counters.  Returns ``(region codes in job order,
        used_soft_constraints, used_fallback, objective)``; the objective is
        ``None`` when the greedy fallback placed the round.
        """
        m_jobs, n_regions = cost.shape
        attempts: list[bool] = []
        if not force_soft:
            attempts.append(False)
        if self.config.use_soft_constraints or not attempts:
            attempts.append(True)

        for soft in attempts:
            if soft and not self.config.use_soft_constraints and not force_soft:
                continue
            form = build_placement_form(
                cost, latency_ratio, tolerance, servers_required, capacity,
                self.config, soft=soft,
            )
            status, x, objective, _iterations, _nodes, _seconds = solve_standard_form(
                form, session=self.session
            )
            if status.is_success:
                self.rounds_solved += 1
                if soft:
                    self.rounds_softened += 1
                return (
                    self._assignments_from_x(x, m_jobs, n_regions),
                    soft,
                    False,
                    float(objective),
                )

        self.rounds_fallback += 1
        return (
            self._greedy_assignment(cost, servers_required, capacity, home_idx),
            True,
            True,
            None,
        )

    @staticmethod
    def _assignments_from_x(x: np.ndarray, m_jobs: int, n_regions: int) -> np.ndarray:
        """Region code per job from a solved variable vector.

        The first region whose (snapped) placement binary exceeds 0.5 wins.
        """
        placements = x[: m_jobs * n_regions].reshape(m_jobs, n_regions)
        chosen = np.argmax(placements, axis=1)
        if np.any(placements[np.arange(m_jobs), chosen] <= 0.5):
            raise ValueError("no region selected for a job in the MILP solution")
        return chosen.astype(np.int64)

    @staticmethod
    def _greedy_assignment(
        cost: np.ndarray,
        servers_required: np.ndarray,
        capacity: np.ndarray,
        home_idx: np.ndarray,
    ) -> np.ndarray:
        """Deterministic cost-greedy assignment respecting remaining capacity.

        Each job, in order, takes its cheapest region that still has room
        for it, or its home region when none has.
        """
        m_jobs = cost.shape[0]
        remaining = [int(v) for v in capacity]
        assignments = np.empty(m_jobs, dtype=np.int64)
        for m in range(m_jobs):
            servers = int(servers_required[m])
            order = np.argsort(cost[m])
            chosen = -1
            for idx in order:
                idx = int(idx)
                if remaining[idx] >= servers:
                    chosen = idx
                    break
            if chosen < 0:
                chosen = int(home_idx[m])
            assignments[m] = chosen
            remaining[chosen] -= servers
        return assignments

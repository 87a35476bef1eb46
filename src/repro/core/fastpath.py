"""Vectorized fast path for the WaterWise core policy (paper Algorithm 1).

The scalar :class:`~repro.core.waterwise.WaterWiseScheduler` reads every
round's inputs from ``Job`` objects and a
:class:`~repro.cluster.interface.SchedulingContext`.  This fast path keeps
the *same* algorithm — history learner, slack manager, hard → soft → greedy
decision ladder — but reads the batch engine's job columns directly:

* the cost matrix comes from
  :meth:`~repro.cluster.footprint.FootprintCalculator.footprint_matrices_arrays`
  and :func:`~repro.core.objective.placement_cost` — the same formula the
  scalar path uses, on the same floats;
* transfer latencies come from
  :func:`~repro.schedulers.vectorized.batch_transfer_matrix`, which
  reproduces ``context.transfer_time`` bit-for-bit;
* the MILP is built by :func:`~repro.core.objective.build_placement_form`
  and solved through :func:`~repro.milp.structure.solve_standard_form` via
  :meth:`~repro.core.decision.DecisionController.decide_arrays` — the
  entry point the scalar controller's ``decide`` also ends in.

Because the slack manager hands jobs to the controller in urgency order, the
fast path returns ``(choice, commit_order)`` so the batch engine commits
placements in exactly the order the scalar engine would — commit order
decides FIFO tie-breaking in saturated data centers.

The registrations are ``exact=True``: WaterWise subclasses customize
decisions through hooks other than ``schedule`` (e.g.
:class:`~repro.core.cost.CostAwareWaterWiseScheduler` overrides
``_extra_cost``), which the registry's overridden-``schedule`` guard cannot
see, so a subclass only rides this fast path when it registers *its own*
exact entry after mirroring its hooks in the array world — the cost-aware
scheduler does exactly that (``_extra_cost_arrays`` + a registration at the
bottom of :mod:`repro.core.cost`); any further subclass falls back to the
scalar path until it does the same.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.batch import DEFER, BatchSchedulingContext
from repro.core.objective import placement_cost
from repro.core.slack import admit_ranked, cached_average_from
from repro.core.waterwise import WaterWiseScheduler, record_round_intensities
from repro.schedulers.vectorized import batch_transfer_matrix, register_fast_path

__all__ = ["waterwise_fast_path"]


def _slack_selection(
    scheduler: WaterWiseScheduler,
    context: BatchSchedulingContext,
    batch: np.ndarray,
    capacity_slots: int,
) -> np.ndarray:
    """Batch positions the slack manager keeps, in urgency (Eq. 14) order.

    Mirrors :meth:`repro.core.slack.SlackManager.select`: jobs ranked by
    ascending ``TOL% · t_m − L_avg_m − waited_m`` (job id breaking ties),
    then greedily admitted through the shared
    :func:`repro.core.slack.admit_ranked` core while their server demand
    fits.  ``average_from`` is evaluated once per distinct
    ``(home, package)`` pair, so the scores are bit-identical to the scalar
    manager's.
    """
    jobs = context.jobs
    keys = context.region_keys
    home = jobs.home_idx[batch].tolist()
    package = jobs.package_gb[batch].tolist()
    job_ids = jobs.job_id[batch]
    allowance = context.delay_tolerance * jobs.exec_est[batch]
    latency = context.latency

    average = np.fromiter(
        (cached_average_from(latency, keys[h], p) for h, p in zip(home, package)),
        dtype=float,
        count=len(batch),
    )
    scores = allowance - average - context.wait_times

    ranked = np.lexsort((job_ids, scores)).tolist()
    servers_ranked = jobs.servers[batch][ranked].tolist()
    selected, _deferred = admit_ranked(ranked, servers_ranked, capacity_slots)
    return np.array(selected, dtype=np.int64)


def waterwise_fast_path(
    scheduler: WaterWiseScheduler, context: BatchSchedulingContext
) -> tuple[np.ndarray, np.ndarray]:
    """One WaterWise scheduling round over arrays; see the module docstring."""
    config = scheduler.config
    keys = context.region_keys
    if config.use_history:
        record_round_intensities(scheduler.history, keys, context.dataset, context.now)

    batch = context.batch
    m = len(batch)
    choice = np.full(m, DEFER, dtype=np.int64)
    no_commits = np.empty(0, dtype=np.int64)
    if m == 0:
        return choice, no_commits

    jobs = context.jobs
    servers_required = jobs.servers[batch]
    total_capacity = int(context.capacity.sum())
    if total_capacity <= 0:
        # Nothing can start this round anywhere; wait for capacity.
        return choice, no_commits

    selected = np.arange(m, dtype=np.int64)
    force_soft = False
    if int(servers_required.sum()) > total_capacity and config.use_slack_manager:
        selected = _slack_selection(scheduler, context, batch, total_capacity)
        force_soft = config.use_soft_constraints
        scheduler.overload_rounds += 1
        if selected.size == 0:
            return choice, no_commits

    selected_jobs = batch[selected]
    energy = jobs.energy_est[selected_jobs]
    exec_est = jobs.exec_est[selected_jobs]
    carbon, water = context.footprints.footprint_matrices_arrays(
        energy, exec_est, keys, context.now
    )
    if config.use_history:
        co2_ref, h2o_ref = scheduler.history.reference(keys)
    else:
        co2_ref = h2o_ref = None
    extra_cost = scheduler._extra_cost_arrays(context, selected_jobs)
    cost = placement_cost(
        carbon, water, config, co2_ref=co2_ref, h2o_ref=h2o_ref, extra_cost=extra_cost
    )

    transfer = batch_transfer_matrix(context, selected_jobs)
    latency_ratio = transfer / exec_est[:, None]
    waited_ratio = context.wait_times[selected] / exec_est
    tolerance = np.maximum(0.0, context.delay_tolerance - waited_ratio)

    regions, used_soft, _used_fallback, _objective = scheduler.controller.decide_arrays(
        cost,
        latency_ratio,
        tolerance,
        servers_required[selected],
        context.capacity,
        jobs.home_idx[selected_jobs],
        force_soft=force_soft,
    )
    if used_soft:
        scheduler.soft_rounds += 1
    choice[selected] = regions
    # Commit in controller (urgency-ranked) order, like the scalar engine.
    return choice, selected


register_fast_path(WaterWiseScheduler, waterwise_fast_path, exact=True)

"""Registry-dispatched vectorized fast paths for scheduling policies.

The array engine (:class:`~repro.cluster.streaming.StreamingSimulator`, and
with it its one-shot front :class:`~repro.cluster.streaming.BatchSimulator`)
asks this registry for an array-world implementation of the policy under
test.  A fast path receives a
:class:`~repro.cluster.batch.BatchSchedulingContext` and returns one region
code per batch job (``DEFER`` postpones the job to the next round) — no
per-job ``Job`` objects, no assignment dictionaries.  A fast path may
instead return a ``(choice, commit_order)`` tuple, where
``commit_order`` lists the batch positions of the *assigned* jobs in the
order their placements must be committed; this matters when the mirrored
scalar policy hands out assignments in an order different from the batch
order (e.g. WaterWise's slack manager ranks jobs by urgency), because commit
order decides FIFO tie-breaking in saturated queues.

Policies without a registered fast path automatically fall back to their
scalar :meth:`~repro.cluster.interface.Scheduler.schedule` method: the array
engine rebuilds the round's ``Job`` objects from its columns (they carry no
:attr:`~repro.traces.job.Job.metadata`), builds the classic
:class:`~repro.cluster.interface.SchedulingContext` and validates the decision
exactly like the scalar simulator, so *any* custom policy runs unchanged
(just without the fast-path speedup for its decision step).

Every registered fast path must be decision-equivalent to the scalar
``schedule`` implementation of its policy — the registry-wide differential
harness (``tests/integration/test_differential.py``) enforces this for every
scheduler in :func:`repro.schedulers.registry.available_schedulers` across
every scenario family.
"""

from __future__ import annotations

import weakref
from collections.abc import Callable

import numpy as np

from repro.cluster.batch import DEFER, BatchSchedulingContext
from repro.cluster.interface import Scheduler
from repro.regions.latency import TransferLatencyModel
from repro.schedulers.baseline import BaselineScheduler
from repro.schedulers.ecovisor import EcovisorLikeScheduler, trailing_carbon_average
from repro.schedulers.greedy_optimal import GreedyOptimalScheduler
from repro.schedulers.least_load import LeastLoadScheduler
from repro.schedulers.round_robin import RoundRobinScheduler

__all__ = [
    "FastPath",
    "register_fast_path",
    "unregister_fast_path",
    "fast_path_for",
    "has_fast_path",
    "batch_transfer_matrix",
]

#: A vectorized policy implementation: ``(scheduler, context) -> region codes``
#: (one ``int64`` per batch job, ``DEFER`` = postpone to the next round), or
#: ``(region codes, commit_order)`` when commit order differs from batch order.
FastPath = Callable[[Scheduler, BatchSchedulingContext], np.ndarray]

#: Registered fast paths: scheduler class -> (fast path, exact-match only).
_FAST_PATHS: dict[type, tuple[FastPath, bool]] = {}


def register_fast_path(
    scheduler_type: type, fast_path: FastPath, exact: bool = False
) -> None:
    """Register ``fast_path`` as the vectorized implementation of a policy class.

    Dispatch follows the method-resolution order, so registering for a base
    class covers subclasses unless they register their own implementation.

    ``exact=True`` restricts the registration to the class itself: subclasses
    never inherit it and always fall back to the scalar path.  Use it for
    policies whose decisions flow through overridable hooks *other than*
    ``schedule`` (e.g. WaterWise's ``_extra_cost``) — the MRO guard below only
    detects overridden ``schedule`` methods, so a template-method subclass
    would otherwise silently inherit a fast path that mirrors the wrong
    decision logic.
    """
    if not isinstance(scheduler_type, type) or not issubclass(scheduler_type, Scheduler):
        raise TypeError("scheduler_type must be a Scheduler subclass")
    _FAST_PATHS[scheduler_type] = (fast_path, bool(exact))


def unregister_fast_path(scheduler_type: type) -> None:
    """Remove a previously registered fast path (no-op if absent)."""
    _FAST_PATHS.pop(scheduler_type, None)


def fast_path_for(scheduler: Scheduler) -> FastPath | None:
    """The vectorized implementation for ``scheduler``, or ``None`` (→ fallback).

    Resolution walks the MRO and stops at the *first* class with a
    registration; an explicit ``None`` fallback — never a more distant
    ancestor's fast path — is the result whenever that registration does not
    apply:

    * the registration is ``exact`` and ``scheduler`` is a subclass, or
    * the subclass overrides ``schedule`` without registering its own fast
      path — it has changed the decision logic the ancestor's fast path
      mirrors, so silently reusing the ancestor's vectorized decisions would
      break the scalar/batch equivalence guarantee.
    """
    scheduler_type = type(scheduler)
    for cls in scheduler_type.__mro__:
        entry = _FAST_PATHS.get(cls)
        if entry is None:
            continue
        fast_path, exact = entry
        if cls is scheduler_type:
            return fast_path
        if exact:
            return None
        if scheduler_type.schedule is cls.schedule:
            return fast_path
        return None
    return None


def has_fast_path(scheduler: Scheduler) -> bool:
    """Whether ``scheduler`` dispatches to a vectorized fast path."""
    return fast_path_for(scheduler) is not None


# -- shared helpers ------------------------------------------------------------------

#: Per-latency-model cache of propagation matrices, keyed by region order.
#: The matrix is time-invariant (distances and per-km rates are fixed at
#: model construction), but fast paths run once per scheduling round — without
#: the cache every round would redo K² Python ``transfer_time`` calls.
_PROPAGATION_CACHE: "weakref.WeakKeyDictionary[TransferLatencyModel, dict]" = (
    weakref.WeakKeyDictionary()
)


def _propagation_for(latency: TransferLatencyModel, keys: tuple[str, ...]) -> np.ndarray:
    per_model = _PROPAGATION_CACHE.get(latency)
    if per_model is None:
        per_model = {}
        _PROPAGATION_CACHE[latency] = per_model
    matrix = per_model.get(keys)
    if matrix is None:
        matrix = latency.propagation_seconds(keys)
        per_model[keys] = matrix
    return matrix


def batch_transfer_matrix(
    context: BatchSchedulingContext, batch: np.ndarray | None = None
) -> np.ndarray:
    """Per-(job, region) transfer latencies for ``batch`` (default: the round's).

    Mirrors ``context.transfer_time(job, key)`` of the scalar world exactly:
    for the standard :class:`~repro.regions.latency.TransferLatencyModel` the
    matrix is assembled from the per-pair propagation term plus the per-job
    serialization term (their sum reproduces ``transfer_time`` bit-for-bit,
    with same-region transfers pinned to ``0.0``); latency subclasses and
    duck-typed models get a per-job ``transfer_time`` call instead.
    """
    jobs = context.jobs
    if batch is None:
        batch = context.batch
    keys = context.region_keys
    latency = context.latency
    home = jobs.home_idx[batch]
    package = jobs.package_gb[batch]
    m = len(batch)
    if type(latency) is TransferLatencyModel:
        propagation = _propagation_for(latency, tuple(keys))
        serialization = package * 8.0 / latency.bandwidth_gbps
        transfer = serialization[:, None] + propagation[home]
        transfer[np.arange(m), home] = 0.0
        return transfer
    transfer = np.empty((m, len(keys)))
    for i in range(m):
        source = keys[home[i]]
        package_gb = float(package[i])
        for j, destination in enumerate(keys):
            transfer[i, j] = latency.transfer_time(source, destination, package_gb)
    return transfer


# -- built-in fast paths -------------------------------------------------------------


def _baseline_fast_path(
    scheduler: BaselineScheduler, context: BatchSchedulingContext
) -> np.ndarray:
    """Home region for every job (home codes are pre-validated by JobArrays)."""
    return context.jobs.home_idx[context.batch]


def _round_robin_fast_path(
    scheduler: RoundRobinScheduler, context: BatchSchedulingContext
) -> np.ndarray:
    """Circular assignment; advances the scheduler's persistent cursor."""
    n_regions = len(context.region_keys)
    if n_regions == 0:
        raise ValueError("round-robin needs at least one region")
    count = context.batch_size
    choice = (scheduler._cursor + np.arange(count, dtype=np.int64)) % n_regions
    scheduler._cursor += count
    return choice


def _least_load_fast_path(
    scheduler: LeastLoadScheduler, context: BatchSchedulingContext
) -> np.ndarray:
    """Each job to the emptiest region, updating the view as the batch lands.

    The argmax loop is sequential by definition (job *i+1* sees job *i*'s
    placement), but it runs over a dense float vector; ``np.argmax`` breaks
    ties on the first maximum, matching the scalar implementation's
    smallest-region-index tie-break.
    """
    if not context.region_keys:
        raise ValueError("least-load needs at least one region")
    remaining = context.capacity.astype(float).copy()
    servers = context.jobs.servers[context.batch]
    choice = np.empty(context.batch_size, dtype=np.int64)
    for i in range(context.batch_size):
        target = int(np.argmax(remaining))
        choice[i] = target
        remaining[target] -= servers[i]
    return choice


def _ecovisor_fast_path(
    scheduler: EcovisorLikeScheduler, context: BatchSchedulingContext
) -> np.ndarray:
    """Home placement with temporal shifting, one signal evaluation per region.

    The scalar policy re-derives the home region's carbon signal per job;
    here the current intensity and the trailing average are computed once per
    region (via the same :func:`~repro.schedulers.ecovisor.trailing_carbon_average`
    the scalar path uses) and the defer/release decision is a single
    vectorized comparison over the batch.
    """
    keys = context.region_keys
    now = context.now
    high = np.empty(len(keys), dtype=bool)
    for idx, key in enumerate(keys):
        series = context.dataset.series_for(key)
        current_ci = series.carbon_intensity_at(now)
        trailing = trailing_carbon_average(series, now, scheduler.trailing_window_h)
        high[idx] = current_ci > scheduler.high_carbon_threshold * trailing
    batch = context.batch
    home = context.jobs.home_idx[batch]
    allowance = context.delay_tolerance * context.jobs.exec_est[batch]
    can_wait = context.wait_times + context.scheduling_interval_s <= allowance + 1e-9
    return np.where(high[home] & can_wait, DEFER, home)


def _greedy_optimal_fast_path(
    scheduler: GreedyOptimalScheduler, context: BatchSchedulingContext
) -> np.ndarray:
    """Oracle lookahead with the footprint matrices hoisted out of the job loop.

    The scalar oracle rebuilds a 1×N footprint matrix per job per candidate
    delay; here one M×N matrix per candidate delay is computed lazily for the
    whole batch (plus the batch transfer matrix), leaving only the scalar
    implementation's scan-and-tie-break logic — replicated comparison for
    comparison, including its ``1e-12`` improvement threshold and capacity
    fallback ``argsort`` — in the per-job loop.
    """
    keys = context.region_keys
    n_regions = len(keys)
    if n_regions == 0:
        raise ValueError("greedy-optimal needs at least one region")
    jobs = context.jobs
    batch = context.batch
    m = len(batch)
    energy = jobs.energy_est[batch]
    exec_est = jobs.exec_est[batch]
    home = jobs.home_idx[batch]
    servers_req = jobs.servers[batch]
    interval = context.scheduling_interval_s
    transfers = batch_transfer_matrix(context)
    # Remaining delay the tolerance still allows with a free transfer
    # (the scalar `_max_extra_delay(job, context, 0.0)`).
    slack = context.delay_tolerance * exec_est - context.wait_times

    footprints = context.footprints
    if scheduler.objective == "carbon":
        matrix_at = footprints.carbon_matrix_arrays
    else:
        matrix_at = footprints.water_matrix_arrays
    matrices: dict[int, np.ndarray] = {}

    def footprint_matrix(delay_rounds: int) -> np.ndarray:
        matrix = matrices.get(delay_rounds)
        if matrix is None:
            start_time = context.now + delay_rounds * interval
            matrix = matrix_at(energy, exec_est, keys, start_time)
            matrices[delay_rounds] = matrix
        return matrix

    remaining = [int(v) for v in context.capacity]
    max_rounds = scheduler.max_lookahead_rounds
    choice = np.empty(m, dtype=np.int64)
    for pos in range(m):
        transfer_row = transfers[pos]
        job_slack = slack[pos]
        best_value = np.inf
        best_region = -1
        best_delay = 0
        for delay_rounds in range(max_rounds + 1):
            if delay_rounds > 0 and delay_rounds * interval > job_slack + 1e-9:
                break  # any further delay violates the tolerance in every region
            row = footprint_matrix(delay_rounds)[pos]
            extra_wait = delay_rounds * interval
            for idx in range(n_regions):
                if extra_wait + transfer_row[idx] > job_slack + 1e-9:
                    continue  # starting there/then would violate the tolerance
                if row[idx] < best_value - 1e-12:
                    best_value = row[idx]
                    best_region = idx
                    best_delay = delay_rounds
            if delay_rounds == 0 and best_region < 0:
                # Even immediate execution violates the tolerance everywhere;
                # fall back to the home region now (damage control).
                best_region = int(home[pos])
                best_delay = 0
                break
        if best_region < 0:
            best_region = int(home[pos])
            best_delay = 0

        can_defer = best_delay > 0 and interval <= job_slack - float(
            np.min(transfer_row)
        ) + 1e-9
        if can_defer:
            choice[pos] = DEFER
            continue

        # Start now: take the best region among those with remaining capacity.
        servers = int(servers_req[pos])
        if remaining[best_region] < servers:
            row = footprint_matrix(0)[pos]
            order = np.argsort(row)
            chosen = -1
            for idx in order:
                idx = int(idx)
                if remaining[idx] >= servers and transfer_row[idx] <= job_slack + 1e-9:
                    chosen = idx
                    break
            if chosen < 0:
                # No capacity anywhere: defer if tolerable, otherwise send home.
                if interval <= job_slack + 1e-9:
                    choice[pos] = DEFER
                    continue
                chosen = int(home[pos])
            best_region = chosen
        choice[pos] = best_region
        remaining[best_region] -= servers
    return choice


register_fast_path(BaselineScheduler, _baseline_fast_path)
register_fast_path(RoundRobinScheduler, _round_robin_fast_path)
register_fast_path(LeastLoadScheduler, _least_load_fast_path)
register_fast_path(EcovisorLikeScheduler, _ecovisor_fast_path)
register_fast_path(GreedyOptimalScheduler, _greedy_optimal_fast_path)

"""Slack manager: job prioritization when demand exceeds capacity (Eq. 14).

The MILP is stateless across rounds: it does not know which jobs have already
been waiting and are close to violating their delay tolerance.  When the
batch is larger than the total remaining capacity, WaterWise ranks jobs by an
urgency (slack) score and only hands the most urgent ones to the decision
controller this round; the rest are deferred to the next round (Algorithm 1).

The paper's Eq. 14 combines three terms: the job's total delay allowance
``TOL% · t_m``, the average transfer latency to the other regions
``L_avg_m`` and the time the job has already been waiting.  A job whose
remaining allowance is small — because its execution time is short, transfers
are expensive or it has waited for a long time — has little slack left and is
scheduled first.
"""

from __future__ import annotations

import dataclasses
import weakref
from collections.abc import Sequence

import numpy as np

from repro.cluster.interface import SchedulingContext
from repro.traces.job import Job

__all__ = ["SlackManager", "SlackSelection", "admit_ranked", "cached_average_from"]

#: Per-latency-model memo of ``average_from`` results, keyed by
#: ``(source, package_gb)``.  The model's distances and rates are fixed at
#: construction, and traces draw packages from a handful of workload
#: profiles, so urgency scoring collapses to dictionary hits.  Bounded per
#: model.
_AVERAGE_CACHE: "weakref.WeakKeyDictionary[object, dict]" = weakref.WeakKeyDictionary()
_AVERAGE_CACHE_LIMIT = 8192


def cached_average_from(latency, source: str, package_gb: float) -> float:
    """Memoized ``latency.average_from(source, package_gb)`` (same floats)."""
    per_model = _AVERAGE_CACHE.get(latency)
    if per_model is None:
        per_model = {}
        _AVERAGE_CACHE[latency] = per_model
    key = (source, package_gb)
    value = per_model.get(key)
    if value is None:
        value = latency.average_from(source, package_gb)
        if len(per_model) < _AVERAGE_CACHE_LIMIT:
            per_model[key] = value
    return value


def admit_ranked(
    ranked: Sequence[int], servers: Sequence[int], capacity_slots: int
) -> tuple[list[int], list[int]]:
    """Greedy admission over urgency-ranked positions (shared Eq. 14 core).

    ``ranked`` lists batch positions most-urgent-first and ``servers`` the
    server demand *aligned with that ranking*.  Walks the ranking admitting
    every position whose demand still fits; once remaining capacity reaches
    zero nothing else can fit (jobs require at least one server), so the
    rest of the ranking defers wholesale.  Returns ``(selected, deferred)``,
    both in rank order.  Shared by :meth:`SlackManager.select` and the batch
    fast path (:mod:`repro.core.fastpath`), which keeps their tie-breaking
    identical.
    """
    remaining = int(capacity_slots)
    selected: list[int] = []
    deferred: list[int] = []
    for index, (position, srv) in enumerate(zip(ranked, servers)):
        if srv <= remaining:
            selected.append(position)
            remaining -= srv
            if remaining <= 0:
                deferred.extend(ranked[index + 1:])
                break
        else:
            deferred.append(position)
    return selected, deferred


@dataclasses.dataclass(frozen=True)
class SlackSelection:
    """Result of a slack-manager pass: jobs to schedule now vs. to defer."""

    selected: tuple[Job, ...]
    deferred: tuple[Job, ...]
    scores: dict[int, float]


class SlackManager:
    """Ranks jobs by remaining slack and selects the most urgent ones."""

    def select(
        self, jobs: Sequence[Job], context: SchedulingContext, capacity_slots: int
    ) -> SlackSelection:
        """Pick the most urgent jobs that fit in ``capacity_slots`` server slots.

        A job's slack score (smaller = more urgent) is paper Eq. 14,
        ``TOL% · t_m − L_avg_m − waited_m``: the delay allowance minus the
        average cost of moving the job and minus the time it has already
        spent waiting since the controller received it.  ``L_avg_m`` is
        looked up once per distinct ``(home, package)`` pair
        (:func:`cached_average_from`).  Jobs are ranked by ascending score,
        job id breaking ties, and admitted through :func:`admit_ranked` while
        their server demand fits; with zero capacity every job is deferred.
        """
        if capacity_slots < 0:
            raise ValueError("capacity_slots must be >= 0")
        jobs = tuple(jobs)
        n = len(jobs)
        exec_times = np.fromiter((j.execution_time for j in jobs), dtype=float, count=n)
        allowance = context.delay_tolerance * exec_times
        waited = np.fromiter((context.wait_time(j) for j in jobs), dtype=float, count=n)
        latency = context.latency
        average = np.fromiter(
            (cached_average_from(latency, j.home_region, j.package_gb) for j in jobs),
            dtype=float,
            count=n,
        )
        scores = allowance - average - waited
        job_ids = np.fromiter((j.job_id for j in jobs), dtype=np.int64, count=n)
        ranked = np.lexsort((job_ids, scores)).tolist()
        servers_ranked = [jobs[i].servers_required for i in ranked]
        selected, deferred = admit_ranked(ranked, servers_ranked, capacity_slots)
        return SlackSelection(
            selected=tuple(jobs[i] for i in selected),
            deferred=tuple(jobs[i] for i in deferred),
            scores={int(job_ids[i]): float(scores[i]) for i in range(n)},
        )

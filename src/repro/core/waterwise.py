"""The WaterWise scheduling policy (paper Algorithm 1).

Each scheduling round:

1. The batch handed over by the simulator already contains the newly arrived
   jobs plus every job WaterWise previously deferred (``J = J ∪ J_delay``).
2. If the batch needs more server slots than the cluster has remaining, the
   slack manager ranks jobs by their urgency score (Eq. 14), keeps the most
   urgent ones that fit and defers the rest; the kept jobs are placed with
   the *soft-constraint* decision controller (Algorithm 1, lines 5–7).
3. Otherwise the hard-constraint controller runs first and the controller
   automatically retries with softened delay constraints if the MILP is
   infeasible (Algorithm 1, lines 8–11).
4. The history learner records the round's per-region carbon/water
   intensities for the reference term of future rounds.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cluster.interface import Scheduler, SchedulerDecision, SchedulingContext
from repro.core.config import WaterWiseConfig
from repro.core.decision import DecisionController
from repro.core.history import HistoryLearner
from repro.core.slack import SlackManager
from repro.traces.job import Job

__all__ = ["WaterWiseScheduler", "record_round_intensities"]


def record_round_intensities(history, region_keys, dataset, now_s: float) -> None:
    """Record one round's per-region carbon/water intensities with ``history``.

    Shared by the scalar :meth:`WaterWiseScheduler.schedule` and the
    vectorized fast path (:mod:`repro.core.fastpath`) so both feed the
    history learner identical observations.
    """
    carbon = np.array(
        [dataset.series_for(key).carbon_intensity_at(now_s) for key in region_keys]
    )
    water = np.array(
        [dataset.series_for(key).water_intensity_at(now_s) for key in region_keys]
    )
    history.observe(region_keys, carbon, water)


class WaterWiseScheduler(Scheduler):
    """Carbon- and water-footprint co-optimizing MILP scheduler."""

    name = "waterwise"

    def __init__(self, config: WaterWiseConfig | None = None) -> None:
        self.config = config if config is not None else WaterWiseConfig()
        self.controller = DecisionController(self.config)
        self.history = HistoryLearner(window=self.config.history_window)
        self.slack_manager = SlackManager()
        #: Number of scheduling rounds in which the soft controller was used.
        self.soft_rounds = 0
        #: Number of scheduling rounds in which jobs had to be shed by slack.
        self.overload_rounds = 0

    def reset(self) -> None:
        self.controller.reset()
        self.history.reset()
        self.soft_rounds = 0
        self.overload_rounds = 0

    # -- policy ------------------------------------------------------------------------
    def schedule(self, jobs: Sequence[Job], context: SchedulingContext) -> SchedulerDecision:
        self._record_history(context)
        if not jobs:
            return SchedulerDecision()

        total_capacity = context.total_capacity
        required_slots = sum(job.servers_required for job in jobs)

        deferred: list[int] = []
        batch: Sequence[Job] = jobs
        force_soft = False
        if total_capacity <= 0:
            # Nothing can start this round anywhere; wait for capacity.
            return SchedulerDecision(deferred=[job.job_id for job in jobs])
        if required_slots > total_capacity and self.config.use_slack_manager:
            selection = self.slack_manager.select(jobs, context, total_capacity)
            batch = selection.selected
            deferred = [job.job_id for job in selection.deferred]
            force_soft = self.config.use_soft_constraints
            self.overload_rounds += 1
            if not batch:
                return SchedulerDecision(deferred=deferred)

        result = self.controller.decide(
            batch, context, history=self.history if self.config.use_history else None,
            force_soft=force_soft, extra_cost=self._extra_cost(batch, context),
        )
        if result.used_soft_constraints:
            self.soft_rounds += 1
        return SchedulerDecision(assignments=result.assignments, deferred=deferred)

    # -- extension hooks -------------------------------------------------------------------
    def _extra_cost(self, jobs: Sequence[Job], context: SchedulingContext):
        """Optional pre-weighted additive objective term (M × N).

        The base scheduler returns ``None``; extensions such as the
        cost-aware variant (:mod:`repro.core.cost`) override this to add
        further objectives without touching the MILP construction.
        """
        return None

    def _extra_cost_arrays(self, context, batch):
        """Array-world mirror of :meth:`_extra_cost` for the fast path.

        ``context`` is a :class:`~repro.cluster.batch.BatchSchedulingContext`
        and ``batch`` the indices of the round's (slack-selected) jobs.  An
        extension that overrides :meth:`_extra_cost` must either override
        this with a bit-identical array implementation *and* register the
        fast path for its own class, or leave it alone — subclasses without
        their own registration always fall back to the scalar path (the
        registrations are ``exact=True``), so the two hooks can never drift
        apart silently.
        """
        return None

    # -- internals -----------------------------------------------------------------------
    def _record_history(self, context: SchedulingContext) -> None:
        if not self.config.use_history:
            return
        record_round_intensities(
            self.history, context.region_keys, context.dataset, context.now
        )


# Registering the vectorized fast path lives in a separate module so the
# class definition stays import-light; importing it here makes the fast path
# available whenever the scheduler itself is.
import repro.core.fastpath  # noqa: E402,F401  (side-effect import)

"""WaterWise core: the carbon- and water-aware MILP scheduler.

This package implements the paper's primary contribution (Sec. 4):

* :mod:`repro.core.config` — the configurable parameters (objective weights,
  history weight/window, penalty weight, ablation switches),
* :mod:`repro.core.history` — the history learner providing the per-region
  reference terms :math:`CO^{ref}_{2,n}` / :math:`H_2O^{ref}_n`,
* :mod:`repro.core.slack` — the slack manager and its urgency score (Eq. 14),
* :mod:`repro.core.objective` — the one builder of the placement MILP
  (objective Eq. 8/12, constraints Eq. 9–11/13), in array form,
* :mod:`repro.core.decision` — the Optimization Decision Controller that
  solves the MILP (hard constraints first, soft-constraint retry on
  infeasibility) and extracts assignments,
* :mod:`repro.core.waterwise` — the :class:`WaterWiseScheduler` policy that
  ties everything together following the paper's Algorithm 1,
* :mod:`repro.core.fastpath` — the same policy over the batch engine's job
  columns, decision-identical to the scalar scheduler.

Importing this package registers ``"waterwise"`` with
:func:`repro.schedulers.registry.make_scheduler`.
"""

from repro.core.config import WaterWiseConfig
from repro.core.cost import CostAwareWaterWiseScheduler, CostModel, ElectricityPriceTable
from repro.core.decision import ControllerResult, DecisionController
from repro.core.history import HistoryLearner
from repro.core.slack import SlackManager
from repro.core.waterwise import WaterWiseScheduler

from repro.schedulers.registry import register_scheduler as _register_scheduler

_register_scheduler("waterwise", WaterWiseScheduler)
_register_scheduler("waterwise-cost-aware", CostAwareWaterWiseScheduler)

__all__ = [
    "ControllerResult",
    "CostAwareWaterWiseScheduler",
    "CostModel",
    "DecisionController",
    "ElectricityPriceTable",
    "HistoryLearner",
    "SlackManager",
    "WaterWiseConfig",
    "WaterWiseScheduler",
]

"""Configuration of the WaterWise scheduler.

All the knobs the paper describes as configurable are collected here with the
paper's default values: equal carbon/water weights (0.5 / 0.5), a history
weight of 0.1 with a window of 10 rounds, and a MILP-based decision
controller.  The delay tolerance itself is a property of the *simulation*
(every policy must honour the same tolerance), so it lives in the simulator /
scheduling context rather than in this config.
"""

from __future__ import annotations

import dataclasses

from repro._validation import ensure_fraction_pair, ensure_non_negative

__all__ = ["WaterWiseConfig"]


@dataclasses.dataclass(frozen=True)
class WaterWiseConfig:
    """Parameters of the WaterWise Optimization Decision Controller.

    Attributes
    ----------
    lambda_co2 / lambda_h2o:
        Objective weights for the normalized carbon and water footprints
        (Eq. 7); they must sum to 1.
    lambda_ref:
        Weight of the history-learner reference term (Eq. 8).
    history_window:
        Number of past scheduling rounds the history learner averages over.
    penalty_weight:
        The σ multiplier of the soft-constraint penalty terms (Eq. 12).
    use_history:
        Disables the history learner when False (ablation hook).
    use_slack_manager:
        Disables the slack manager when False (ablation hook); overload is
        then handled by the soft-constraint controller alone.
    use_soft_constraints:
        Disables the soft-constraint fallback when False (ablation hook);
        infeasible rounds then fall back to a greedy capacity-respecting
        assignment.
    """

    lambda_co2: float = 0.5
    lambda_h2o: float = 0.5
    lambda_ref: float = 0.1
    history_window: int = 10
    penalty_weight: float = 10.0
    use_history: bool = True
    use_slack_manager: bool = True
    use_soft_constraints: bool = True

    def __post_init__(self) -> None:
        ensure_fraction_pair(self.lambda_co2, self.lambda_h2o, ("lambda_co2", "lambda_h2o"))
        ensure_non_negative(self.lambda_ref, "lambda_ref")
        if self.history_window < 1:
            raise ValueError("history_window must be >= 1")
        ensure_non_negative(self.penalty_weight, "penalty_weight")

    @classmethod
    def with_weights(cls, lambda_co2: float, **kwargs) -> "WaterWiseConfig":
        """Convenience constructor: set ``lambda_co2`` and derive ``lambda_h2o``.

        Used by the weight-sensitivity study (paper Fig. 8).
        """
        return cls(lambda_co2=lambda_co2, lambda_h2o=1.0 - lambda_co2, **kwargs)

"""Result types shared by every LP/MILP backend: the solve status and the LP
solution record."""

from __future__ import annotations

import dataclasses
import enum

import numpy as np

__all__ = ["LPSolution", "SolveStatus"]


class SolveStatus(enum.Enum):
    """Outcome of a solve call (shared by all backends)."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration_limit"
    NODE_LIMIT = "node_limit"
    ERROR = "error"

    @property
    def is_success(self) -> bool:
        """Whether a usable (optimal) solution is available."""
        return self is SolveStatus.OPTIMAL


@dataclasses.dataclass(frozen=True)
class LPSolution:
    """Result of an LP solve in array form.

    ``warm_used`` reports whether a supplied warm-start basis actually
    survived validation and seeded the solve (the revised simplex silently
    falls back to a cold start on stale bases; accounting must follow what
    really happened, not what was requested).
    """

    status: SolveStatus
    x: np.ndarray
    objective: float
    iterations: int
    solve_time: float = 0.0
    warm_used: bool = False

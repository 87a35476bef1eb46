"""Reusable solver state threaded across WaterWise scheduling rounds.

Consecutive rounds solve nearly identical placement forms, so the expensive
part of a solve — finding a feasible basis — can be amortized: a
:class:`SolverSession` stores the optimal basis of each (shape-keyed) problem
family and hands it to the next solve as a warm start.  The
:class:`~repro.core.decision.DecisionController` owns one session and passes
it through :func:`repro.milp.structure.solve_standard_form` on every round,
whether the scalar engine (``decide``) or the batch fast path
(``decide_arrays``) asked, so the two engines share the same reuse machinery.

The session also aggregates solver counters, exposed as
``result.solver_stats``: warm-start hit rates and iteration counts, and how
often the structured placement path short-circuited branch & bound.
"""

from __future__ import annotations

import dataclasses
from typing import Hashable

from repro.milp.revised_simplex import Basis

__all__ = ["SolverStats", "SolverSession"]


@dataclasses.dataclass
class SolverStats:
    """Aggregate counters over every solve routed through one session."""

    solves: int = 0
    #: Solves answered by the structured placement path without any simplex
    #: iterations (per-job argmin, capacity slack).
    structured_trivial: int = 0
    #: Structured solves that needed the transportation LP relaxation.
    structured_lp: int = 0
    #: Structured solves whose relaxation was fractional → branch & bound.
    structured_bb: int = 0
    warm_starts: int = 0
    cold_starts: int = 0
    warm_iterations: int = 0
    cold_iterations: int = 0
    bb_nodes: int = 0
    solve_time_s: float = 0.0

    @property
    def mean_warm_iterations(self) -> float:
        return self.warm_iterations / self.warm_starts if self.warm_starts else 0.0

    @property
    def mean_cold_iterations(self) -> float:
        return self.cold_iterations / self.cold_starts if self.cold_starts else 0.0

    @property
    def iterations_saved_per_warm_start(self) -> float:
        """Cold-minus-warm mean iterations: the payoff of basis reuse."""
        if not self.warm_starts or not self.cold_starts:
            return 0.0
        return self.mean_cold_iterations - self.mean_warm_iterations

    def as_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["mean_warm_iterations"] = self.mean_warm_iterations
        out["mean_cold_iterations"] = self.mean_cold_iterations
        out["iterations_saved_per_warm_start"] = self.iterations_saved_per_warm_start
        out["wall_time_per_solve_s"] = self.solve_time_s / self.solves if self.solves else 0.0
        return out


class SolverSession:
    """Warm-start basis store plus aggregate statistics.

    Bases are keyed by an arbitrary hashable shape descriptor (problem family
    plus dimensions).  A stored basis is only ever a *hint*: the revised
    simplex validates it against the new problem and silently falls back to a
    cold start when it no longer applies, so stale entries can never corrupt
    a solve.
    """

    #: Do not let an unbounded diversity of shapes grow the store forever.
    _MAX_BASES = 64

    def __init__(self) -> None:
        self.stats = SolverStats()
        self._bases: dict[Hashable, Basis] = {}

    def reset(self) -> None:
        self.stats = SolverStats()
        self._bases.clear()

    def basis_for(self, key: Hashable) -> Basis | None:
        return self._bases.get(key)

    def store_basis(self, key: Hashable, basis: Basis | None) -> None:
        if basis is None:
            return
        # LRU: re-storing moves the key to the back, so when the store fills
        # the entry evicted is the least-recently *stored* shape — one-off
        # dead shapes go first, the per-round hot key survives.
        self._bases.pop(key, None)
        if len(self._bases) >= self._MAX_BASES:
            self._bases.pop(next(iter(self._bases)))
        self._bases[key] = basis

    def record_lp(self, iterations: int, warm: bool) -> None:
        if warm:
            self.stats.warm_starts += 1
            self.stats.warm_iterations += iterations
        else:
            self.stats.cold_starts += 1
            self.stats.cold_iterations += iterations

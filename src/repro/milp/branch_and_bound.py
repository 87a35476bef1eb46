"""Best-first branch & bound MILP solver over warm-started LP relaxations.

The solver works on the array form of a problem
(:class:`repro.milp.problem.StandardForm`), repeatedly solving LP relaxations
with tightened variable bounds.  Relaxations run on the bounded-variable
revised simplex (:class:`repro.milp.revised_simplex.BoundedLP`): the sparse
constraint system is prepared **once** for the whole tree and every node
re-solves it with its own bounds, **warm-started from its parent's optimal
basis** — after a single branching bound change the parent basis is one or
two feasibility-restoration pivots away from the child optimum.  A legacy
dense backend can still be injected through ``lp_backend`` (the test suite
uses it to cross-check against the tableau reference implementation).

Node selection is best-bound-first via a heap keyed on ``(bound, order)``
where ``order`` is the global push counter: among nodes with equal bounds the
*oldest* is explored first, the down-branch is always pushed before the
up-branch, and branching picks the most fractional variable with ``argmax``
(first index wins ties).  Every tie-break is therefore explicit and
platform-independent, which makes native solves byte-reproducible.

WaterWise's placement MILPs are near-integral (their assignment/capacity
structure is totally unimodular; only the delay/penalty coupling breaks it),
so the tree almost always collapses to a handful of nodes — but the
implementation is a complete, general MILP solver.
"""

from __future__ import annotations

import dataclasses
import heapq
import itertools
import time
from collections.abc import Callable

import numpy as np

from repro.milp.problem import StandardForm
from repro.milp.revised_simplex import Basis, BoundedLP
from repro.milp.status import LPSolution, SolveStatus

__all__ = ["BranchAndBoundResult", "solve_milp_arrays"]

LPBackend = Callable[..., LPSolution]


@dataclasses.dataclass(frozen=True)
class BranchAndBoundResult:
    """Result of a branch & bound run (array form)."""

    status: SolveStatus
    x: np.ndarray
    objective: float
    nodes: int
    iterations: int
    gap: float
    solve_time: float


@dataclasses.dataclass(order=True)
class _Node:
    # Ordering is exactly (bound, order): best bound first, then oldest node.
    bound: float
    order: int
    lower: np.ndarray = dataclasses.field(compare=False)
    upper: np.ndarray = dataclasses.field(compare=False)
    basis: Basis | None = dataclasses.field(compare=False, default=None)


def _round_integrality(x: np.ndarray, integrality: np.ndarray, tol: float) -> np.ndarray | None:
    """Return ``x`` with integer variables rounded if all are within ``tol``."""
    if not np.any(integrality):
        return x
    fractional = np.abs(x[integrality] - np.round(x[integrality]))
    if np.all(fractional <= tol):
        rounded = x.copy()
        rounded[integrality] = np.round(rounded[integrality])
        return rounded
    return None


def solve_milp_arrays(
    form: StandardForm,
    lp_backend: LPBackend | None = None,
    integrality_tol: float = 1e-6,
    gap_tol: float = 1e-9,
    node_limit: int = 10_000,
    time_limit: float | None = None,
    session=None,
    prepared_lp: BoundedLP | None = None,
    root_basis: Basis | None = None,
) -> BranchAndBoundResult:
    """Solve the MILP described by ``form`` with branch & bound.

    Parameters
    ----------
    form:
        Problem arrays in minimization form.
    lp_backend:
        Optional legacy relaxation engine with the signature of
        :func:`repro.milp.simplex.solve_lp_arrays`.  When omitted the
        prepared revised simplex with per-node warm starts is used.
    integrality_tol:
        Maximum distance from an integer for a value to count as integral.
    gap_tol:
        Absolute optimality gap at which the search stops.
    node_limit:
        Maximum number of explored nodes before giving up with
        :attr:`SolveStatus.NODE_LIMIT` (the incumbent, if any, is returned).
    time_limit:
        Optional wall-clock limit in seconds.
    session:
        Optional :class:`~repro.milp.session.SolverSession`; records per-node
        warm/cold iteration counts and seeds the root from a previous tree of
        the same shape.
    prepared_lp:
        A :class:`BoundedLP` already built for ``form``'s constraint system
        (e.g. by the structured placement path, which solved the root
        relaxation on it moments earlier); skips re-assembly.
    root_basis:
        Warm start for the root relaxation — callers that just solved the
        unrestricted LP pass its optimal basis so the root costs ~0 pivots.
        Falls back to the session's stored tree basis when omitted.
    """
    start = time.perf_counter()
    integrality = form.integrality
    n = form.num_variables

    lp: BoundedLP | None = None
    if lp_backend is None:
        lp = prepared_lp if prepared_lp is not None else BoundedLP(
            form.c, form.sparse().a_ub, form.b_ub, form.sparse().a_eq, form.b_eq,
            form.lower, form.upper,
        )
    session_key = None
    if lp is not None and session is not None:
        session_key = ("bb", lp.n, lp.m_ub, lp.m_eq)
        if root_basis is None:
            root_basis = session.basis_for(session_key)

    counter = itertools.count()
    root = _Node(
        bound=-np.inf, order=next(counter), lower=form.lower.copy(),
        upper=form.upper.copy(), basis=root_basis,
    )
    heap: list[_Node] = [root]

    incumbent_x: np.ndarray | None = None
    incumbent_obj = np.inf
    best_bound = -np.inf
    nodes = 0
    iterations = 0
    limit_hit: SolveStatus | None = None

    while heap:
        if nodes >= node_limit:
            limit_hit = SolveStatus.NODE_LIMIT
            break
        if time_limit is not None and (time.perf_counter() - start) > time_limit:
            limit_hit = SolveStatus.ITERATION_LIMIT
            break
        node = heapq.heappop(heap)
        if node.bound >= incumbent_obj - gap_tol:
            continue  # cannot improve on the incumbent
        nodes += 1

        if lp is not None:
            remaining = None
            if time_limit is not None:
                remaining = max(0.0, time_limit - (time.perf_counter() - start))
            relax, child_basis = lp.solve(
                lower=node.lower, upper=node.upper, basis=node.basis,
                time_limit=remaining,
            )
            if session is not None:
                session.record_lp(relax.iterations, relax.warm_used)
        else:
            relax = lp_backend(
                form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq, node.lower, node.upper
            )
            child_basis = None
        iterations += relax.iterations
        if relax.status is SolveStatus.INFEASIBLE:
            continue
        if relax.status is SolveStatus.UNBOUNDED:
            # An unbounded relaxation at the root means the MILP is unbounded
            # (or infeasible, which the caller can disambiguate); deeper nodes
            # inherit boundedness from the root so this only fires at the root.
            return BranchAndBoundResult(
                SolveStatus.UNBOUNDED, np.full(n, np.nan), -np.inf, nodes, iterations, np.inf,
                time.perf_counter() - start,
            )
        if not relax.status.is_success:
            limit_hit = relax.status
            break

        bound = relax.objective + form.c0
        best_bound = max(best_bound, min(bound, incumbent_obj))
        if bound >= incumbent_obj - gap_tol:
            continue

        candidate = _round_integrality(relax.x, integrality, integrality_tol)
        if candidate is not None:
            objective = float(form.c @ candidate + form.c0)
            if objective < incumbent_obj - gap_tol:
                incumbent_obj = objective
                incumbent_x = candidate
                if session is not None and session_key is not None:
                    session.store_basis(session_key, child_basis)
            continue

        # Branch on the most fractional integer variable (argmax: ties go to
        # the smallest index — deterministic across platforms).
        fractions = np.abs(relax.x - np.round(relax.x))
        fractions[~integrality] = 0.0
        branch_var = int(np.argmax(fractions))
        value = relax.x[branch_var]
        floor_value = np.floor(value)

        # Down-branch is always pushed (and therefore ordered) before the
        # up-branch; both inherit the node's optimal basis as a warm start.
        down_upper = node.upper.copy()
        down_upper[branch_var] = floor_value
        if down_upper[branch_var] >= node.lower[branch_var] - 1e-12:
            heapq.heappush(
                heap,
                _Node(bound=bound, order=next(counter), lower=node.lower.copy(),
                      upper=down_upper, basis=child_basis),
            )
        up_lower = node.lower.copy()
        up_lower[branch_var] = floor_value + 1.0
        if up_lower[branch_var] <= node.upper[branch_var] + 1e-12:
            heapq.heappush(
                heap,
                _Node(bound=bound, order=next(counter), lower=up_lower,
                      upper=node.upper.copy(), basis=child_basis),
            )

    elapsed = time.perf_counter() - start
    if incumbent_x is None:
        status = limit_hit if limit_hit is not None else SolveStatus.INFEASIBLE
        return BranchAndBoundResult(status, np.full(n, np.nan), np.nan, nodes, iterations, np.inf, elapsed)

    if limit_hit is None:
        gap = 0.0  # the tree was fully explored
    else:
        gap = abs(incumbent_obj - best_bound) if np.isfinite(best_bound) else np.inf
    status = SolveStatus.OPTIMAL if limit_hit is None else limit_hit
    # incumbent_obj already includes the constant term c0; report in original sense.
    objective = -incumbent_obj if form.maximize else incumbent_obj
    return BranchAndBoundResult(status, incumbent_x, objective, nodes, iterations, gap, elapsed)

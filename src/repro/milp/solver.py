"""Solve dispatch: one entry point, :func:`solve_standard_form`, for every
:class:`~repro.milp.problem.StandardForm`.

Four solver names are accepted:

``"native"``
    The from-scratch solver core implemented in this package: a sparse
    presolve pass (:mod:`repro.milp.presolve`), the bounded-variable revised
    simplex with warm-start bases (:mod:`repro.milp.revised_simplex`), and
    warm-started branch & bound (:mod:`repro.milp.branch_and_bound`).
``"scipy"``
    SciPy's HiGHS bindings (``linprog`` for LPs, ``milp`` for MILPs).
``"structured"``
    The structure-aware path (:mod:`repro.milp.structure`): recognizes
    WaterWise placement forms and solves them as capacitated assignment
    problems, skipping branch & bound whenever the relaxation is integral.
    Forms it does not recognize degrade to the native core.
``"auto"`` (the default)
    Structured when the form is recognized, otherwise SciPy, falling back to
    the native core when SciPy is unavailable.

All backends are exact and the test suite cross-checks them on random
problems, so scheduling decisions do not depend on the backend choice.
"""

from __future__ import annotations

import logging
import time

import numpy as np

from repro.milp.branch_and_bound import solve_milp_arrays
from repro.milp.presolve import presolve
from repro.milp.problem import StandardForm
from repro.milp.revised_simplex import BoundedLP
from repro.milp.session import SolverSession
from repro.milp.status import SolveStatus
from repro.milp.structure import detect_placement, solve_placement

__all__ = ["solve_standard_form"]

_SOLVERS = ("auto", "scipy", "native", "structured")

_log = logging.getLogger(__name__)
#: The auto → native fallback reason is logged once per process, not per round.
_fallback_logged = False


def _log_scipy_fallback(exc: BaseException) -> None:
    global _fallback_logged
    if not _fallback_logged:
        _fallback_logged = True
        _log.warning(
            "scipy backend unavailable (%s: %s); auto solver falls back to the "
            "native core for this process", type(exc).__name__, exc,
        )


def _solve_native(
    form: StandardForm,
    node_limit: int,
    time_limit: float | None,
    session: SolverSession | None,
) -> tuple[SolveStatus, np.ndarray, float, int, int, str, float]:
    """Presolve + revised simplex (+ warm-started B&B) — the native core."""
    start = time.perf_counter()
    n = form.num_variables
    pre = presolve(form)
    if session is not None:
        stats = session.stats
        stats.solves += 1
        stats.presolve_rows_before += pre.stats.rows_before
        stats.presolve_rows_after += pre.stats.rows_after
        stats.presolve_cols_before += pre.stats.cols_before
        stats.presolve_cols_after += pre.stats.cols_after

    def _done(status, x, objective, iterations, nodes):
        elapsed = time.perf_counter() - start
        if session is not None:
            session.stats.solve_time_s += elapsed
        return status, x, objective, iterations, nodes, "native", elapsed

    if pre.infeasible:
        return _done(SolveStatus.INFEASIBLE, np.full(n, np.nan), float("nan"), 0, 0)

    if pre.num_variables == 0:
        # Presolve fixed everything (and proved the remaining rows redundant).
        x = pre.postsolve(np.zeros(0))
        return _done(SolveStatus.OPTIMAL, x, form.objective_value(x), 0, 1)

    reduced = StandardForm(
        c=pre.c,
        c0=pre.c0,
        a_ub=pre.a_ub,
        b_ub=pre.b_ub,
        a_eq=pre.a_eq,
        b_eq=pre.b_eq,
        lower=pre.lower,
        upper=pre.upper,
        integrality=pre.integrality,
        maximize=form.maximize,
    )

    if np.any(pre.integrality):
        bb = solve_milp_arrays(
            reduced, node_limit=node_limit, time_limit=time_limit, session=session,
        )
        if session is not None:
            session.stats.bb_nodes += bb.nodes
        if not bb.status.is_success and not np.all(np.isfinite(bb.x)):
            return _done(bb.status, np.full(n, np.nan), float("nan"), bb.iterations, bb.nodes)
        # A node/time limit still surrenders the incumbent (with the limit
        # status), exactly as solve_milp_arrays documents.
        return _done(bb.status, pre.postsolve(bb.x), bb.objective, bb.iterations, bb.nodes)

    lp = BoundedLP(
        pre.c, reduced.sparse().a_ub, pre.b_ub, reduced.sparse().a_eq, pre.b_eq,
        pre.lower, pre.upper,
    )
    key = ("native", lp.n, lp.m_ub, lp.m_eq)
    warm = session.basis_for(key) if session is not None else None
    sol, basis = lp.solve(basis=warm, time_limit=time_limit)
    if session is not None:
        session.record_lp(sol.iterations, sol.warm_used)
        session.store_basis(key, basis)
    if not sol.status.is_success:
        if sol.status is SolveStatus.UNBOUNDED:
            return _done(sol.status, np.full(n, np.nan), -np.inf, sol.iterations, 1)
        return _done(sol.status, np.full(n, np.nan), float("nan"), sol.iterations, 1)
    x = pre.postsolve(sol.x)
    return _done(SolveStatus.OPTIMAL, x, form.objective_value(x), sol.iterations, 1)


def solve_standard_form(
    form: StandardForm,
    solver: str = "auto",
    node_limit: int = 10_000,
    time_limit: float | None = None,
    session: SolverSession | None = None,
) -> tuple[SolveStatus, np.ndarray, float, int, int, str, float]:
    """Solve ``form`` with the named backend, returning raw arrays.

    Returns ``(status, x, objective, iterations, nodes, solver, seconds)``:
    ``x`` is the solution vector (NaN when there is none), ``objective`` is
    in the form's original sense, ``solver`` names the backend that actually
    ran (``"structured"`` and ``"auto"`` may degrade) and ``seconds`` is the
    wall time spent in it.  ``node_limit`` bounds branch & bound (native
    core) and ``time_limit`` is an optional wall-clock budget.  ``session``
    threads warm-start bases and statistics across calls; the WaterWise
    decision controller passes its own so consecutive scheduling rounds
    reuse each other's bases.
    """
    if solver not in _SOLVERS:
        raise ValueError(f"unknown solver {solver!r}; expected one of {_SOLVERS}")

    if solver in ("auto", "structured"):
        struct = detect_placement(form)
        if struct is not None:
            status, x, objective, iterations, nodes, seconds = solve_placement(
                form, struct, session=session, node_limit=node_limit,
                time_limit=time_limit,
            )
            return status, x, objective, iterations, nodes, "structured", seconds
        if solver == "structured":
            # Not a placement form: degrade to the native core.
            return _solve_native(form, node_limit, time_limit, session)

    if solver in ("auto", "scipy"):
        try:
            from repro.milp.scipy_backend import solve_form_scipy
        except ImportError as exc:
            if solver == "scipy":
                raise
            # Narrow fallback: only a missing backend reroutes to the native
            # core.  Real modeling errors (bad shapes, NaNs, …) raised by the
            # backend itself propagate to the caller instead of being
            # silently swallowed.
            _log_scipy_fallback(exc)
        else:
            status, x, objective, nodes, solve_time = solve_form_scipy(
                form, time_limit=time_limit
            )
            return status, x, objective, nodes, nodes, "scipy", solve_time

    return _solve_native(form, node_limit, time_limit, session)

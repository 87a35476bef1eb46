"""SciPy (HiGHS) backend: the same array forms solved through SciPy.

The native simplex / branch & bound solvers are complete but intentionally
simple; for large scheduling rounds the HiGHS solvers shipped with SciPy are
much faster.  This module adapts :class:`repro.milp.problem.StandardForm` to
``scipy.optimize.linprog`` (LPs) and ``scipy.optimize.milp`` (MILPs), and maps
their statuses back onto :class:`repro.milp.status.SolveStatus`.
"""

from __future__ import annotations

import time

import numpy as np
from scipy import optimize, sparse

from repro.milp.problem import StandardForm
from repro.milp.status import LPSolution, SolveStatus

__all__ = ["scipy_lp_backend", "solve_form_scipy"]

_LINPROG_STATUS = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.ITERATION_LIMIT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}

_MILP_STATUS = {
    0: SolveStatus.OPTIMAL,
    1: SolveStatus.ITERATION_LIMIT,
    2: SolveStatus.INFEASIBLE,
    3: SolveStatus.UNBOUNDED,
    4: SolveStatus.ERROR,
}


def scipy_lp_backend(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    max_iter: int = 20_000,
) -> LPSolution:
    """LP relaxation solver with the same signature as the native simplex.

    Used both standalone and as the relaxation engine injected into
    :func:`repro.milp.branch_and_bound.solve_milp_arrays`.
    """
    start = time.perf_counter()
    bounds = list(zip(np.asarray(lower, dtype=float), np.asarray(upper, dtype=float)))
    bounds = [
        (None if not np.isfinite(lo) else lo, None if not np.isfinite(hi) else hi)
        for lo, hi in bounds
    ]
    result = optimize.linprog(
        c,
        A_ub=a_ub if np.size(a_ub) else None,
        b_ub=b_ub if np.size(b_ub) else None,
        A_eq=a_eq if np.size(a_eq) else None,
        b_eq=b_eq if np.size(b_eq) else None,
        bounds=bounds,
        method="highs",
    )
    status = _LINPROG_STATUS.get(result.status, SolveStatus.ERROR)
    x = np.asarray(result.x, dtype=float) if result.x is not None else np.full(len(c), np.nan)
    objective = float(result.fun) if result.fun is not None else np.nan
    iterations = int(getattr(result, "nit", 0) or 0)
    return LPSolution(status, x, objective, iterations, time.perf_counter() - start)


def _as_scipy_csr(block) -> sparse.csr_matrix:
    """Accept dense blocks and the NumPy-only CSR carrier alike."""
    if isinstance(block, np.ndarray):
        return sparse.csr_matrix(block)
    return sparse.csr_matrix(
        (block.data, block.indices, block.indptr), shape=tuple(block.shape)
    )


def solve_form_scipy(form: StandardForm) -> tuple[SolveStatus, np.ndarray, float, int, float]:
    """Solve a :class:`StandardForm` with SciPy/HiGHS.

    Returns ``(status, x, objective, node_or_iter_count, solve_time)``.
    """
    start = time.perf_counter()
    n = form.num_variables

    if not np.any(form.integrality):
        lp = scipy_lp_backend(
            form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq, form.lower, form.upper
        )
        if not lp.status.is_success:
            return lp.status, lp.x, np.nan, lp.iterations, time.perf_counter() - start
        objective = form.objective_value(lp.x)
        return lp.status, lp.x, objective, lp.iterations, time.perf_counter() - start

    constraints = []
    if form.a_ub.shape[0]:
        constraints.append(
            optimize.LinearConstraint(_as_scipy_csr(form.a_ub), -np.inf, form.b_ub)
        )
    if form.a_eq.shape[0]:
        constraints.append(
            optimize.LinearConstraint(_as_scipy_csr(form.a_eq), form.b_eq, form.b_eq)
        )
    result = optimize.milp(
        c=form.c,
        constraints=constraints,
        integrality=form.integrality.astype(int),
        bounds=optimize.Bounds(form.lower, form.upper),
        # HiGHS stops at a 1e-4 relative gap by default; answers must be exact.
        options={"mip_rel_gap": 0.0},
    )
    status = _MILP_STATUS.get(result.status, SolveStatus.ERROR)
    if result.x is None:
        return status, np.full(n, np.nan), np.nan, 0, time.perf_counter() - start
    x = np.asarray(result.x, dtype=float)
    # Snap integer variables (HiGHS returns values within tolerance of integers).
    integer = form.integrality
    x[integer] = np.round(x[integer])
    if not integer.all():
        # HiGHS computed the continuous columns for the unsnapped integers and
        # accepts rows violated by up to its feasibility tolerance, so next to
        # the snapped integers they can miss a row and undercut the optimum by
        # ~1e-7.  Re-solving them with the integers fixed restores a feasible
        # point and the exact objective; HiGHS's values stay when the snapped
        # integers admit no completion.
        polished = scipy_lp_backend(
            form.c, form.a_ub, form.b_ub, form.a_eq, form.b_eq,
            np.where(integer, x, form.lower), np.where(integer, x, form.upper),
        )
        if polished.status.is_success:
            x = np.where(integer, x, polished.x)
    objective = form.objective_value(x)
    nodes = int(getattr(result, "mip_node_count", 0) or 0)
    return status, x, objective, nodes, time.perf_counter() - start

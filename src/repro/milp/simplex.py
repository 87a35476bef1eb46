"""Dense two-phase primal simplex: the reference LP engine.

No production path runs this solver.  The production LP engine is the
bounded-variable revised simplex (:mod:`repro.milp.revised_simplex`); this
textbook tableau stays as the independent reference the test suite checks
the revised simplex, the SciPy/HiGHS backend and branch & bound's LP bounds
against.  It solves the array form of a
:class:`~repro.milp.problem.StandardForm`::

    minimize    c @ x
    subject to  a_ub @ x <= b_ub
                a_eq @ x == b_eq
                lower <= x <= upper

The implementation follows the classic tableau method:

1. shift/split variables so every working variable is non-negative
   (finite lower bounds are shifted to zero, upper-only variables are
   mirrored, free variables are split into a positive and negative part);
2. finite upper bounds become additional ``<=`` rows;
3. slack variables convert inequalities to equalities and artificial
   variables provide the phase-1 starting basis;
4. phase 1 minimizes the sum of artificials (infeasible if > 0),
   phase 2 minimizes the real objective.

Dantzig's rule is used for pricing with an automatic switch to Bland's rule
after a run of degenerate pivots, which guarantees termination.  The dense
tableau suits the small problems the tests draw (tens of variables).
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.milp.status import LPSolution, SolveStatus

__all__ = ["solve_lp_arrays"]

_FEAS_TOL = 1e-8
_OPT_TOL = 1e-9


@dataclasses.dataclass
class _Transformed:
    """LP rewritten over non-negative working variables."""

    a_rows: np.ndarray  # (m, n_work) equality rows (after adding ub rows, before slacks)
    rhs: np.ndarray
    is_eq: np.ndarray  # bool per row: True = equality, False = <=
    c_work: np.ndarray
    obj_shift: float
    # mapping back: x_orig = offset + M @ x_work
    offset: np.ndarray
    back_map: list[list[tuple[int, float]]]  # per original var: [(work_idx, coeff), ...]


def _transform(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
) -> _Transformed:
    """Rewrite the LP over non-negative working variables."""
    n = len(c)
    columns: list[tuple[int, float, float]] = []  # (orig index, sign, shift contribution)
    back_map: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    offset = np.zeros(n)

    for j in range(n):
        lo, hi = lower[j], upper[j]
        if np.isfinite(lo):
            # x_j = lo + y, y >= 0  (upper handled later as a row)
            work_idx = len(columns)
            columns.append((j, 1.0, lo))
            back_map[j].append((work_idx, 1.0))
            offset[j] = lo
        elif np.isfinite(hi):
            # x_j = hi - y, y >= 0
            work_idx = len(columns)
            columns.append((j, -1.0, hi))
            back_map[j].append((work_idx, -1.0))
            offset[j] = hi
        else:
            # free: x_j = y+ - y-
            idx_pos = len(columns)
            columns.append((j, 1.0, 0.0))
            idx_neg = len(columns)
            columns.append((j, -1.0, 0.0))
            back_map[j].append((idx_pos, 1.0))
            back_map[j].append((idx_neg, -1.0))
            offset[j] = 0.0

    n_work = len(columns)
    # Dense change-of-variable matrix: x = offset + T @ y
    transform = np.zeros((n, n_work))
    for work_idx, (orig, sign, _shift) in enumerate(columns):
        transform[orig, work_idx] = sign

    c_work = c @ transform
    obj_shift = float(c @ offset)

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    is_eq: list[bool] = []

    def _add(a_block: np.ndarray, b_block: np.ndarray, eq: bool) -> None:
        if a_block.size == 0:
            return
        a_work = a_block @ transform
        b_adj = b_block - a_block @ offset
        for i in range(a_work.shape[0]):
            rows.append(a_work[i])
            rhs.append(float(b_adj[i]))
            is_eq.append(eq)

    _add(a_ub, b_ub, eq=False)
    _add(a_eq, b_eq, eq=True)

    # Upper bounds for shifted (lower-bounded) variables become <= rows.
    for work_idx, (orig, sign, _shift) in enumerate(columns):
        if sign > 0 and np.isfinite(lower[orig]) and np.isfinite(upper[orig]):
            row = np.zeros(n_work)
            row[work_idx] = 1.0
            rows.append(row)
            rhs.append(float(upper[orig] - lower[orig]))
            is_eq.append(False)

    a_rows = np.array(rows) if rows else np.zeros((0, n_work))
    return _Transformed(
        a_rows=a_rows,
        rhs=np.array(rhs) if rhs else np.zeros(0),
        is_eq=np.array(is_eq, dtype=bool) if is_eq else np.zeros(0, dtype=bool),
        c_work=c_work,
        obj_shift=obj_shift,
        offset=offset,
        back_map=back_map,
    )


def _pivot(tableau: np.ndarray, row: int, col: int) -> None:
    """In-place pivot of the tableau on (row, col)."""
    pivot_value = tableau[row, col]
    tableau[row] /= pivot_value
    pivot_row = tableau[row]
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    tableau -= np.outer(factors, pivot_row)
    # Clean the pivot column explicitly to avoid round-off residue.
    tableau[:, col] = 0.0
    tableau[row, col] = 1.0


def _run_simplex(
    tableau: np.ndarray,
    basis: np.ndarray,
    cost_row: np.ndarray,
    allowed: np.ndarray,
    max_iter: int,
) -> tuple[SolveStatus, int]:
    """Run primal simplex on ``tableau`` (rows = constraints, last col = rhs).

    ``cost_row`` is the reduced-cost row (modified in place), ``allowed`` marks
    columns that may enter the basis.  Returns (status, iterations).
    """
    m = tableau.shape[0]
    iterations = 0
    degenerate_run = 0
    bland = False
    while iterations < max_iter:
        reduced = cost_row[:-1]
        candidates = np.flatnonzero(allowed & (reduced < -_OPT_TOL))
        if candidates.size == 0:
            return SolveStatus.OPTIMAL, iterations
        if bland:
            col = int(candidates[0])
        else:
            col = int(candidates[np.argmin(reduced[candidates])])

        column = tableau[:, col]
        positive = column > _FEAS_TOL
        if not np.any(positive):
            return SolveStatus.UNBOUNDED, iterations

        ratios = np.full(m, np.inf)
        ratios[positive] = tableau[positive, -1] / column[positive]
        best = np.min(ratios)
        # Tie-break on the smallest basis index (lexicographic-ish, anti-cycling).
        tied = np.flatnonzero(np.isclose(ratios, best, rtol=0.0, atol=1e-12))
        row = int(tied[np.argmin(basis[tied])])

        if best < 1e-12:
            degenerate_run += 1
            if degenerate_run > 2 * tableau.shape[1]:
                bland = True
        else:
            degenerate_run = 0
            bland = False

        _pivot(tableau, row, col)
        cost_row -= cost_row[col] * tableau[row]
        cost_row[col] = 0.0
        basis[row] = col
        iterations += 1
    return SolveStatus.ITERATION_LIMIT, iterations


def solve_lp_arrays(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    max_iter: int = 20_000,
) -> LPSolution:
    """Solve a bounded LP with the two-phase tableau simplex method.

    Parameters mirror :class:`scipy.optimize.linprog`; see the module
    docstring for the accepted form.  Returns an :class:`LPSolution` whose
    ``x`` is expressed in the original variable space.
    """
    start = time.perf_counter()
    c = np.asarray(c, dtype=float)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    a_ub = np.asarray(a_ub, dtype=float).reshape(-1, len(c)) if np.size(a_ub) else np.zeros((0, len(c)))
    a_eq = np.asarray(a_eq, dtype=float).reshape(-1, len(c)) if np.size(a_eq) else np.zeros((0, len(c)))
    b_ub = np.asarray(b_ub, dtype=float).ravel()
    b_eq = np.asarray(b_eq, dtype=float).ravel()

    if np.any(lower > upper):
        return LPSolution(SolveStatus.INFEASIBLE, np.full(len(c), np.nan), np.nan, 0)

    tr = _transform(c, a_ub, b_ub, a_eq, b_eq, lower, upper)
    m, n_work = tr.a_rows.shape

    if m == 0:
        # No constraints at all: optimum is at the (shifted) lower corner unless
        # some working cost is negative, in which case the LP is unbounded.
        if np.any(tr.c_work < -_OPT_TOL):
            return LPSolution(SolveStatus.UNBOUNDED, np.full(len(c), np.nan), -np.inf, 0)
        x = tr.offset.copy()
        return LPSolution(
            SolveStatus.OPTIMAL, x, float(c @ x), 0, time.perf_counter() - start
        )

    a = tr.a_rows.copy()
    b = tr.rhs.copy()
    is_eq = tr.is_eq.copy()

    # Add slack variables for inequality rows.
    n_slack = int(np.count_nonzero(~is_eq))
    slack_cols = np.zeros((m, n_slack))
    slack_of_row = np.full(m, -1, dtype=int)
    k = 0
    for i in range(m):
        if not is_eq[i]:
            slack_cols[i, k] = 1.0
            slack_of_row[i] = n_work + k
            k += 1
    a = np.hstack([a, slack_cols])

    # Normalize negative right-hand sides.
    negative = b < 0
    a[negative] *= -1.0
    b[negative] *= -1.0

    # Build the starting basis: a slack column with +1 works; otherwise artificial.
    n_total = n_work + n_slack
    basis = np.full(m, -1, dtype=int)
    artificial_rows: list[int] = []
    for i in range(m):
        s = slack_of_row[i]
        if s >= 0 and a[i, s] > 0.5:
            basis[i] = s
        else:
            artificial_rows.append(i)

    n_art = len(artificial_rows)
    art_cols = np.zeros((m, n_art))
    for k, i in enumerate(artificial_rows):
        art_cols[i, k] = 1.0
        basis[i] = n_total + k
    a_full = np.hstack([a, art_cols])
    n_full = n_total + n_art

    tableau = np.hstack([a_full, b.reshape(-1, 1)])

    iterations_total = 0

    # ---- Phase 1: minimize the sum of artificial variables -------------------
    if n_art:
        phase1_cost = np.zeros(n_full + 1)
        phase1_cost[n_total:n_full] = 1.0
        # Express the cost row in terms of the current (artificial) basis.
        for i in range(m):
            if basis[i] >= n_total:
                phase1_cost -= tableau[i]
        allowed = np.ones(n_full, dtype=bool)
        status, iters = _run_simplex(tableau, basis, phase1_cost, allowed, max_iter)
        iterations_total += iters
        if status is SolveStatus.ITERATION_LIMIT:
            return LPSolution(status, np.full(len(c), np.nan), np.nan, iterations_total)
        if -phase1_cost[-1] > 1e-6:
            return LPSolution(
                SolveStatus.INFEASIBLE, np.full(len(c), np.nan), np.nan, iterations_total
            )
        # Pivot remaining artificial variables out of the basis when possible.
        for i in range(m):
            if basis[i] >= n_total:
                row_coeffs = np.abs(tableau[i, :n_total])
                pivot_candidates = np.flatnonzero(row_coeffs > 1e-9)
                if pivot_candidates.size:
                    col = int(pivot_candidates[0])
                    _pivot(tableau, i, col)
                    basis[i] = col
                # Otherwise the row is redundant; leave the artificial basic at 0
                # but forbid it from ever carrying value (its column is fixed).

    # ---- Phase 2: minimize the real objective --------------------------------
    cost_row = np.zeros(n_full + 1)
    cost_row[:n_work] = tr.c_work
    for i in range(m):
        if cost_row[basis[i]] != 0.0:
            cost_row -= cost_row[basis[i]] * tableau[i]
    allowed = np.ones(n_full, dtype=bool)
    allowed[n_total:] = False  # artificials may never re-enter
    status, iters = _run_simplex(tableau, basis, cost_row, allowed, max_iter)
    iterations_total += iters
    if status is SolveStatus.ITERATION_LIMIT:
        return LPSolution(status, np.full(len(c), np.nan), np.nan, iterations_total)
    if status is SolveStatus.UNBOUNDED:
        return LPSolution(status, np.full(len(c), np.nan), -np.inf, iterations_total)

    # Recover the working-variable values, then the original variables.
    y = np.zeros(n_full)
    y[basis] = tableau[:, -1]
    x = tr.offset.copy()
    for orig, mapping in enumerate(tr.back_map):
        for work_idx, coeff in mapping:
            x[orig] += coeff * y[work_idx]

    objective = float(c @ x)
    return LPSolution(
        SolveStatus.OPTIMAL, x, objective, iterations_total, time.perf_counter() - start
    )

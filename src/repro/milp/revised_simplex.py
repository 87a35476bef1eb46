"""Bounded-variable revised simplex with warm-start bases.

This is the production LP engine of the native solver core.  Unlike the dense
tableau in ``tests/milp/simplex.py`` — kept as the slow reference
implementation — it

* handles variable bounds *natively*: a nonbasic variable simply sits at its
  lower or upper bound (or at zero when free), so finite bounds never become
  extra rows and free variables are never split;
* works on the *revised* form: the constraint matrix is never modified.  The
  basis inverse is maintained explicitly and updated with an O(m²)
  product-form (eta) transformation per pivot, with a full refactorization
  every :data:`_REFACTOR_PERIOD` pivots (or on numerical trouble) to keep
  drift bounded; columns are gathered from raw CSC arrays and pricing is one
  sparse ``A.T @ y`` product per iteration.  The CSC store is a plain trio of
  NumPy arrays, so the whole native core runs without SciPy installed (the
  placement path solves every relaxation here when SciPy is missing);
* accepts a **warm-start basis**.  Feasibility restoration is uniform: any
  basis (the all-slack cold basis, the previous round's optimal basis, a
  branch & bound parent basis after a bound change) is loaded, basic values
  are computed, and basic variables that violate their bounds are driven back
  inside by a composite phase 1 that minimizes the total violation.  A warm
  basis that is still primal feasible skips phase 1 entirely; after a single
  branching bound change it typically needs one or two restoration pivots.

The constraint system is ``a_ub @ x ≤ b_ub`` / ``a_eq @ x = b_eq`` with box
bounds; one slack column per row turns it into equalities (equality rows get
a slack fixed at ``[0, 0]``).  Pricing is Dantzig's rule with an automatic
switch to Bland's rule after a run of degenerate steps, which guarantees
termination; ratio-test ties prefer the largest pivot magnitude (stability)
and then the smallest variable index (determinism).
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.milp.status import LPSolution, SolveStatus

__all__ = ["Basis", "BoundedLP", "solve_lp_revised"]

NB_LOWER = np.int8(0)
NB_UPPER = np.int8(1)
BASIC = np.int8(2)
NB_FREE = np.int8(3)

_FEAS_TOL = 1e-8
_OPT_TOL = 1e-9
_PIVOT_TOL = 1e-10
#: Full basis refactorizations happen every this many pivots; in between the
#: inverse is maintained with O(m²) eta updates.
_REFACTOR_PERIOD = 100


@dataclasses.dataclass(frozen=True)
class Basis:
    """A simplex basis: per-column status plus the basic column order.

    ``status`` covers structural columns first, then one slack per row
    (inequality rows before equality rows).  Stored by the
    :class:`~repro.milp.session.SolverSession` between scheduling rounds and
    by branch & bound nodes for their children.
    """

    status: np.ndarray  # int8 per column
    basic_idx: np.ndarray  # int64, one entry per row

    @property
    def num_rows(self) -> int:
        return len(self.basic_idx)

    @property
    def num_columns(self) -> int:
        return len(self.status)


class BoundedLP:
    """A prepared bounded LP: sparse columns, slack layout, reusable solves.

    Build once per constraint matrix; :meth:`solve` can then be called many
    times with different bounds (branch & bound) and/or warm-start bases
    (solver sessions) without re-assembling anything.
    """

    def __init__(
        self,
        c: np.ndarray,
        a_ub,
        b_ub: np.ndarray,
        a_eq,
        b_eq: np.ndarray,
        lower: np.ndarray,
        upper: np.ndarray,
    ) -> None:
        self.c = np.asarray(c, dtype=float)
        n = len(self.c)
        rows_ub, cols_ub, data_ub, self.m_ub = _coo_rows(a_ub)
        rows_eq, cols_eq, data_eq, self.m_eq = _coo_rows(a_eq)
        self.m = self.m_ub + self.m_eq
        self.n = n
        self.n_total = n + self.m

        # Full system [A | I] as raw CSC arrays (entries sorted by column,
        # then row): structural columns first, then one slack per row.
        rows = np.concatenate([rows_ub, rows_eq + self.m_ub, np.arange(self.m)])
        cols = np.concatenate([cols_ub, cols_eq, n + np.arange(self.m)])
        data = np.concatenate([data_ub, data_eq, np.ones(self.m)])
        order = np.lexsort((rows, cols))
        self._indices = rows[order]
        self._data = data[order]
        self._indptr = np.zeros(self.n_total + 1, dtype=np.int64)
        np.cumsum(np.bincount(cols, minlength=self.n_total), out=self._indptr[1:])
        #: Column id of each stored entry — turns pricing and matvecs into
        #: one multiply plus one bincount, no SciPy needed.
        self._col_of = np.repeat(np.arange(self.n_total), np.diff(self._indptr))
        self.b = np.concatenate([np.asarray(b_ub, dtype=float), np.asarray(b_eq, dtype=float)])

        self.base_lower = np.asarray(lower, dtype=float)
        self.base_upper = np.asarray(upper, dtype=float)
        self.slack_lower = np.zeros(self.m)
        self.slack_upper = np.concatenate([np.full(self.m_ub, np.inf), np.zeros(self.m_eq)])
        self.c_total = np.concatenate([self.c, np.zeros(self.m)])

    def _matvec(self, x: np.ndarray) -> np.ndarray:
        """``[A | I] @ x`` over the raw CSC arrays."""
        if self.m == 0:
            return np.zeros(0)
        return np.bincount(
            self._indices, weights=self._data * x[self._col_of], minlength=self.m
        )

    def _rmatvec(self, y: np.ndarray) -> np.ndarray:
        """``[A | I].T @ y`` over the raw CSC arrays."""
        if len(self._data) == 0:
            return np.zeros(self.n_total)
        return np.bincount(
            self._col_of, weights=self._data * y[self._indices], minlength=self.n_total
        )

    # -- helpers ---------------------------------------------------------------------
    def _column(self, j: int) -> np.ndarray:
        col = np.zeros(self.m)
        s, e = self._indptr[j], self._indptr[j + 1]
        col[self._indices[s:e]] = self._data[s:e]
        return col

    def _invert_basis(self, basic_idx: np.ndarray) -> np.ndarray | None:
        """Dense inverse of the basis matrix gathered from the CSC arrays."""
        m = self.m
        basis_mat = np.zeros((m, m))
        starts = self._indptr[basic_idx]
        lengths = self._indptr[basic_idx + 1] - starts
        total = int(lengths.sum())
        if total:
            # Concatenated [starts[k], starts[k]+lengths[k]) ranges.
            offsets = np.repeat(np.cumsum(lengths) - lengths, lengths)
            flat = np.arange(total) - offsets + np.repeat(starts, lengths)
            col_of = np.repeat(np.arange(m), lengths)
            basis_mat[self._indices[flat], col_of] = self._data[flat]
        try:
            b_inv = np.linalg.inv(basis_mat)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(b_inv)):
            return None
        return b_inv

    def _cold_status(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        status = np.full(self.n_total, NB_FREE, dtype=np.int8)
        finite_lo = np.isfinite(lo)
        finite_hi = np.isfinite(hi)
        status[finite_lo] = NB_LOWER
        status[~finite_lo & finite_hi] = NB_UPPER
        basic_idx = np.arange(self.n, self.n_total, dtype=np.int64)
        status[basic_idx] = BASIC
        return status, basic_idx

    def _adopt_basis(
        self, basis: Basis, lo: np.ndarray, hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Validate and adapt a warm basis to the current bounds."""
        if basis.num_columns != self.n_total or basis.num_rows != self.m:
            return None
        status = basis.status.astype(np.int8, copy=True)
        basic_idx = basis.basic_idx.astype(np.int64, copy=True)
        if np.any(basic_idx < 0) or np.any(basic_idx >= self.n_total):
            return None
        if len(np.unique(basic_idx)) != self.m:
            return None
        if not np.all(status[basic_idx] == BASIC) or np.count_nonzero(status == BASIC) != self.m:
            return None
        # Nonbasic columns must rest on a *finite* bound under the new box —
        # and a previously-free column whose bounds became finite may no
        # longer sit at 0 (phase 1 only repairs *basic* violations, so an
        # out-of-box nonbasic would go unnoticed and corrupt the solve).
        nonbasic = status != BASIC
        at_lower = nonbasic & (status == NB_LOWER) & ~np.isfinite(lo)
        status[at_lower & np.isfinite(hi)] = NB_UPPER
        status[at_lower & ~np.isfinite(hi)] = NB_FREE
        at_upper = nonbasic & (status == NB_UPPER) & ~np.isfinite(hi)
        status[at_upper & np.isfinite(lo)] = NB_LOWER
        status[at_upper & ~np.isfinite(lo)] = NB_FREE
        at_free = nonbasic & (status == NB_FREE)
        status[at_free & np.isfinite(lo)] = NB_LOWER
        status[at_free & ~np.isfinite(lo) & np.isfinite(hi)] = NB_UPPER
        return status, basic_idx

    def _nonbasic_values(
        self, status: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        x = np.zeros(self.n_total)
        at_lo = status == NB_LOWER
        at_hi = status == NB_UPPER
        x[at_lo] = lo[at_lo]
        x[at_hi] = hi[at_hi]
        return x

    def _recompute_basics(
        self, x: np.ndarray, basic_idx: np.ndarray, b_inv: np.ndarray
    ) -> None:
        x[basic_idx] = 0.0
        x[basic_idx] = b_inv @ (self.b - self._matvec(x))

    # -- main entry point --------------------------------------------------------------
    def solve(
        self,
        lower: np.ndarray | None = None,
        upper: np.ndarray | None = None,
        basis: Basis | None = None,
        max_iter: int = 20_000,
    ) -> tuple[LPSolution, Basis | None]:
        """Solve with optional structural-bound overrides and warm basis.

        Returns the solution (``x`` restricted to structural variables) and
        the final basis when the solve reached a conclusive status, so callers
        can thread it into the next, similar solve.
        """
        start = time.perf_counter()
        lo = np.concatenate([
            self.base_lower if lower is None else np.asarray(lower, dtype=float),
            self.slack_lower,
        ])
        hi = np.concatenate([
            self.base_upper if upper is None else np.asarray(upper, dtype=float),
            self.slack_upper,
        ])

        warm = False

        def _fail(status: SolveStatus, iterations: int = 0, objective: float = np.nan):
            return (
                LPSolution(status, np.full(self.n, np.nan), objective, iterations,
                           time.perf_counter() - start, warm_used=warm),
                None,
            )

        if np.any(lo[: self.n] > hi[: self.n] + _FEAS_TOL):
            return _fail(SolveStatus.INFEASIBLE)

        adopted = self._adopt_basis(basis, lo, hi) if basis is not None else None
        warm = adopted is not None
        status, basic_idx = adopted if warm else self._cold_status(lo, hi)
        b_inv = self._invert_basis(basic_idx)
        if b_inv is None and warm:
            status, basic_idx = self._cold_status(lo, hi)
            b_inv = self._invert_basis(basic_idx)
            warm = False
        if b_inv is None:  # all-slack basis is the identity; this cannot happen
            return _fail(SolveStatus.ERROR)

        x = self._nonbasic_values(status, lo, hi)
        self._recompute_basics(x, basic_idx, b_inv)
        if not np.all(np.isfinite(x[basic_idx])):
            if not warm:
                return _fail(SolveStatus.ERROR)
            status, basic_idx = self._cold_status(lo, hi)
            b_inv = self._invert_basis(basic_idx)
            x = self._nonbasic_values(status, lo, hi)
            self._recompute_basics(x, basic_idx, b_inv)

        iterations = 0
        pivots_since_refactor = 0
        degenerate_run = 0
        bland = False
        # Columns fixed to a point (equality slacks, fixed variables) may
        # never enter the basis: a zero-length bound flip would cycle.  The
        # negated comparison keeps free columns (inf - -inf = nan) enterable.
        enterable = ~((hi - lo) <= _FEAS_TOL)

        while iterations < max_iter:
            xb = x[basic_idx]
            lob = lo[basic_idx]
            hib = hi[basic_idx]
            viol_low = xb < lob - _FEAS_TOL
            viol_up = xb > hib + _FEAS_TOL
            phase_one = bool(np.any(viol_low) or np.any(viol_up))

            if phase_one:
                cb = np.zeros(self.m)
                cb[viol_low] = -1.0
                cb[viol_up] = 1.0
            else:
                cb = self.c_total[basic_idx]
            y = b_inv.T @ cb
            d = -self._rmatvec(y)
            if not phase_one:
                d += self.c_total
            d[basic_idx] = 0.0

            improving = enterable & (
                ((status == NB_LOWER) & (d < -_OPT_TOL))
                | ((status == NB_UPPER) & (d > _OPT_TOL))
                | ((status == NB_FREE) & (np.abs(d) > _OPT_TOL))
            )
            candidates = np.flatnonzero(improving)
            if candidates.size == 0:
                if phase_one:
                    return (
                        LPSolution(SolveStatus.INFEASIBLE, np.full(self.n, np.nan), np.nan,
                                   iterations, time.perf_counter() - start, warm_used=warm),
                        Basis(status.copy(), basic_idx.copy()),
                    )
                x_struct = x[: self.n].copy()
                objective = float(self.c @ x_struct)
                return (
                    LPSolution(SolveStatus.OPTIMAL, x_struct, objective, iterations,
                               time.perf_counter() - start, warm_used=warm),
                    Basis(status.copy(), basic_idx.copy()),
                )

            if bland:
                q = int(candidates[0])
            else:
                q = int(candidates[np.argmax(np.abs(d[candidates]))])
            direction = 1.0 if (status[q] == NB_LOWER or (status[q] == NB_FREE and d[q] < 0)) else -1.0

            w = b_inv @ self._column(q)
            delta = -direction * w  # x_B moves by t * delta

            # -- ratio test ---------------------------------------------------
            rates = delta
            t_rows = np.full(self.m, np.inf)
            feasible_rows = ~(viol_low | viol_up)

            dec = feasible_rows & (rates < -_PIVOT_TOL) & np.isfinite(lob)
            t_rows[dec] = (lob[dec] - xb[dec]) / rates[dec]
            inc = feasible_rows & (rates > _PIVOT_TOL) & np.isfinite(hib)
            t_rows[inc] = (hib[inc] - xb[inc]) / rates[inc]
            # Violated basics block exactly when they re-enter their box —
            # crossing the violated bound would flip their phase-1 cost.
            low_back = viol_low & (rates > _PIVOT_TOL)
            t_rows[low_back] = (lob[low_back] - xb[low_back]) / rates[low_back]
            up_back = viol_up & (rates < -_PIVOT_TOL)
            t_rows[up_back] = (hib[up_back] - xb[up_back]) / rates[up_back]
            t_rows = np.maximum(t_rows, 0.0)

            t_flip = hi[q] - lo[q] if np.isfinite(hi[q] - lo[q]) else np.inf
            t_block = float(np.min(t_rows)) if self.m else np.inf
            t = min(t_block, t_flip)

            if not np.isfinite(t):
                if phase_one:
                    # Numerically impossible (the phase-1 objective is bounded
                    # below by zero); bail out rather than loop.
                    return _fail(SolveStatus.ERROR, iterations)
                return _fail(SolveStatus.UNBOUNDED, iterations, objective=-np.inf)

            if t < 1e-11:
                degenerate_run += 1
                if degenerate_run > 2 * self.n_total:
                    bland = True
            else:
                degenerate_run = 0
                bland = False

            if t_flip <= t_block:
                # Bound flip: the entering column swaps ends without a pivot.
                status[q] = NB_UPPER if status[q] == NB_LOWER else NB_LOWER
                x[q] = hi[q] if status[q] == NB_UPPER else lo[q]
                x[basic_idx] = xb + t * delta
            else:
                tied = np.flatnonzero(t_rows <= t + 1e-12)
                if bland:
                    r = int(tied[np.argmin(basic_idx[tied])])
                else:
                    magnitudes = np.abs(rates[tied])
                    best = magnitudes >= magnitudes.max() - 1e-12
                    strongest = tied[best]
                    r = int(strongest[np.argmin(basic_idx[strongest])])
                pivot = w[r]
                if abs(pivot) < 1e-9 and pivots_since_refactor > 0:
                    # Numerically degraded inverse: refactorize and retry the
                    # iteration with exact data.
                    b_inv = self._invert_basis(basic_idx)
                    if b_inv is None:
                        return _fail(SolveStatus.ERROR, iterations)
                    self._recompute_basics(x, basic_idx, b_inv)
                    pivots_since_refactor = 0
                    continue
                if abs(pivot) < _PIVOT_TOL:
                    return _fail(SolveStatus.ERROR, iterations)

                leaving = int(basic_idx[r])
                # Move the basics, snap the leaving variable onto the bound it
                # hit, and seat the entering variable at its new value.
                x[basic_idx] = xb + t * delta
                if rates[r] < 0.0:
                    x[leaving] = lob[r] if not viol_up[r] else hib[r]
                    status[leaving] = NB_LOWER if not viol_up[r] else NB_UPPER
                else:
                    x[leaving] = hib[r] if not viol_low[r] else lob[r]
                    status[leaving] = NB_UPPER if not viol_low[r] else NB_LOWER
                base = lo[q] if status[q] == NB_LOWER else (hi[q] if status[q] == NB_UPPER else 0.0)
                status[q] = BASIC
                basic_idx[r] = q
                x[q] = base + direction * t

                pivots_since_refactor += 1
                if pivots_since_refactor >= _REFACTOR_PERIOD:
                    b_inv = self._invert_basis(basic_idx)
                    if b_inv is None:
                        return _fail(SolveStatus.ERROR, iterations)
                    self._recompute_basics(x, basic_idx, b_inv)
                    pivots_since_refactor = 0
                else:
                    # Product-form (eta) update of the inverse: the basis
                    # changed by one column, so B⁻¹ changes by one rank-1
                    # elimination — O(m²) instead of a fresh O(m³) inverse.
                    b_inv[r, :] /= pivot
                    factors = w.copy()
                    factors[r] = 0.0
                    b_inv -= np.outer(factors, b_inv[r, :])

            iterations += 1

        return _fail(SolveStatus.ITERATION_LIMIT, iterations)


def _coo_rows(matrix) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Coordinate triplets (rows, cols, data) plus row count of a block.

    Accepts dense arrays and any CSR-layout object
    (:class:`~repro.milp.sparse.CsrMatrix` or ``scipy.sparse.csr_matrix``);
    empty blocks of any shape collapse to zero rows.
    """
    if hasattr(matrix, "indptr") and hasattr(matrix, "indices") and hasattr(matrix, "data"):
        m = int(matrix.shape[0])
        indptr = np.asarray(matrix.indptr, dtype=np.int64)
        rows = np.repeat(np.arange(m), np.diff(indptr))
        return (
            rows,
            np.asarray(matrix.indices, dtype=np.int64),
            np.asarray(matrix.data, dtype=float),
            m,
        )
    dense = np.asarray(matrix, dtype=float)
    if dense.ndim != 2 or dense.size == 0:
        m = dense.shape[0] if dense.ndim == 2 else 0
        return (
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0),
            m,
        )
    rows, cols = np.nonzero(dense)
    return rows.astype(np.int64), cols.astype(np.int64), dense[rows, cols], dense.shape[0]


def solve_lp_revised(
    c: np.ndarray,
    a_ub: np.ndarray,
    b_ub: np.ndarray,
    a_eq: np.ndarray,
    b_eq: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    max_iter: int = 20_000,
    basis: Basis | None = None,
) -> tuple[LPSolution, Basis | None]:
    """One-shot wrapper over :class:`BoundedLP` with the classic array signature."""
    c = np.asarray(c, dtype=float)
    n = len(c)
    a_ub = np.asarray(a_ub, dtype=float).reshape(-1, n) if np.size(a_ub) else np.zeros((0, n))
    a_eq = np.asarray(a_eq, dtype=float).reshape(-1, n) if np.size(a_eq) else np.zeros((0, n))
    lp = BoundedLP(c, a_ub, np.asarray(b_ub, dtype=float).ravel(), a_eq,
                   np.asarray(b_eq, dtype=float).ravel(), lower, upper)
    return lp.solve(basis=basis, max_iter=max_iter)

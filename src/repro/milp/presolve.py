"""Presolve for :class:`~repro.milp.problem.StandardForm` problems.

Three classic reductions run to a fixpoint before the native solver sees a
problem:

* **bound tightening** — every row's minimum activity implies a bound on each
  of its variables; integer variables additionally round the implied bound
  inward.  On WaterWise placement forms this is the reduction that matters:
  a delay row ``Σ_n (L_mn / t_m) · x_mn ≤ TOL_m`` with a ratio above the
  tolerance forces that placement binary to zero.
* **fixed-variable elimination** — integer variables with ``lower == upper``,
  and variables whose bounds were already equal on input, are substituted
  into the right-hand sides and the objective constant.  A continuous
  variable whose box merely *collapsed* under tightening stays in the
  problem: fixing it at a bound that is off by the tolerance would let a
  steep equality row amplify the error into a false infeasibility.
* **redundant-row removal** — rows whose maximum activity already satisfies
  the bound are dropped (after the two reductions above, the delay rows of a
  hard placement form all disappear, leaving a pure transportation problem).

The pass also detects trivial infeasibility (crossed bounds, rows whose
minimum activity exceeds the right-hand side).  :meth:`PresolvedForm.postsolve`
maps a solution of the reduced problem back to the original variable space.
All comparisons use a 1e-9 feasibility margin so no point that the unreduced
problem accepts is ever cut off.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.milp.problem import StandardForm

__all__ = ["PresolveStats", "PresolvedForm", "presolve"]

_TOL = 1e-9
_MAX_PASSES = 10
#: A continuous column whose finite box is narrower than this (relative to
#: its magnitude) is no longer tightened: its bounds already pin it to the
#: feasible point, and further shrinking only compounds rounding error.
_NARROW_BOX = 1e-7


@dataclasses.dataclass
class PresolveStats:
    """What presolve removed (fed into the solver session's counters)."""

    rows_before: int = 0
    rows_after: int = 0
    cols_before: int = 0
    cols_after: int = 0
    bounds_tightened: int = 0
    passes: int = 0

    @property
    def row_ratio(self) -> float:
        """Fraction of rows that survived presolve (1.0 = nothing removed)."""
        return self.rows_after / self.rows_before if self.rows_before else 1.0

    @property
    def col_ratio(self) -> float:
        return self.cols_after / self.cols_before if self.cols_before else 1.0


@dataclasses.dataclass
class PresolvedForm:
    """Reduced problem arrays plus the mapping back to the original space."""

    infeasible: bool
    c: np.ndarray
    c0: float
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray
    kept_cols: np.ndarray  # indices into the original columns
    fixed_values: np.ndarray  # full-length; meaningful where a column was fixed
    n_original: int
    stats: PresolveStats

    @property
    def num_variables(self) -> int:
        return len(self.c)

    def postsolve(self, x_reduced: np.ndarray) -> np.ndarray:
        """Solution of the reduced problem → original variable space."""
        x = self.fixed_values.copy()
        x[self.kept_cols] = x_reduced
        return x


def _activity_bounds(
    a: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (min, max) activity of ``a @ x`` over the variable box.

    Every infinite contribution to the minimum activity is ``-inf`` (positive
    coefficient on an unbounded-below variable or negative coefficient on an
    unbounded-above one), and symmetrically ``+inf`` for the maximum, so the
    finite part can be summed separately from an infinity mask.
    """
    pos = np.where(a > 0.0, a, 0.0)
    neg = np.where(a < 0.0, a, 0.0)
    lo_finite = np.where(np.isfinite(lower), lower, 0.0)
    up_finite = np.where(np.isfinite(upper), upper, 0.0)

    min_act = pos @ lo_finite + neg @ up_finite
    max_act = pos @ up_finite + neg @ lo_finite

    lo_inf = ~np.isfinite(lower)
    up_inf = ~np.isfinite(upper)
    min_unbounded = (pos[:, lo_inf] != 0.0).any(axis=1) | (neg[:, up_inf] != 0.0).any(axis=1)
    max_unbounded = (pos[:, up_inf] != 0.0).any(axis=1) | (neg[:, lo_inf] != 0.0).any(axis=1)
    min_act[min_unbounded] = -np.inf
    max_act[max_unbounded] = np.inf
    return min_act, max_act


def _tighten_from_rows(
    a: np.ndarray,
    rhs: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    integrality: np.ndarray,
) -> int:
    """Tighten variable bounds implied by ``a @ x <= rhs`` rows, in place.

    For a row ``i`` with finite minimum activity, variable ``j`` must satisfy
    ``a_ij * x_j <= rhs_i - (min_act_i - a_ij-contribution_j)``.  Implied
    bounds are rounded inward for integer variables and only applied when they
    strictly improve by more than the tolerance (so floating-point noise can
    never oscillate the fixpoint loop).  Continuous variables whose finite box
    is already narrower than :data:`_NARROW_BOX` relative are left alone.
    """
    tightened = 0
    min_act, _ = _activity_bounds(a, lower, upper)
    for i in range(a.shape[0]):
        row = a[i]
        support = np.flatnonzero(row)
        if support.size == 0:
            continue
        for j in support:
            if not integrality[j]:
                width = upper[j] - lower[j]
                scale = 1.0 + max(abs(lower[j]), abs(upper[j]))
                if np.isfinite(width) and width < _NARROW_BOX * scale:
                    continue
            coeff = row[j]
            # Minimum activity of the row *excluding* variable j.
            own_min = coeff * lower[j] if coeff > 0.0 else coeff * upper[j]
            if np.isfinite(min_act[i]):
                rest = min_act[i] - own_min
            else:
                rest_min, _ = _activity_bounds(
                    np.delete(row, j)[None, :], np.delete(lower, j), np.delete(upper, j)
                )
                rest = rest_min[0]
            if not np.isfinite(rest):
                continue
            headroom = rhs[i] - rest
            if coeff > 0.0:
                implied = headroom / coeff
                if integrality[j]:
                    implied = np.floor(implied + _TOL)
                if implied < upper[j] - _TOL:
                    upper[j] = implied
                    tightened += 1
            else:
                implied = headroom / coeff
                if integrality[j]:
                    implied = np.ceil(implied - _TOL)
                if implied > lower[j] + _TOL:
                    lower[j] = implied
                    tightened += 1
    return tightened


def presolve(form: StandardForm) -> PresolvedForm:
    """Run the reduction fixpoint on ``form`` and return the reduced arrays."""
    c = form.c.astype(float).copy()
    a_ub = np.asarray(form.a_ub, dtype=float).copy()
    b_ub = np.asarray(form.b_ub, dtype=float).copy()
    a_eq = np.asarray(form.a_eq, dtype=float).copy()
    b_eq = np.asarray(form.b_eq, dtype=float).copy()
    lower = form.lower.astype(float).copy()
    upper = form.upper.astype(float).copy()
    integrality = form.integrality.copy()
    equal_on_input = lower == upper
    n = len(c)

    stats = PresolveStats(
        rows_before=a_ub.shape[0] + a_eq.shape[0],
        rows_after=a_ub.shape[0] + a_eq.shape[0],
        cols_before=n,
        cols_after=n,
    )
    kept_cols = np.arange(n)
    fixed_values = np.zeros(n)
    c0 = float(form.c0)

    def _infeasible() -> PresolvedForm:
        return PresolvedForm(
            infeasible=True,
            c=c, c0=c0, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
            lower=lower, upper=upper, integrality=integrality,
            kept_cols=kept_cols, fixed_values=fixed_values, n_original=n,
            stats=stats,
        )

    for _ in range(_MAX_PASSES):
        stats.passes += 1
        changed = False

        # Integer bounds snap to integers before anything else.
        lower[integrality] = np.ceil(lower[integrality] - _TOL)
        upper[integrality] = np.floor(upper[integrality] + _TOL)
        if np.any(lower > upper + _TOL):
            return _infeasible()

        # -- bound tightening (ub rows, and both directions of eq rows) ------
        tightened = _tighten_from_rows(a_ub, b_ub, lower, upper, integrality)
        tightened += _tighten_from_rows(a_eq, b_eq, lower, upper, integrality)
        tightened += _tighten_from_rows(-a_eq, -b_eq, lower, upper, integrality)
        if tightened:
            stats.bounds_tightened += tightened
            changed = True
        if np.any(lower > upper + _TOL):
            return _infeasible()

        # -- fixed-variable elimination --------------------------------------
        fixed = ((upper - lower) <= _TOL) & (integrality | equal_on_input)
        if np.any(fixed):
            values = lower.copy()
            values[integrality & fixed] = np.round(values[integrality & fixed])
            fixed_values[kept_cols[fixed]] = values[fixed]
            c0 += float(c[fixed] @ values[fixed])
            if a_ub.shape[0]:
                b_ub = b_ub - a_ub[:, fixed] @ values[fixed]
            if a_eq.shape[0]:
                b_eq = b_eq - a_eq[:, fixed] @ values[fixed]
            keep = ~fixed
            c = c[keep]
            a_ub = a_ub[:, keep]
            a_eq = a_eq[:, keep]
            lower = lower[keep]
            upper = upper[keep]
            integrality = integrality[keep]
            equal_on_input = equal_on_input[keep]
            kept_cols = kept_cols[keep]
            changed = True

        # -- redundant-row removal / row infeasibility -----------------------
        if a_ub.shape[0]:
            min_act, max_act = _activity_bounds(a_ub, lower, upper)
            if np.any(min_act > b_ub + _TOL):
                return _infeasible()
            redundant = max_act <= b_ub + _TOL
            if np.any(redundant):
                a_ub = a_ub[~redundant]
                b_ub = b_ub[~redundant]
                changed = True
        if a_eq.shape[0]:
            min_act, max_act = _activity_bounds(a_eq, lower, upper)
            if np.any(min_act > b_eq + _TOL) or np.any(max_act < b_eq - _TOL):
                return _infeasible()
            redundant = (np.abs(min_act - b_eq) <= _TOL) & (np.abs(max_act - b_eq) <= _TOL)
            if np.any(redundant):
                a_eq = a_eq[~redundant]
                b_eq = b_eq[~redundant]
                changed = True

        if not changed:
            break

    stats.rows_after = a_ub.shape[0] + a_eq.shape[0]
    stats.cols_after = len(c)
    return PresolvedForm(
        infeasible=False,
        c=c, c0=c0, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq,
        lower=lower, upper=upper, integrality=integrality,
        kept_cols=kept_cols, fixed_values=fixed_values, n_original=n,
        stats=stats,
    )

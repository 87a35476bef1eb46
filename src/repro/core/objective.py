"""Construction of the WaterWise placement MILP (Eq. 7–13).

Given a batch of M jobs and N candidate regions, :func:`placement_cost` turns
the round's carbon and water footprint matrices into the per-placement
objective coefficients (Eq. 7–8), and :func:`build_placement_form` builds the
MILP directly as a :class:`~repro.milp.problem.StandardForm` with:

* binary placement variables ``x[m, n]``,
* the normalized carbon + water objective with the history-learner reference
  term (Eq. 8) and, in soft mode, the penalty terms (Eq. 12),
* the assignment constraint (Eq. 9), the per-region capacity constraint
  (Eq. 10), and the delay-tolerance constraint — hard (Eq. 11) or softened
  through per-(m, n) penalty variables (Eq. 13).

This is the one place the paper's MILP is built: the scalar decision
controller and the batch engines' fast path both call it.  The per-job delay
allowance passed in is already reduced by the time the job has spent waiting
in previous rounds, so a job that was deferred keeps a consistent end-to-end
tolerance.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import WaterWiseConfig
from repro.milp.problem import StandardForm
from repro.milp.structure import PlacementStructure, attach_structure

__all__ = ["build_placement_form", "placement_cost"]

#: Footprint maxima below this are treated as "no signal" to avoid divide-by-zero.
_EPSILON = 1e-12


def _normalized(matrix: np.ndarray) -> np.ndarray:
    """Normalize each row by its maximum (the paper's per-job normalization)."""
    maxima = matrix.max(axis=1, keepdims=True)
    maxima = np.where(maxima > _EPSILON, maxima, 1.0)
    return matrix / maxima


def placement_cost(
    carbon: np.ndarray,
    water: np.ndarray,
    config: WaterWiseConfig,
    co2_ref: np.ndarray | None = None,
    h2o_ref: np.ndarray | None = None,
    extra_cost: np.ndarray | None = None,
) -> np.ndarray:
    """Per-placement objective coefficients (Eq. 7–8) from the M×N matrices.

    Each footprint matrix is normalized per job (row maximum), blended with
    the λ weights and shifted by the per-region history reference (zeros
    when omitted; one entry per region).  ``extra_cost`` is an optional
    pre-weighted (M × N) additive term — the hook extensions such as the
    cost-aware scheduler use.  The single implementation of the cost
    formula, shared by the scalar decision controller and the batch fast
    path (:mod:`repro.core.fastpath`) so both produce bit-identical MILP
    objectives.
    """
    n_regions = carbon.shape[1]
    carbon_norm = _normalized(carbon)
    water_norm = _normalized(water)

    if co2_ref is None:
        co2_ref = np.zeros(n_regions)
    if h2o_ref is None:
        h2o_ref = np.zeros(n_regions)
    co2_ref = np.asarray(co2_ref, dtype=float)
    h2o_ref = np.asarray(h2o_ref, dtype=float)
    if co2_ref.shape != (n_regions,) or h2o_ref.shape != (n_regions,):
        raise ValueError("reference terms must have one entry per region")

    reference = config.lambda_ref * (
        config.lambda_co2 * co2_ref + config.lambda_h2o * h2o_ref
    )
    cost = (
        config.lambda_co2 * carbon_norm
        + config.lambda_h2o * water_norm
        + reference[None, :]
    )
    if extra_cost is not None:
        extra_cost = np.asarray(extra_cost, dtype=float)
        if extra_cost.shape != cost.shape:
            raise ValueError(
                f"extra_cost must have shape {cost.shape}, got {extra_cost.shape}"
            )
        cost = cost + extra_cost
    return cost


def build_placement_form(
    cost: np.ndarray,
    latency_ratio: np.ndarray,
    tolerance: np.ndarray,
    servers_required: np.ndarray,
    capacity: np.ndarray,
    config: WaterWiseConfig,
    soft: bool = False,
) -> StandardForm:
    """The placement MILP for one round (Eq. 8–13) as a ``StandardForm``.

    ``cost`` is the (M × N) objective from :func:`placement_cost`,
    ``latency_ratio`` the transfer latency over execution time per
    placement, ``tolerance`` each job's remaining delay allowance,
    ``servers_required`` each job's server demand and ``capacity`` each
    region's free servers.  Variables are the ``x`` placement binaries
    (m-major, n-minor), then — when ``soft`` — one non-negative penalty
    variable per placement, weighted by ``config.penalty_weight``.  Rows
    are the assignment equalities, then the capacity rows, then the delay
    rows.
    """
    m_jobs, n_regions = cost.shape
    n_x = m_jobs * n_regions
    n_vars = 2 * n_x if soft else n_x

    c = np.zeros(n_vars)
    c[:n_x] = cost.ravel()
    if soft:
        c[n_x:] = config.penalty_weight

    # Eq. 9: each job is placed in exactly one region.
    a_eq = np.zeros((m_jobs, n_vars))
    rows = np.repeat(np.arange(m_jobs), n_regions)
    cols = np.arange(n_x)
    a_eq[rows, cols] = 1.0
    b_eq = np.ones(m_jobs)

    # Eq. 10 (capacity) then Eq. 11/13 (delay) rows.
    a_ub = np.zeros((n_regions + m_jobs, n_vars))
    servers = np.asarray(servers_required, dtype=float)
    capacity_rows = np.tile(np.arange(n_regions), m_jobs)
    a_ub[capacity_rows, cols] = np.repeat(servers, n_regions)
    delay_rows = n_regions + rows
    a_ub[delay_rows, cols] = latency_ratio.ravel()
    if soft:
        a_ub[delay_rows, n_x + cols] = -1.0
    b_ub = np.concatenate(
        [np.asarray(capacity, dtype=float), np.asarray(tolerance, dtype=float)]
    )

    lower = np.zeros(n_vars)
    upper = np.ones(n_vars)
    integrality = np.zeros(n_vars, dtype=bool)
    integrality[:n_x] = True
    if soft:
        upper[n_x:] = np.inf

    form = StandardForm(
        c=c,
        c0=0.0,
        a_ub=a_ub,
        b_ub=b_ub,
        a_eq=a_eq,
        b_eq=b_eq,
        lower=lower,
        upper=upper,
        integrality=integrality,
        maximize=False,
    )
    # This function *is* the placement layout the structure-aware solver path
    # recognizes; attaching the matrices directly spares the per-round scan.
    return attach_structure(
        form,
        PlacementStructure(
            m_jobs=m_jobs,
            n_regions=n_regions,
            soft=soft,
            penalty_weight=float(config.penalty_weight) if soft else 0.0,
            cost=np.asarray(cost, dtype=float),
            latency_ratio=np.asarray(latency_ratio, dtype=float),
            tolerance=np.asarray(tolerance, dtype=float),
            servers=servers,
            capacity=np.asarray(capacity, dtype=float),
        ),
    )

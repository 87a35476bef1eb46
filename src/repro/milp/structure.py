"""Structure-aware solve path for WaterWise placement forms.

:func:`repro.core.objective.build_placement_form` emits MILPs with a rigid
shape — assignment equalities, capacity rows, delay rows, optionally
per-placement penalty columns.  :func:`detect_placement` recognizes that shape
(from the structure ``build_placement_form`` attaches, or by scanning the raw
arrays of any other form) and recovers the scheduling matrices;
:func:`solve_placement` then exploits two structural facts the generic
solvers cannot see:

* **Delay rows couple to the assignment rows.**  Exactly one placement binary
  per job is 1, so a hard delay row forbids precisely the placements whose
  latency ratio exceeds the tolerance — and in soft mode the optimal penalty
  for a placement is ``σ · max(0, ratio − TOL)``, a constant that folds into
  the objective coefficient.  Either way the MILP collapses to a pure
  capacitated assignment (transportation) problem.
* **The collapsed problem is usually trivially or LP-solvable.**  When every
  job's cheapest allowed region leaves capacity slack, the per-job argmin *is*
  the optimum — no simplex at all.  Otherwise the LP relaxation is solved;
  assignment/capacity structure makes it integral in almost every round, in
  which case branch & bound is skipped entirely.  Fractional relaxations
  (possible because ``servers_required`` varies per job) fall back to branch
  & bound on the *collapsed* form, which is both smaller and warm-startable.

The relaxation engine is size-gated: ordinary rounds run on the warm-started
native revised simplex (sessions carry the previous round's basis), while the
rare saturated rounds — hundreds of jobs competing for the last server slots
— go to HiGHS when SciPy is importable, whose dual simplex handles
thousand-variable transportation LPs in milliseconds.  The gate depends only
on the problem dimensions, so the scalar and batch engines always pick the
same engine and stay decision-equivalent.

Every answer is exact: the collapsed problem has the same integer feasible
set and objective values as the original MILP, so optima transfer verbatim.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np

from repro.milp.problem import StandardForm
from repro.milp.revised_simplex import BoundedLP
from repro.milp.session import SolverSession
from repro.milp.sparse import CsrMatrix
from repro.milp.status import LPSolution, SolveStatus

__all__ = ["PlacementStructure", "detect_placement", "solve_placement"]

_FEAS_TOL = 1e-9
_INT_TOL = 1e-6
#: Collapsed problems with more variables than this go to HiGHS (when SciPy
#: is importable).  Warm bases are keyed by the collapsed problem's exact
#: dimensions, and scheduling-round batch sizes vary round to round, so
#: mid-size rounds hit the native engine cold far more often than warm —
#: where HiGHS is a large multiple faster (measured ~5 ms vs ~35 ms at a few
#: hundred variables).  Only small rounds, where the native engine solves in
#: well under a millisecond either way, stay native.  The gate is a pure
#: function of the problem dimensions so every engine/run makes the same
#: choice.
_LARGE_LP_VARIABLES = 48


@dataclasses.dataclass(frozen=True)
class PlacementStructure:
    """The scheduling matrices recovered from a placement ``StandardForm``."""

    m_jobs: int
    n_regions: int
    soft: bool
    penalty_weight: float
    cost: np.ndarray  # (M, N)
    latency_ratio: np.ndarray  # (M, N)
    tolerance: np.ndarray  # (M,)
    servers: np.ndarray  # (M,)
    capacity: np.ndarray  # (N,)


def attach_structure(form: StandardForm, struct: PlacementStructure) -> StandardForm:
    """Cache a known structure on a form (used by ``build_placement_form``,
    which assembles the arrays *from* these matrices and therefore knows the
    structure by construction — re-deriving it would be pure overhead in the
    per-round hot path)."""
    object.__setattr__(form, "_placement_structure", struct)
    return form


def detect_placement(form: StandardForm) -> PlacementStructure | None:
    """Recognize the placement-MILP layout; ``None`` for anything else.

    The checks mirror :func:`repro.core.objective.build_placement_form` field
    for field, so a form that passes is *bit-identical* to one built there and
    the recovered matrices are exact.  Forms that were built by
    ``build_placement_form`` carry the structure directly (see
    :func:`attach_structure`) and skip the scan.
    """
    cached = form.__dict__.get("_placement_structure")
    if cached is not None:
        return cached
    if form.maximize or form.c0 != 0.0:
        return None
    if not isinstance(form.a_ub, np.ndarray) or not isinstance(form.a_eq, np.ndarray):
        return None  # the scan reads dense blocks (collapsed forms are CSR)
    m_jobs = form.a_eq.shape[0]
    if m_jobs == 0:
        return None
    n_regions = form.a_ub.shape[0] - m_jobs
    if n_regions <= 0:
        return None
    n_x = m_jobs * n_regions
    n_vars = form.num_variables
    if n_vars == n_x:
        soft = False
    elif n_vars == 2 * n_x:
        soft = True
    else:
        return None

    integrality = form.integrality
    if not integrality[:n_x].all() or integrality[n_x:].any():
        return None
    if (form.lower != 0.0).any():
        return None
    if (form.upper[:n_x] != 1.0).any() or not np.isinf(form.upper[n_x:]).all():
        return None
    if (form.b_eq != 1.0).any():
        return None

    # Assignment block: row m selects columns [m·N, (m+1)·N) with coefficient 1.
    eq_x = form.a_eq[:, :n_x].reshape(m_jobs, m_jobs, n_regions)
    diag = np.einsum("mmn->mn", eq_x)
    if (diag != 1.0).any() or np.count_nonzero(form.a_eq) != n_x:
        return None

    # Capacity block: column (m, n) has coefficient servers_m in capacity row n.
    cap_x = form.a_ub[:n_regions, :n_x].reshape(n_regions, m_jobs, n_regions)
    servers_mn = np.einsum("nmn->mn", cap_x)
    servers = servers_mn[:, 0]
    if (servers_mn != servers[:, None]).any() or (servers < 0.0).any():
        return None
    remainder = cap_x.copy()
    remainder[np.arange(n_regions), :, np.arange(n_regions)] = 0.0
    if remainder.any() or form.a_ub[:n_regions, n_x:].any():
        return None

    # Delay block: row N+m touches columns (m, ·) only, with ratios ≥ 0.
    delay_x = form.a_ub[n_regions:, :n_x].reshape(m_jobs, m_jobs, n_regions)
    latency = np.einsum("mmn->mn", delay_x).copy()
    if (latency < 0.0).any():
        return None
    remainder = delay_x.copy()
    remainder[np.arange(m_jobs), np.arange(m_jobs), :] = 0.0
    if remainder.any():
        return None

    penalty_weight = 0.0
    if soft:
        pen = form.a_ub[n_regions:, n_x:].reshape(m_jobs, m_jobs, n_regions)
        pen_diag = np.einsum("mmn->mn", pen)
        if (pen_diag != -1.0).any():
            return None
        remainder = pen.copy()
        remainder[np.arange(m_jobs), np.arange(m_jobs), :] = 0.0
        if remainder.any():
            return None
        penalty_weight = float(form.c[n_x])
        if penalty_weight < 0.0 or (form.c[n_x:] != penalty_weight).any():
            return None

    return PlacementStructure(
        m_jobs=m_jobs,
        n_regions=n_regions,
        soft=soft,
        penalty_weight=penalty_weight,
        cost=form.c[:n_x].reshape(m_jobs, n_regions).copy(),
        latency_ratio=latency,
        tolerance=form.b_ub[n_regions:].copy(),
        servers=servers.copy(),
        capacity=form.b_ub[:n_regions].copy(),
    )


def _assemble_solution(
    form: StandardForm, struct: PlacementStructure, chosen: np.ndarray
) -> tuple[np.ndarray, float]:
    """Full original-space solution vector (+ objective) for an assignment."""
    m, n = struct.m_jobs, struct.n_regions
    n_x = m * n
    x = np.zeros(form.num_variables)
    flat = np.arange(m) * n + chosen
    x[flat] = 1.0
    if struct.soft:
        violation = np.maximum(
            0.0, struct.latency_ratio[np.arange(m), chosen] - struct.tolerance
        )
        x[n_x + flat] = violation
    return x, float(form.c @ x)


def solve_placement(
    form: StandardForm,
    struct: PlacementStructure,
    session: SolverSession | None = None,
    node_limit: int = 10_000,
    time_limit: float | None = None,
) -> tuple[SolveStatus, np.ndarray, float, int, int, float]:
    """Solve a recognized placement form exactly.

    Returns ``(status, x, objective, iterations, nodes, solve_time)`` with
    ``x`` in the original variable space (placement binaries and, in soft
    mode, the penalty columns).
    """
    start = time.perf_counter()
    m, n = struct.m_jobs, struct.n_regions
    nan_x = np.full(form.num_variables, np.nan)
    stats = session.stats if session is not None else None
    if stats is not None:
        stats.solves += 1

    if struct.soft:
        allowed = np.ones((m, n), dtype=bool)
        eff_cost = struct.cost + struct.penalty_weight * np.maximum(
            0.0, struct.latency_ratio - struct.tolerance[:, None]
        )
    else:
        allowed = struct.latency_ratio <= struct.tolerance[:, None] + _FEAS_TOL
        if not allowed.any(axis=1).all():
            # Some job has no latency-feasible region: the MILP is infeasible
            # (the assignment equality cannot be met).
            if stats is not None:
                stats.structured_trivial += 1
                stats.solve_time_s += time.perf_counter() - start
            return SolveStatus.INFEASIBLE, nan_x, np.nan, 0, 0, time.perf_counter() - start
        eff_cost = np.where(allowed, struct.cost, np.inf)

    # -- trivial path: per-job argmin fits within capacity everywhere --------
    chosen = np.argmin(eff_cost, axis=1)
    loads = np.bincount(chosen, weights=struct.servers, minlength=n)
    if (loads <= struct.capacity + _FEAS_TOL).all():
        x, objective = _assemble_solution(form, struct, chosen)
        if stats is not None:
            stats.structured_trivial += 1
            stats.solve_time_s += time.perf_counter() - start
        return SolveStatus.OPTIMAL, x, objective, 0, 0, time.perf_counter() - start

    # -- capacity binds: transportation LP relaxation ------------------------
    reduced = _reduced_form(struct, eff_cost, allowed)
    use_scipy = reduced.num_variables > _LARGE_LP_VARIABLES and _scipy_available()
    lp: BoundedLP | None = None
    basis = None
    if use_scipy:
        sol = _scipy_relaxation(reduced, time_limit=time_limit)
    else:
        lp = BoundedLP(
            reduced.c, reduced.a_ub, reduced.b_ub, reduced.a_eq, reduced.b_eq,
            reduced.lower, reduced.upper,
        )
        key = ("placement", m, n)
        warm_basis = session.basis_for(key) if session is not None else None
        sol, basis = lp.solve(basis=warm_basis, time_limit=time_limit)
        if session is not None:
            session.record_lp(sol.iterations, sol.warm_used)
            session.store_basis(key, basis)
    if stats is not None:
        stats.structured_lp += 1

    if sol.status is SolveStatus.INFEASIBLE:
        if stats is not None:
            stats.solve_time_s += time.perf_counter() - start
        return (
            SolveStatus.INFEASIBLE, nan_x, np.nan, sol.iterations, 0,
            time.perf_counter() - start,
        )
    if sol.status is SolveStatus.OPTIMAL:
        placements = sol.x.reshape(m, n)
        if np.abs(placements - np.round(placements)).max() <= _INT_TOL:
            chosen = np.argmax(placements, axis=1)
            x, objective = _assemble_solution(form, struct, chosen)
            if stats is not None:
                stats.solve_time_s += time.perf_counter() - start
            return SolveStatus.OPTIMAL, x, objective, sol.iterations, 0, \
                time.perf_counter() - start

    # -- fractional relaxation (or LP trouble): branch & bound on the
    #    collapsed form — warm-started native B&B for ordinary sizes, HiGHS
    #    for saturated rounds.  The relaxation already spent part of the
    #    round's wall-clock budget, so only the remainder is handed on.
    remaining = None
    if time_limit is not None:
        remaining = max(0.0, time_limit - (time.perf_counter() - start))
    if use_scipy:
        from repro.milp.scipy_backend import solve_form_scipy

        status, x_red, _objective, bb_nodes, _seconds = solve_form_scipy(
            reduced, time_limit=remaining
        )
        bb_iterations = bb_nodes
    else:
        from repro.milp.branch_and_bound import solve_milp_arrays

        bb = solve_milp_arrays(
            reduced, node_limit=node_limit, time_limit=remaining, session=session,
            prepared_lp=lp, root_basis=basis,
        )
        status, x_red, bb_nodes, bb_iterations = bb.status, bb.x, bb.nodes, bb.iterations
    if stats is not None:
        stats.structured_bb += 1
        stats.bb_nodes += bb_nodes
        stats.solve_time_s += time.perf_counter() - start
    if not status.is_success and not np.all(np.isfinite(x_red)):
        return status, nan_x, np.nan, bb_iterations, bb_nodes, \
            time.perf_counter() - start
    # On a limit status branch & bound still returns its incumbent — map it
    # back (the limit status is preserved; callers decide what to do with it).
    placements = x_red.reshape(m, n)
    chosen = np.argmax(placements, axis=1)
    x, objective = _assemble_solution(form, struct, chosen)
    return status, x, objective, bb_iterations, bb_nodes, time.perf_counter() - start


def _scipy_available() -> bool:
    try:
        import scipy.optimize  # noqa: F401
    except ImportError:
        return False
    return True


def _scipy_relaxation(reduced: StandardForm, time_limit: float | None = None):
    """HiGHS on the collapsed LP relaxation (sparse constraint blocks)."""
    from scipy import optimize

    from repro.milp.scipy_backend import _LINPROG_STATUS, _as_scipy_csr

    options = {"time_limit": float(time_limit)} if time_limit is not None else None
    result = optimize.linprog(
        reduced.c,
        A_ub=_as_scipy_csr(reduced.a_ub),
        b_ub=reduced.b_ub,
        A_eq=_as_scipy_csr(reduced.a_eq),
        b_eq=reduced.b_eq,
        bounds=np.stack([reduced.lower, reduced.upper], axis=1),
        method="highs",
        options=options,
    )
    status = _LINPROG_STATUS.get(result.status, SolveStatus.ERROR)
    n = reduced.num_variables
    x = np.asarray(result.x, dtype=float) if result.x is not None else np.full(n, np.nan)
    objective = float(result.fun) if result.fun is not None else np.nan
    return LPSolution(status, x, objective, int(getattr(result, "nit", 0) or 0))


def _reduced_form(
    struct: PlacementStructure, eff_cost: np.ndarray, allowed: np.ndarray
) -> StandardForm:
    """The collapsed capacitated-assignment MILP over the placement binaries.

    The constraint blocks are built directly in CSR (the dense blocks would
    be ``(M+N) × M·N`` mostly-zero arrays); disallowed placements are fixed
    through ``upper = 0`` (not an infinite objective coefficient) so the
    arrays stay finite for every backend.
    """
    m, n = struct.m_jobs, struct.n_regions
    n_x = m * n
    c = np.where(allowed, eff_cost, 0.0).ravel()

    cols = np.arange(n_x)
    a_eq = CsrMatrix.from_coo(
        (m, n_x), np.repeat(np.arange(m), n), cols, np.ones(n_x)
    )
    a_ub = CsrMatrix.from_coo(
        (n, n_x), np.tile(np.arange(n), m), cols, np.repeat(struct.servers, n)
    )

    return StandardForm(
        c=c,
        c0=0.0,
        a_ub=a_ub,
        b_ub=struct.capacity.astype(float),
        a_eq=a_eq,
        b_eq=np.ones(m),
        lower=np.zeros(n_x),
        upper=allowed.astype(float).ravel(),
        integrality=np.ones(n_x, dtype=bool),
        maximize=False,
    )

"""MILP substrate: the array form of a problem and pluggable exact solvers.

WaterWise formulates job placement as a Mixed Integer Linear Program (the
paper uses PuLP + GLPK).  This subpackage provides the same capability from
scratch.  The placement MILP is built directly in array form
(:func:`repro.core.objective.build_placement_form`) and solved through one
entry point, :func:`~repro.milp.solver.solve_standard_form`:

* :mod:`repro.milp.problem` — :class:`~repro.milp.problem.StandardForm`, the
  dense array form every backend consumes.
* :mod:`repro.milp.sparse` — CSR constraint data carried by every form.
* :mod:`repro.milp.presolve` — fixed-variable elimination, bound tightening
  and redundant-row removal ahead of the native solvers.
* :mod:`repro.milp.revised_simplex` — the production LP engine: a
  bounded-variable revised simplex with warm-start bases.
* :mod:`repro.milp.branch_and_bound` — best-first branch & bound with
  per-node warm starts on top of the revised simplex (or any injected LP
  solver).
* :mod:`repro.milp.structure` — the structure-aware path that recognizes
  WaterWise placement forms and solves them as capacitated assignment
  problems.
* :mod:`repro.milp.session` — :class:`~repro.milp.session.SolverSession`,
  the warm-start basis store threaded across scheduling rounds.
* :mod:`repro.milp.scipy_backend` — the same problems solved through SciPy's
  HiGHS bindings (``scipy.optimize.linprog`` / ``scipy.optimize.milp``).
* :mod:`repro.milp.solver` — the :func:`solve_standard_form` dispatch.
* :mod:`repro.milp.status` — the result types every backend shares.
* :mod:`repro.milp.simplex` — the dense two-phase tableau simplex, kept only
  as the reference the tests check the production engines against.

All solver families are exact; they are cross-checked against each other in
the test suite so scheduling results do not depend on the backend choice.
"""

from repro.milp.problem import StandardForm
from repro.milp.session import SolverSession, SolverStats
from repro.milp.solver import solve_standard_form
from repro.milp.status import SolveStatus

__all__ = [
    "SolveStatus",
    "SolverSession",
    "SolverStats",
    "StandardForm",
    "solve_standard_form",
]

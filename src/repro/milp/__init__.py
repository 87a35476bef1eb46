"""MILP substrate: the array form of a problem and the exact placement solver.

WaterWise formulates job placement as a Mixed Integer Linear Program (the
paper uses PuLP + GLPK).  This subpackage provides the same capability from
scratch.  The placement MILP is built directly in array form
(:func:`repro.core.objective.build_placement_form`) and solved through one
entry point, :func:`~repro.milp.structure.solve_standard_form`:

* :mod:`repro.milp.problem` — :class:`~repro.milp.problem.StandardForm`, the
  dense array form every engine consumes.
* :mod:`repro.milp.sparse` — CSR constraint data carried by every form.
* :mod:`repro.milp.structure` — the solve path: it collapses a placement form
  into a capacitated assignment problem and solves it by per-job argmin, LP
  relaxation or branch & bound, choosing the relaxation engine by size.
* :mod:`repro.milp.revised_simplex` — the native LP engine: a
  bounded-variable revised simplex with warm-start bases.
* :mod:`repro.milp.branch_and_bound` — best-first branch & bound with
  per-node warm starts on top of the revised simplex (or any injected LP
  solver).
* :mod:`repro.milp.session` — :class:`~repro.milp.session.SolverSession`,
  the warm-start basis store threaded across scheduling rounds.
* :mod:`repro.milp.scipy_backend` — SciPy's HiGHS bindings
  (``scipy.optimize.linprog`` / ``scipy.optimize.milp``): the engine for large
  relaxations, and the full-form MILP oracle the tests check rounds against.
* :mod:`repro.milp.status` — the result types every engine shares.

Every engine is exact; the test suite checks the placement path against the
full-form HiGHS MILP and a brute-force enumeration, and the native engines
against HiGHS and a dense tableau reference (``tests/milp/simplex.py``).
"""

from repro.milp.problem import StandardForm
from repro.milp.session import SolverSession, SolverStats
from repro.milp.status import SolveStatus
from repro.milp.structure import solve_standard_form

__all__ = [
    "SolveStatus",
    "SolverSession",
    "SolverStats",
    "StandardForm",
    "solve_standard_form",
]

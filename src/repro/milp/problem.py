"""The array form every MILP/LP backend consumes.

A :class:`StandardForm` is the dense minimization form
``min c @ x  s.t.  a_ub @ x <= b_ub,  a_eq @ x = b_eq,  lower <= x <= upper``
with an integrality mask.  WaterWise builds its placement MILP directly in
this form (:func:`repro.core.objective.build_placement_form`).
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["StandardForm"]


@dataclasses.dataclass(frozen=True)
class StandardForm:
    """Dense array representation of a problem.

    ``c`` is the objective ``c @ x``, always minimized.  ``integrality`` is
    a boolean mask over the variables.
    """

    c: np.ndarray
    a_ub: np.ndarray
    b_ub: np.ndarray
    a_eq: np.ndarray
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray

    @property
    def num_variables(self) -> int:
        return len(self.c)

    def sparse(self) -> "SparseConstraints":
        """CSR view of the constraint blocks, converted once and cached.

        The form is frozen, so the cached conversion can never diverge from
        the dense arrays; branch & bound prepares its revised simplex from it.
        """
        cached = self.__dict__.get("_sparse")
        if cached is None:
            from repro.milp.sparse import SparseConstraints

            cached = SparseConstraints.from_arrays(self.a_ub, self.a_eq)
            object.__setattr__(self, "_sparse", cached)
        return cached

    @property
    def num_constraints(self) -> int:
        return self.a_ub.shape[0] + self.a_eq.shape[0]

    def objective_value(self, x: np.ndarray) -> float:
        """Objective ``c @ x`` of solution vector ``x``."""
        return float(self.c @ x)

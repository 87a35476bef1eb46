"""Shared builder of small :class:`StandardForm` instances for the MILP tests."""

import numpy as np

from repro.milp.problem import StandardForm


def _vector(value, default, n, dtype=float):
    if value is None:
        value = default
    return np.broadcast_to(np.asarray(value, dtype=dtype), (n,)).copy()


def standard_form(c, a_ub=None, b_ub=None, a_eq=None, b_eq=None, lower=None,
                  upper=None, integrality=None, c0=0.0, maximize=False):
    """A :class:`StandardForm` from plain lists and scalars.

    ``c`` and ``c0`` are the objective in the problem's own sense: with
    ``maximize=True`` they are negated into the minimization form the solvers
    take, and :meth:`StandardForm.objective_value` reports the maximum.
    Omitted constraint blocks are empty.  ``lower`` (default 0), ``upper``
    (default +inf) and ``integrality`` (default all continuous) accept one
    value per variable or a scalar for all of them.  A ``>=`` row is written
    negated into ``a_ub``/``b_ub``.
    """
    sign = -1.0 if maximize else 1.0
    c = sign * np.asarray(c, dtype=float)
    n = len(c)
    return StandardForm(
        c=c,
        c0=sign * float(c0),
        a_ub=np.asarray(a_ub, dtype=float).reshape(-1, n) if a_ub is not None else np.zeros((0, n)),
        b_ub=np.asarray(b_ub, dtype=float) if b_ub is not None else np.zeros(0),
        a_eq=np.asarray(a_eq, dtype=float).reshape(-1, n) if a_eq is not None else np.zeros((0, n)),
        b_eq=np.asarray(b_eq, dtype=float) if b_eq is not None else np.zeros(0),
        lower=_vector(lower, 0.0, n),
        upper=_vector(upper, np.inf, n),
        integrality=_vector(integrality, False, n, dtype=bool),
        maximize=maximize,
    )

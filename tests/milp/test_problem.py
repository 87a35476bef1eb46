"""Tests for the :class:`StandardForm` array form."""

import numpy as np
import pytest

from .forms import standard_form


class TestStandardForm:
    def test_objective_value_respects_sense(self):
        # max 2x + 1 is stored negated, as min -2x - 1.
        form = standard_form([2.0], c0=1.0, upper=[10.0], maximize=True)
        np.testing.assert_allclose(form.c, [-2.0])
        assert form.objective_value(np.array([3.0])) == pytest.approx(7.0)
        minimize = standard_form([2.0], c0=1.0, upper=[10.0])
        assert minimize.objective_value(np.array([3.0])) == pytest.approx(7.0)

    def test_num_constraints_counts(self):
        # x <= 1 and x >= 0.5 (negated into a_ub), plus one equality.
        form = standard_form(
            [1.0, 1.0], a_ub=[[1.0, 0.0], [-1.0, 0.0]], b_ub=[1.0, -0.5],
            a_eq=[[1.0, 1.0]], b_eq=[2.0],
        )
        assert form.num_variables == 2
        assert form.num_constraints == 3

    def test_sparse_view_is_cached_and_matches_dense(self):
        form = standard_form(
            [1.0, 2.0, 0.0], a_ub=[[1.0, 0.0, -2.0], [0.0, 0.0, 0.0]], b_ub=[1.0, 0.0],
            a_eq=[[0.0, 3.0, 0.0]], b_eq=[1.0],
        )
        view = form.sparse()
        # The form is frozen, so one conversion serves every consumer.
        assert form.sparse() is view
        np.testing.assert_array_equal(view.a_ub.toarray(), form.a_ub)
        np.testing.assert_array_equal(view.a_eq.toarray(), form.a_eq)
        assert view.nnz == 3

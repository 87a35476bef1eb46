"""The native solver core must work in a SciPy-free environment.

``auto`` documents a fallback to the native core when SciPy is missing — that
fallback is only real if importing :mod:`repro.milp` and solving through the
native/structured paths never touches SciPy.  This test runs a fresh
interpreter with a meta-path hook that blocks every ``scipy`` import and
exercises an LP, a MILP and a placement form end to end.
"""

import os
import pathlib
import subprocess
import sys

_SCRIPT = r"""
import sys

class _BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked in this test ({name})")
        return None

sys.meta_path.insert(0, _BlockScipy())

import numpy as np

from repro.core.config import WaterWiseConfig
from repro.core.objective import build_placement_form
from repro.milp.solver import solve_standard_form
from repro.milp.status import SolveStatus
from tests.milp.forms import standard_form

# LP through the auto dispatch (scipy missing -> native fallback):
# min -2x - 3y  s.t.  x + y <= 5,  0 <= x <= 4,  y >= 0.
lp = standard_form([-2.0, -3.0], a_ub=[[1.0, 1.0]], b_ub=[5.0], upper=[4.0, np.inf])
status, _x, objective, _i, _nodes, solver, _t = solve_standard_form(lp, solver="auto")
assert status is SolveStatus.OPTIMAL, status
assert solver == "native", solver
assert abs(objective - (-3 * 5)) < 1e-9, objective  # x=0, y=5

# MILP through the native branch & bound.
milp = standard_form(
    [-1.7, -1.1], a_ub=[[1.9, 0.9]], b_ub=[4.0], upper=3.0, integrality=True,
)
status, *_ = solve_standard_form(milp, solver="auto")
assert status is SolveStatus.OPTIMAL, status

# A placement form through the structured path (saturated -> LP relaxation,
# which must use the native simplex when scipy is unavailable).
rng = np.random.default_rng(0)
m, n = 9, 3
form = build_placement_form(
    rng.uniform(0, 2, (m, n)), rng.uniform(0, 0.4, (m, n)), np.full(m, 0.5),
    np.ones(m), np.full(n, 4.0), WaterWiseConfig(),
)
status, xvec, objective, _i, _nodes, solver, _t = solve_standard_form(form, solver="auto")
assert status is SolveStatus.OPTIMAL, status
assert solver == "structured", solver
assert np.isfinite(objective)
print("OK")
"""


def test_native_core_runs_without_scipy():
    root = pathlib.Path(__file__).resolve().parents[2]
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)]),
             "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, f"stdout={proc.stdout}\nstderr={proc.stderr}"
    assert proc.stdout.strip().endswith("OK")

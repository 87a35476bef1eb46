"""The placement solve path must work in a SciPy-free environment.

Without SciPy the size gate in :mod:`repro.milp.structure` sends every
relaxation — also those above its 48-variable threshold — to the native
revised simplex and branch & bound.  This test runs a fresh interpreter with
a meta-path hook that blocks every ``scipy`` import, solves a saturated
placement form (hard and soft) whose collapsed problem has more than 48
variables and a fractional relaxation there, and checks the optimum against
the full-form HiGHS MILP and against the same path with SciPy (HiGHS on the
collapsed problem) in this process.
"""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.core.config import WaterWiseConfig
from repro.core.objective import build_placement_form
from repro.milp import SolveStatus, solve_standard_form

_SCRIPT = r"""
import sys

class _BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"scipy is blocked in this test ({name})")
        return None

sys.meta_path.insert(0, _BlockScipy())

from repro.milp import SolverSession, solve_standard_form
from tests.milp.test_no_scipy import saturated_form

session = SolverSession()
form = saturated_form(soft=sys.argv[1] == "soft")
status, _x, objective, *_ = solve_standard_form(form, session=session)
stats = session.stats
# The relaxation and the branch & bound ran on the native engines (HiGHS
# calls record no LP).
assert stats.structured_lp == stats.structured_bb == 1, stats
assert stats.cold_starts >= 1 and stats.bb_nodes > 1, stats
print(status.name, repr(objective))
"""


def saturated_form(soft):
    """20 jobs × 3 regions (60 collapsed variables): every job is cheapest in
    region 0, which has 12 of the at least 20 servers they need.  A job's home
    region (job index mod 3) has no latency, so the hard form is feasible."""
    rng = np.random.default_rng(0)
    m, n = 20, 3
    latency = rng.uniform(0, 0.8, (m, n))
    latency[np.arange(m), np.arange(m) % n] = 0.0
    return build_placement_form(
        rng.uniform(0, 1, (m, n)) + np.arange(n), latency, np.full(m, 0.5),
        rng.integers(1, 3, m), np.full(n, 12.0), WaterWiseConfig(), soft=soft,
    )


@pytest.mark.parametrize("soft", [False, True], ids=["hard", "soft"])
def test_placement_path_runs_without_scipy(soft):
    from repro.milp.scipy_backend import solve_form_scipy

    root = pathlib.Path(__file__).resolve().parents[2]
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, "soft" if soft else "hard"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": os.pathsep.join([str(root / "src"), str(root)]),
             "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, f"stdout={proc.stdout}\nstderr={proc.stderr}"
    status, objective = proc.stdout.split()
    reference, _x, optimum, *_ = solve_form_scipy(saturated_form(soft))
    with_scipy, _x, collapsed_optimum, *_ = solve_standard_form(saturated_form(soft))
    assert status == reference.name == with_scipy.name == SolveStatus.OPTIMAL.name
    assert float(objective) == pytest.approx(optimum, rel=1e-9)
    assert collapsed_optimum == pytest.approx(optimum, rel=1e-9)

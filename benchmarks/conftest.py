"""Shared fixtures for the paper harness.

Every script regenerates one of the paper's tables or figures, prints the
reproduced table and asserts the paper's qualitative finding on it.  Because
these are trace-driven simulations rather than micro-kernels, each experiment
runs exactly once; the printed wall time is the end-to-end cost of
reproducing that figure.  pytest does not collect ``bench_*`` files by
default, so run the harness with::

    PYTHONPATH=src python -m pytest benchmarks -o python_files='bench_*.py' \\
        -o python_functions='bench_*'

The experiment scale is controlled with the ``REPRO_BENCH_SCALE`` environment
variable:

``small`` (default)
    A few hundred jobs over a quarter day — every figure reproduces in
    seconds and the whole harness finishes in minutes.
``medium``
    Roughly 4× more jobs over half a day.
``paper``
    The paper's full setting (10 days, ≈ 230k jobs, 960 jobs/hour).  Expect
    hours of runtime; intended for a one-off full-scale reproduction.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.analysis.sweep import ExperimentScale

_SCALES = {
    "small": ExperimentScale(rate_per_hour=50.0, duration_days=0.25, seed=42),
    "medium": ExperimentScale(rate_per_hour=100.0, duration_days=0.5, seed=42),
    "paper": ExperimentScale(rate_per_hour=960.0, duration_days=10.0, seed=42),
}


def _selected_scale() -> ExperimentScale:
    name = os.environ.get("REPRO_BENCH_SCALE", "small").strip().lower()
    if name not in _SCALES:
        raise ValueError(
            f"REPRO_BENCH_SCALE must be one of {sorted(_SCALES)}, got {name!r}"
        )
    return _SCALES[name]


@pytest.fixture(scope="session")
def scale() -> ExperimentScale:
    """The experiment scale shared by every benchmark."""
    return _selected_scale()


_RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture
def run_experiment():
    """Run an experiment function once, time it and report it.

    The reproduced table and its wall time are printed (visible with
    ``pytest -s``) and the table is also written to
    ``benchmarks/results/<experiment>.txt`` so the output survives pytest's
    output capturing.  Returns the experiment's result object so the
    calling benchmark can make shape assertions against the paper's
    qualitative findings.
    """

    def _run(func, *args, **kwargs):
        started = time.perf_counter()
        result = func(*args, **kwargs)
        wall_s = time.perf_counter() - started
        reports = result if isinstance(result, tuple) else (result,)
        os.makedirs(_RESULTS_DIR, exist_ok=True)
        for report in reports:
            print()
            print(report.report())
            path = os.path.join(_RESULTS_DIR, f"{report.experiment}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(report.report() + "\n")
        print(f"{func.__name__}: {wall_s:.2f} s")
        return result

    return _run

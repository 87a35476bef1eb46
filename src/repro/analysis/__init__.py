"""Analysis layer: savings computation, sweeps, reports and experiments.

* :mod:`repro.analysis.savings` — percent savings of a policy relative to the
  carbon- and water-unaware baseline (the paper's figure of merit).
* :mod:`repro.analysis.report` — plain-text tables used by the benchmark
  harness and the examples.
* :mod:`repro.analysis.sweep` — helpers to run a set of policies over a trace
  and to sweep parameters (delay tolerance, utilization, weights).
* :mod:`repro.analysis.parallel` — sweep points: parameter-grid expansion
  with deterministic content-based seeding.
* :mod:`repro.analysis.fabric` — :func:`run_sweep`, the one sweep path:
  fused shards (:mod:`repro.analysis.shard`), each run whole on one local
  worker process or serially in-process, digest-identical either way.
* :mod:`repro.analysis.experiments` — one function per paper table/figure;
  the benchmark harness and EXPERIMENTS.md are generated from these.
"""

from repro.analysis.fabric import run_sweep
from repro.analysis.parallel import (
    SweepOutcome,
    SweepPoint,
    derive_seed,
    expand_grid,
)
from repro.analysis.report import format_table
from repro.analysis.savings import PolicySavings, savings_table
from repro.analysis.sweep import (
    ExperimentScale,
    delay_tolerance_sweep,
    run_policies,
    simulate,
)

__all__ = [
    "ExperimentScale",
    "PolicySavings",
    "SweepOutcome",
    "SweepPoint",
    "delay_tolerance_sweep",
    "derive_seed",
    "expand_grid",
    "format_table",
    "run_policies",
    "run_sweep",
    "savings_table",
    "simulate",
]

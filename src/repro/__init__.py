"""WaterWise reproduction: carbon- and water-aware geo-distributed job scheduling.

The package is organized as a set of substrates (MILP solver, sustainability
models, traces, cluster simulator) plus the WaterWise scheduler core built on
top of them.  The most commonly used entry points are re-exported here.

Subpackages
-----------
``repro.milp``
    MILP array form and exact solvers (native revised simplex + branch &
    bound, a structure-aware placement path, and a SciPy/HiGHS backend).
``repro.sustainability``
    Carbon and water footprint models, energy-source catalog, grid-mix model,
    WUE/WSF data, and synthetic dataset providers.
``repro.regions``
    Region catalog (the five evaluation regions), transfer-latency matrix and
    wet-bulb weather model.
``repro.traces``
    Job model, Borg-like and Alibaba-like synthetic trace generators and the
    PARSEC/CloudSuite workload profiles.
``repro.cluster``
    Discrete-event geo-distributed cluster simulator and metrics accounting.
``repro.schedulers``
    Baseline scheduling policies (home-region baseline, round-robin,
    least-load, carbon/water greedy-optimal oracles, Ecovisor-like).
``repro.core``
    The WaterWise scheduler: MILP objective, constraints, soft constraints,
    slack manager, history learner and decision controller.
``repro.analysis``
    Savings computation, parameter sweeps and report tables used by the
    benchmark harness.
"""

from repro._version import __version__

__all__ = ["__version__"]

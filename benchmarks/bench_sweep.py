"""Fused-sweep benchmark: one-pass multi-policy evaluation vs per-cell cells.

The paper's evaluation is sweep-shaped — every figure compares the policy
registry over the *same* workload — so the figure of merit here is
**jobs·policies per second** for a registry-wide sweep of one scenario:

* ``fused`` — the sweep path: ``run_sweep(points, transport="inprocess",
  policies_per_shard=len(points))`` runs the registry as one fused shard, a
  single :class:`~repro.cluster.multi.MultiPolicyRunner` pass (trace
  generated/columnized once, vectorized event kernel, array decision
  pipeline).
* ``percell`` — the seed fabric, reconstructed from the retained reference
  paths: one :class:`BatchSimulator` per (workload × policy) cell with
  ``kernel="scalar"`` (the classic event-at-a-time loop) and the WaterWise
  family on ``decision_pipeline="object"`` (per-job slack scoring +
  ``Variable``/``Constraint`` MILP construction), with the cost-aware
  variant running the scalar fallback exactly as it did before it had a
  mirrored fast path.

Both modes simulate identical decisions — the differential harness enforces
digest equality between every path pair — so the ratio is pure fabric
overhead.  Each mode runs in a fresh subprocess (no warm caches leak across
modes).  Results land in ``BENCH_sweep.json`` and are compared against the
checked-in ``benchmarks/BENCH_sweep_baseline.json`` with a *soft* threshold
(warn; fail only under ``--strict``); ``--min-speedup`` optionally hard-gates
the fused/percell ratio (the PR-5 acceptance bar is 3x at 100k jobs).

Run it directly::

    PYTHONPATH=src python benchmarks/bench_sweep.py --jobs 100000
    PYTHONPATH=src python benchmarks/bench_sweep.py --jobs 20000 --min-speedup 2.5
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

#: Same diurnal sizing as bench_stream: rate fixed, duration solved for the
#: requested job count.
RATE_PER_HOUR = 1400.0
SERVERS_PER_REGION = 60
SEED = 42

#: Soft regression threshold vs the checked-in baseline.
REGRESSION_FACTOR = 1.5

_HEADLINE_LOWER_IS_WORSE = (
    "fused_jobs_policies_per_s",
    "fused_speedup_vs_percell",
)


def _case_parameters(jobs: int) -> dict:
    from repro.traces.arrival import DiurnalPoissonProcess

    process = DiurnalPoissonProcess(RATE_PER_HOUR, amplitude=0.9)
    lo, hi = 0.0, 8.0 * jobs / (RATE_PER_HOUR / 3600.0)
    for _ in range(60):
        mid = (lo + hi) / 2.0
        if process.expected_count(mid) < jobs:
            lo = mid
        else:
            hi = mid
    return {
        "scenario": "diurnal",
        "seed": SEED,
        "rate_per_hour": RATE_PER_HOUR,
        "duration_days": hi / 86_400.0,
        "servers_per_region": SERVERS_PER_REGION,
    }


def _run_child(jobs: int, mode: str) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--child-jobs", str(jobs), "--child-mode", mode,
    ]
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(command, capture_output=True, text=True, env=env)
    if result.returncode != 0:
        raise RuntimeError(
            f"{mode} sweep at {jobs} jobs failed:\n{result.stdout}\n{result.stderr}"
        )
    return json.loads(result.stdout.splitlines()[-1])


def _reference_factory(name: str):
    """Scheduler factory reproducing the seed decision paths for ``percell``."""
    from repro.core.config import WaterWiseConfig
    from repro.schedulers import make_scheduler

    if name == "waterwise-cost-aware":
        # A plain subclass has no fast-path registration of its own (the
        # WaterWise registrations are exact), so it runs the scalar fallback
        # the seed ran before the `_extra_cost` hook had an array mirror.
        from repro.core.cost import CostAwareWaterWiseScheduler

        class _ReferenceCostAware(CostAwareWaterWiseScheduler):
            pass

        return _ReferenceCostAware(config=WaterWiseConfig(decision_pipeline="object"))
    if name.startswith("waterwise"):
        return make_scheduler(name, config=WaterWiseConfig(decision_pipeline="object"))
    return make_scheduler(name)


def _child_main(args: argparse.Namespace) -> int:
    from repro.schedulers import available_schedulers
    from repro.traces.scenarios import scenario_source

    params = _case_parameters(args.child_jobs)
    policies = list(available_schedulers())
    source = scenario_source(
        params["scenario"],
        seed=params["seed"],
        rate_per_hour=params["rate_per_hour"],
        duration_days=params["duration_days"],
    )

    if args.child_mode == "fused":
        from repro.analysis import SweepPoint, run_sweep

        points = [
            SweepPoint(
                scheduler=name,
                trace_kind=params["scenario"],
                rate_per_hour=params["rate_per_hour"],
                duration_days=params["duration_days"],
                servers_per_region=params["servers_per_region"],
                seed=params["seed"],
            )
            for name in policies
        ]
        started = time.perf_counter()
        outcomes = run_sweep(
            points, transport="inprocess", policies_per_shard=len(points)
        )
        wall_s = time.perf_counter() - started
        jobs = outcomes[0].num_jobs
        totals = {o.point.scheduler: o.total_carbon_g for o in outcomes}
    else:  # percell (seed fabric: scalar kernel + object decision pipeline)
        import math

        from repro.cluster import BatchSimulator
        from repro.sustainability import ElectricityMapsLikeProvider

        started = time.perf_counter()
        trace = source.materialize()
        # Same dataset recipe as the sweep fabric (`parallel._point_dataset`),
        # so both modes simulate identical intensities.
        dataset = ElectricityMapsLikeProvider(
            horizon_hours=max(int(math.ceil(params["duration_days"] * 24)) + 48, 72),
            seed=params["seed"],
        )
        totals = {}
        jobs = 0
        for name in policies:
            result = BatchSimulator(
                trace,
                _reference_factory(name),
                dataset=dataset,
                servers_per_region=params["servers_per_region"],
                kernel="scalar",
            ).run()
            totals[name] = result.total_carbon_g
            jobs = result.num_jobs
        wall_s = time.perf_counter() - started

    print(json.dumps({
        "mode": args.child_mode,
        "requested_jobs": args.child_jobs,
        "jobs": jobs,
        "policies": len(policies),
        "wall_s": round(wall_s, 3),
        "jobs_policies_per_s": round(jobs * len(policies) / wall_s, 1),
        "carbon_g_by_policy": totals,
    }))
    return 0


def compare_to_baseline(head: dict, baseline_path: pathlib.Path) -> list[str]:
    """Soft-threshold comparison; returns the list of regression messages."""
    if not baseline_path.exists():
        return []
    baseline = json.loads(baseline_path.read_text()).get("headline", {})
    problems = []
    for key in _HEADLINE_LOWER_IS_WORSE:
        base = baseline.get(key)
        now = head.get(key)
        if base is None or now is None or base <= 0:
            continue
        if now < base / REGRESSION_FACTOR:
            problems.append(
                f"{key}: {now:.3f} vs baseline {base:.3f} "
                f"(< 1/{REGRESSION_FACTOR:.1f}x threshold)"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=100_000,
                        help="workload size of the registry-wide sweep")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="hard-fail when fused/percell falls below this")
    parser.add_argument("--output", default="BENCH_sweep.json")
    parser.add_argument(
        "--baseline",
        default=str(pathlib.Path(__file__).parent / "BENCH_sweep_baseline.json"),
        help="checked-in baseline for the soft regression check",
    )
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on a soft-threshold regression")
    # Internal: a single measured mode in a fresh interpreter.
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--child-jobs", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--child-mode", choices=["fused", "percell"],
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return _child_main(args)

    fused = _run_child(args.jobs, "fused")
    print(
        f"fused   {fused['jobs']:>9,} jobs x {fused['policies']} policies: "
        f"{fused['wall_s']:8.1f} s  ({fused['jobs_policies_per_s']:,.0f} job·pol/s)"
    )
    percell = _run_child(args.jobs, "percell")
    print(
        f"percell {percell['jobs']:>9,} jobs x {percell['policies']} policies: "
        f"{percell['wall_s']:8.1f} s  ({percell['jobs_policies_per_s']:,.0f} job·pol/s)"
    )

    failures = []
    # The two fabrics must agree on what they simulated (identical decisions
    # per policy → identical totals up to aggregation-order rounding).
    for name, carbon in fused["carbon_g_by_policy"].items():
        reference = percell["carbon_g_by_policy"].get(name)
        if reference is None or abs(carbon - reference) > 1e-6 * max(1.0, abs(reference)):
            failures.append(
                f"carbon totals diverge for {name}: fused {carbon!r} "
                f"vs percell {reference!r}"
            )

    speedup = percell["wall_s"] / fused["wall_s"]
    head = {
        "fused_jobs_policies_per_s": fused["jobs_policies_per_s"],
        "percell_jobs_policies_per_s": percell["jobs_policies_per_s"],
        "fused_speedup_vs_percell": round(speedup, 2),
    }
    report = {
        "benchmark": "fused_sweep",
        "requested_jobs": args.jobs,
        "policies": fused["policies"],
        "headline": head,
        "cases": [fused, percell],
    }
    pathlib.Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    print("headline:", json.dumps(head))

    if args.min_speedup is not None and speedup < args.min_speedup:
        failures.append(
            f"fused speedup {speedup:.2f}x below required {args.min_speedup:.2f}x"
        )
    if failures:
        print("\nHARD FAILURES:")
        for message in failures:
            print(f"  - {message}")
        return 1
    problems = compare_to_baseline(head, pathlib.Path(args.baseline))
    if problems:
        print("\nSOFT REGRESSIONS vs baseline:")
        for message in problems:
            print(f"  - {message}")
        if args.strict:
            return 1
        print("  (soft threshold: reported but not failing; use --strict to enforce)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

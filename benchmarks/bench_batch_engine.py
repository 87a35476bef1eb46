"""Microbenchmark: scalar ``Simulator`` vs. vectorized ``BatchSimulator``.

Replays an Alibaba-style trace (bursty, 8.5x the Borg rate — the repo's
largest standard workload) through both engines under identical settings,
verifies that they produce identical scheduling decisions and footprints
(within 1e-9 relative), and reports throughput and speedup per policy.

``BatchSimulator`` is the one-shot front of the streaming engine, so its
time is a whole streamed run over the materialized trace: 4096-job chunks
copied into the slot pool, the scheduling rounds and event kernel, the
per-chunk flush and footprint integration of finished jobs, and the final
merge of their columns into a job-id-ordered ``BatchResult``.

Run it directly::

    PYTHONPATH=src python benchmarks/bench_batch_engine.py              # 10k jobs
    PYTHONPATH=src python benchmarks/bench_batch_engine.py --jobs 2000  # CI smoke

Exits non-zero if the engines disagree or (unless ``--no-target``) the
vectorized engine is less than 5x faster for fast-path policies.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.cluster import BatchSimulator, Simulator
from repro.schedulers import make_scheduler
from repro.schedulers.vectorized import has_fast_path
from repro.sustainability import ElectricityMapsLikeProvider
from repro.traces.alibaba import AlibabaTraceGenerator

EQUIVALENCE_RTOL = 1e-9
SPEEDUP_TARGET = 5.0
#: Per-policy overrides of the scalar-vs-batch speedup floor.  WaterWise's
#: floor is lower *because the scalar engine got faster, not because the
#: batch engine regressed*: the scalar path now runs the same array decision
#: pipeline (vectorized slack + standard-form MILP) as the fast path, so the
#: decision time — the bulk of a WaterWise round — is identical on both
#: sides and only the engine loop differs.  Absolute batch time improved at
#: the same commit this floor was lowered (see BENCH_sweep_baseline.json).
#: Floors are calibrated at the CI scale (4000 jobs; measured 4.0x there) —
#: much smaller runs squeeze every ratio under per-round fixed costs.
SPEEDUP_TARGETS: dict[str, float] = {"waterwise": 2.0}


def build_workload(jobs: int, seed: int):
    """Alibaba-style trace sized to ≈ ``jobs`` jobs over one day, plus dataset."""
    duration_days = 1.0
    trace = AlibabaTraceGenerator(
        rate_per_hour=jobs / (duration_days * 24.0),
        duration_days=duration_days,
        seed=seed,
    ).generate()
    dataset = ElectricityMapsLikeProvider(horizon_hours=72, seed=seed)
    return trace, dataset


def verify_equivalence(scalar_result, batch_result) -> list[str]:
    """Differences between the two engines' results (empty = equivalent)."""
    problems: list[str] = []
    outcomes = scalar_result.outcomes
    if len(outcomes) != batch_result.num_jobs:
        return [f"job count {len(outcomes)} != {batch_result.num_jobs}"]

    scalar_regions = [outcome.executed_region for outcome in outcomes]
    if scalar_regions != batch_result.executed_regions:
        problems.append("executed regions differ")
    for field, scalar_values in (
        ("start", [o.start_time for o in outcomes]),
        ("finish", [o.finish_time for o in outcomes]),
        ("deferrals", [o.deferrals for o in outcomes]),
    ):
        if not np.array_equal(np.asarray(scalar_values), getattr(batch_result, field)):
            problems.append(f"{field} times differ")
    for field, scalar_values in (
        ("carbon_g", [o.carbon_g for o in outcomes]),
        ("water_l", [o.water_l for o in outcomes]),
    ):
        if not np.allclose(
            np.asarray(scalar_values), getattr(batch_result, field),
            rtol=EQUIVALENCE_RTOL, atol=0.0,
        ):
            problems.append(f"{field} differs beyond rtol={EQUIVALENCE_RTOL}")
    return problems


def bench_policy(name: str, trace, dataset, servers: int, repeats: int):
    """Time both engines for one policy; returns the report row."""

    def timed(engine_cls):
        best = np.inf
        result = None
        for _ in range(repeats):
            simulator = engine_cls(
                trace,
                make_scheduler(name),
                dataset=dataset,
                servers_per_region=servers,
            )
            started = time.perf_counter()
            result = simulator.run()
            best = min(best, time.perf_counter() - started)
        return result, best

    scalar_result, scalar_time = timed(Simulator)
    batch_result, batch_time = timed(BatchSimulator)
    problems = verify_equivalence(scalar_result, batch_result)
    return {
        "policy": name,
        "fast_path": has_fast_path(make_scheduler(name)),
        "scalar_s": scalar_time,
        "batch_s": batch_time,
        "scalar_jobs_per_s": len(trace) / scalar_time,
        "batch_jobs_per_s": len(trace) / batch_time,
        "speedup": scalar_time / batch_time,
        "problems": problems,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=10_000, help="approximate trace size")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--servers", type=int, default=200, help="servers per region")
    parser.add_argument("--repeats", type=int, default=2, help="timing repeats (best-of)")
    parser.add_argument(
        "--policies",
        default=(
            "baseline,round-robin,least-load,"
            "ecovisor-like,carbon-greedy-opt,water-greedy-opt,waterwise"
        ),
        help="comma-separated scheduler names",
    )
    parser.add_argument(
        "--no-target",
        action="store_true",
        help="report only; do not fail when the speedup target is missed",
    )
    args = parser.parse_args(argv)

    trace, dataset = build_workload(args.jobs, args.seed)
    print(f"trace: {trace.name}  jobs={len(trace)}  horizon={trace.horizon_s / 3600.0:.1f} h")
    print(f"servers/region: {args.servers}   repeats: {args.repeats} (best-of)\n")

    header = (
        f"{'policy':<16} {'path':<6} {'scalar':>9} {'batch':>9} "
        f"{'scalar j/s':>11} {'batch j/s':>11} {'speedup':>8}  equivalent"
    )
    print(header)
    print("-" * len(header))

    failed = False
    for name in [p.strip() for p in args.policies.split(",") if p.strip()]:
        row = bench_policy(name, trace, dataset, args.servers, args.repeats)
        equivalent = "yes" if not row["problems"] else "NO: " + "; ".join(row["problems"])
        print(
            f"{row['policy']:<16} {'fast' if row['fast_path'] else 'fall':<6} "
            f"{row['scalar_s']:>8.2f}s {row['batch_s']:>8.2f}s "
            f"{row['scalar_jobs_per_s']:>11.0f} {row['batch_jobs_per_s']:>11.0f} "
            f"{row['speedup']:>7.1f}x  {equivalent}"
        )
        if row["problems"]:
            failed = True
        target = SPEEDUP_TARGETS.get(name, SPEEDUP_TARGET)
        if row["fast_path"] and not args.no_target and row["speedup"] < target:
            print(
                f"  !! {row['policy']}: speedup {row['speedup']:.1f}x is below the "
                f"{target:.0f}x target"
            )
            failed = True

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

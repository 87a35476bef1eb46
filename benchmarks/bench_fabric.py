"""Distributed-sweep fabric benchmark: sharded throughput vs single-box fused.

The sweep fabric's pitch is linear-ish scaling with *zero* loss of
exactness, so this benchmark measures both at once:

* ``serial`` — the single-box reference: ``run_sweep(points,
  transport="inprocess", policies_per_shard=len(points))`` — one fused
  shard over the whole policy registry (one trace pass, K lockstep
  engines) on the calling thread.
* ``fabric`` — the same sweep through :func:`repro.analysis.run_sweep` on
  the multiprocess transport at 1, 2 and 4 local workers (per-policy shards
  leased off the coordinator's queue).

Every fabric child re-checks the exactness contract **inside the measured
process**: the merged distributed digests must equal the single-box fused
digests the serial child reported, or the child (and the benchmark) hard-
fails — throughput numbers from a run that lost exactness are worthless.

The figure of merit is **jobs·policies per second**; the headline adds the
4-worker speedup over serial and its scaling efficiency (speedup / 4).
Results land in ``BENCH_fabric.json`` and are compared against the
checked-in ``benchmarks/BENCH_fabric_baseline.json`` with a *soft*
threshold (warn; fail only under ``--strict``); ``--min-speedup``
hard-gates the 4-worker speedup (the acceptance bar is 3x at 100k jobs).

Run it directly::

    PYTHONPATH=src python benchmarks/bench_fabric.py --jobs 100000 --min-speedup 3.0
    PYTHONPATH=src python benchmarks/bench_fabric.py --jobs 20000
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

#: Same diurnal sizing as bench_sweep: rate fixed, duration solved for the
#: requested job count.
RATE_PER_HOUR = 1400.0
SERVERS_PER_REGION = 60
SEED = 42

#: Soft regression threshold vs the checked-in baseline.
REGRESSION_FACTOR = 1.5

_HEADLINE_LOWER_IS_WORSE = (
    "fabric_w4_jobs_policies_per_s",
    "fabric_speedup_w4_vs_serial",
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


def _sweep_points(jobs: int):
    from repro.analysis.parallel import SweepPoint
    from repro.schedulers import available_schedulers

    params = _case_parameters(jobs)
    return [
        SweepPoint(
            scheduler=name,
            trace_kind=params["scenario"],
            rate_per_hour=params["rate_per_hour"],
            duration_days=params["duration_days"],
            servers_per_region=params["servers_per_region"],
            seed=params["seed"],
        )
        for name in available_schedulers()
    ]


def _run_child(
    jobs: int, mode: str, workers: int, expect_digests: pathlib.Path | None
) -> dict:
    command = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--child-jobs", str(jobs), "--child-mode", mode,
        "--child-workers", str(workers),
    ]
    if expect_digests is not None:
        command += ["--child-expect-digests", str(expect_digests)]
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(command, capture_output=True, text=True, env=env)
    if result.returncode != 0:
        raise RuntimeError(
            f"{mode} sweep (workers={workers}) at {jobs} jobs failed:\n"
            f"{result.stdout}\n{result.stderr}"
        )
    return json.loads(result.stdout.splitlines()[-1])


def _child_main(args: argparse.Namespace) -> int:
    from repro.analysis import run_sweep

    points = _sweep_points(args.child_jobs)
    started = time.perf_counter()
    if args.child_mode == "serial":
        outcomes = run_sweep(
            points, transport="inprocess", policies_per_shard=len(points)
        )
    else:
        outcomes = run_sweep(points, workers=args.child_workers, transport="process")
    wall_s = time.perf_counter() - started

    digests = {o.point.scheduler: o.digest for o in outcomes}
    if args.child_expect_digests:
        # Exactness gate inside the measured child: a distributed run whose
        # merged digests drift from the single-box fused run is a hard
        # failure, whatever its throughput.
        expected = json.loads(pathlib.Path(args.child_expect_digests).read_text())
        if digests != expected:
            print(
                "DIGEST MISMATCH vs single-box fused run:\n"
                f"  expected {expected}\n  got      {digests}",
                file=sys.stderr,
            )
            return 1

    jobs = outcomes[0].num_jobs
    print(json.dumps({
        "mode": args.child_mode,
        "workers": args.child_workers,
        "requested_jobs": args.child_jobs,
        "jobs": jobs,
        "policies": len(points),
        "wall_s": round(wall_s, 3),
        "jobs_policies_per_s": round(jobs * len(points) / wall_s, 1),
        "digests": digests,
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
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4],
                        help="local multiprocess worker counts to measure")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="hard-fail when the max-worker fabric speedup "
                             "over serial falls below this")
    parser.add_argument("--output", default="BENCH_fabric.json")
    parser.add_argument(
        "--baseline",
        default=str(pathlib.Path(__file__).parent / "BENCH_fabric_baseline.json"),
        help="checked-in baseline for the soft regression check",
    )
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on a soft-threshold regression")
    # Internal: a single measured mode in a fresh interpreter.
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--child-jobs", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--child-mode", choices=["serial", "process"],
                        help=argparse.SUPPRESS)
    parser.add_argument("--child-workers", type=int, default=1,
                        help=argparse.SUPPRESS)
    parser.add_argument("--child-expect-digests", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return _child_main(args)

    serial = _run_child(args.jobs, "serial", 1, None)
    print(
        f"serial      {serial['jobs']:>9,} jobs x {serial['policies']} policies: "
        f"{serial['wall_s']:8.1f} s  ({serial['jobs_policies_per_s']:,.0f} job·pol/s)"
    )
    digest_file = pathlib.Path(args.output).with_suffix(".digests.json")
    digest_file.write_text(json.dumps(serial["digests"]))

    cases = [serial]
    try:
        fabric = {}
        for workers in args.workers:
            case = _run_child(args.jobs, "process", workers, digest_file)
            fabric[workers] = case
            cases.append(case)
            print(
                f"process w={workers}  {case['jobs']:>9,} jobs x "
                f"{case['policies']} policies: {case['wall_s']:8.1f} s  "
                f"({case['jobs_policies_per_s']:,.0f} job·pol/s, digests OK)"
            )
    finally:
        digest_file.unlink(missing_ok=True)

    top = max(args.workers)
    cores = os.cpu_count() or 1
    speedup = serial["wall_s"] / fabric[top]["wall_s"]
    head = {
        "serial_jobs_policies_per_s": serial["jobs_policies_per_s"],
        f"fabric_w{top}_jobs_policies_per_s": fabric[top]["jobs_policies_per_s"],
        f"fabric_speedup_w{top}_vs_serial": round(speedup, 2),
        f"fabric_scaling_efficiency_w{top}": round(speedup / top, 3),
    }
    report = {
        "benchmark": "fabric_sweep",
        "requested_jobs": args.jobs,
        "policies": serial["policies"],
        "cpu_count": cores,
        "headline": head,
        "cases": cases,
    }
    pathlib.Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    print("headline:", json.dumps(head))

    failures = []
    if args.min_speedup is not None and speedup < args.min_speedup:
        if cores < top:
            # Parallel speedup needs cores: a w=4 sweep on a 1-core box
            # measures oversubscription, not the fabric.  The digest gate
            # above still ran — exactness is enforced regardless.
            print(
                f"\nNOTE: {cores} core(s) < {top} workers; the "
                f"--min-speedup {args.min_speedup:.2f}x gate needs at least "
                f"{top} cores to be meaningful and is skipped"
            )
        else:
            failures.append(
                f"fabric w={top} speedup {speedup:.2f}x below required "
                f"{args.min_speedup:.2f}x"
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

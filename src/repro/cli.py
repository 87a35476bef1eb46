"""Command-line interface for running WaterWise simulations.

Provides a small, scriptable front end over the library so that a downstream
user can compare scheduling policies without writing Python::

    python -m repro simulate --policies baseline waterwise --tolerance 0.5
    python -m repro regions
    python -m repro workloads

Sub-commands
------------
``simulate``
    Generate a Borg-like (or Alibaba-like) trace — or a named scenario from
    the workload library via ``--scenario`` — run the requested policies
    under identical conditions and print totals and savings versus the
    baseline.  ``--engine stream`` runs the bounded-memory streaming engine
    (``--chunk-size`` jobs at a time) instead of materializing the trace.
    ``--chaos`` injects a deterministic fault timeline (region outages,
    autoscaling, capacity flaps, carbon/water spikes, forecast error) — a
    named family or a ``key=value,...`` spec; chaos scenarios carry their
    own spec.
``checkpoint``
    Run the first ``--chunks`` chunks of a streaming simulation and save the
    engine state (plus everything needed to rebuild the run) to a file.
``resume``
    Continue a checkpointed streaming simulation — to completion (printing
    the summary) or for another ``--chunks`` chunks (saving a new
    checkpoint).
``replay``
    Pace a recorded trace through the live admission gateway — the identical
    decision path a live service uses — and print the result plus service
    counters (sustained jobs/sec, p50/p95/p99 decision latency).  ``--pace 0``
    fast-forwards; ``--pace N`` plays N trace seconds per wall second.
    ``--report FILE`` writes the counters (and the result digest) as JSON.
``serve``
    Run the live admission service: a JSON-lines TCP server placing job
    batches online with a wall clock (``--rate`` trace seconds per wall
    second).  ``--selftest`` spins an in-process client instead, submits a
    few synthetic batches and exits — the CI smoke path.
``sweep``
    Run a policy × seed grid through the shard fabric — ``--transport
    process`` (the default) or ``inprocess`` (the serial reference) — and
    print per-cell totals and digests; ``--report FILE`` writes them as JSON.
``regions``
    Print the region catalog with each region's average carbon intensity,
    EWIF, WUE, water-scarcity factor and water intensity.
``workloads``
    Print the PARSEC/CloudSuite workload profiles (paper Table 1).
``scenarios``
    Print the workload-scenario library (name, description, default scale).
"""

from __future__ import annotations

import argparse
from collections.abc import Sequence

from repro._version import __version__
from repro.analysis.report import format_table
from repro.analysis.savings import savings_table
from repro.analysis.sweep import run_policies
from repro.cluster import StreamingSimulator, servers_for_target_utilization
from repro.schedulers import available_schedulers, make_scheduler
from repro.sustainability import ElectricityMapsLikeProvider, WRILikeProvider
from repro.traces import AlibabaTraceGenerator, BorgTraceGenerator, WORKLOAD_PROFILES
from repro.traces.scenarios import SCENARIOS, available_scenarios, get_scenario

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="WaterWise reproduction: carbon- and water-aware geo-distributed scheduling",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_workload_arguments(command):
        """Workload/cluster options shared by ``simulate`` and ``checkpoint``.

        One definition keeps the two commands' defaults in lockstep — a
        drifted default would make ``repro checkpoint``/``resume`` rebuild a
        different workload than ``repro simulate`` for identical flags.
        """
        command.add_argument("--trace", choices=["borg", "alibaba"], default="borg")
        command.add_argument(
            "--scenario", choices=available_scenarios(), default=None,
            help="use a named workload scenario instead of --trace (see `repro scenarios`)",
        )
        command.add_argument(
            "--jobs-per-hour", type=float, default=None,
            help="submission rate (default: 60 for --trace, the family's own "
                 "default for --scenario)",
        )
        command.add_argument("--hours", type=float, default=12.0)
        command.add_argument("--tolerance", type=float, default=0.5, help="delay tolerance (0.5 = 50%%)")
        command.add_argument("--utilization", type=float, default=0.15, help="target average utilization")
        command.add_argument("--interval", type=float, default=300.0, help="scheduling interval (s)")
        command.add_argument("--data-source", choices=["electricity-maps", "wri"], default="electricity-maps")
        command.add_argument("--seed", type=int, default=0)
        command.add_argument(
            "--chaos", default=None,
            help="fault-injection timeline: a named chaos family (see `repro "
                 "scenarios`) or a 'key=value,...' spec, e.g. "
                 "'outage_rate_per_day=4,outage_duration_s=1800,eviction=drain'; "
                 "chaos scenarios apply their own spec automatically",
        )
        command.add_argument(
            "--chaos-seed", type=int, default=None,
            help="seed of the chaos timeline (default: --seed)",
        )

    simulate = sub.add_parser("simulate", help="run one or more policies over a synthetic trace")
    simulate.add_argument(
        "--policies", nargs="+", default=["baseline", "waterwise"],
        help=f"policies to compare (available: {', '.join(available_schedulers())})",
    )
    add_workload_arguments(simulate)
    simulate.add_argument(
        "--engine", choices=["scalar", "batch", "stream", "fused"], default=None,
        help="simulation engine: batch = vectorized (identical results), "
             "stream = bounded-memory streaming (identical decisions, memory "
             "stays O(chunk + active jobs)), fused = one-pass multi-policy "
             "streaming (the workload is generated and columnized once for "
             "ALL policies; identical decisions); default: scalar",
    )
    simulate.add_argument(
        "--chunk-size", type=int, default=None,
        help="jobs per streaming chunk (stream/fused engines only; results "
             "are chunk-size-invariant; default 4096)",
    )
    simulate.add_argument(
        "--profile", metavar="FILE", default=None,
        help="profile the simulation with cProfile and write the top entries "
             "(by cumulative time) to FILE",
    )
    simulate.add_argument(
        "--kernel", choices=["vector", "scalar"], default=None,
        help="event kernel for the array engines: vector = production, "
             "scalar = event-at-a-time reference (identical decisions; "
             "default: vector)",
    )

    checkpoint = sub.add_parser(
        "checkpoint",
        help="run the first chunks of a streaming simulation and save its state",
    )
    add_workload_arguments(checkpoint)
    checkpoint.add_argument("--policy", default="waterwise",
                            help=f"policy to run (available: {', '.join(available_schedulers())})")
    checkpoint.add_argument("--chunk-size", type=int, default=4096)
    checkpoint.add_argument("--chunks", type=int, required=True,
                            help="number of chunks to simulate before saving")
    checkpoint.add_argument("--out", required=True, help="checkpoint file to write")

    resume = sub.add_parser(
        "resume", help="continue a checkpointed streaming simulation"
    )
    resume.add_argument("checkpoint_file", help="file written by `repro checkpoint`")
    resume.add_argument(
        "--chunks", type=int, default=None,
        help="advance this many chunks and save again (default: run to completion)",
    )
    resume.add_argument(
        "--out", default=None,
        help="where to save the new checkpoint with --chunks "
             "(default: overwrite the input file)",
    )

    replay = sub.add_parser(
        "replay",
        help="pace a recorded trace through the live admission gateway",
    )
    add_workload_arguments(replay)
    replay.add_argument("--policy", default="waterwise",
                        help=f"policy to run (available: {', '.join(available_schedulers())})")
    replay.add_argument(
        "--pace", type=float, default=0.0,
        help="trace seconds per wall second (0 = fast-forward; 1 = real time)",
    )
    replay.add_argument("--chunk-size", type=int, default=2048,
                        help="jobs per admission batch")
    replay.add_argument(
        "--report", metavar="FILE", default=None,
        help="write the service counters and result digest to FILE as JSON",
    )

    serve = sub.add_parser(
        "serve", help="run the live admission service (JSON-lines over TCP)"
    )
    add_workload_arguments(serve)
    serve.add_argument("--policy", default="waterwise",
                       help=f"policy to run (available: {', '.join(available_schedulers())})")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = pick an ephemeral port)")
    serve.add_argument(
        "--rate", type=float, default=1.0,
        help="trace seconds per wall second on the service clock",
    )
    serve.add_argument(
        "--tick-interval", type=float, default=0.05,
        help="idle self-tick cadence of the gateway (wall seconds)",
    )
    serve.add_argument(
        "--selftest", action="store_true",
        help="serve an in-process client with synthetic batches, then exit",
    )

    sweep = sub.add_parser(
        "sweep",
        help="run a policy sweep through the shard fabric",
    )
    sweep.add_argument(
        "--policies", nargs="+", default=None,
        help="policies to sweep (default: the whole registry: "
             f"{', '.join(available_schedulers())})",
    )
    sweep.add_argument(
        "--trace", default="borg",
        help="trace kind: borg, alibaba, or a scenario name (see `repro scenarios`)",
    )
    sweep.add_argument("--jobs-per-hour", type=float, default=60.0)
    sweep.add_argument("--hours", type=float, default=12.0)
    sweep.add_argument("--tolerance", type=float, default=0.5,
                       help="delay tolerance (0.5 = 50%%)")
    sweep.add_argument("--interval", type=float, default=300.0,
                       help="scheduling interval (s)")
    sweep.add_argument("--servers", type=int, default=20,
                       help="servers per region")
    sweep.add_argument(
        "--seeds", type=int, nargs="+", default=[0],
        help="workload seeds: one sweep point per (policy × seed)",
    )
    sweep.add_argument(
        "--transport", choices=["inprocess", "process"], default="process",
        help="process: local worker processes (default); inprocess: one "
             "worker on the calling thread (the serial reference).  Both "
             "give digest-identical results",
    )
    sweep.add_argument("--workers", type=int, default=None,
                       help="worker processes (process transport; default: "
                            "min(4, cpu count))")
    sweep.add_argument("--chunk-size", type=int, default=4096,
                       help="jobs per streaming chunk")
    sweep.add_argument(
        "--checkpoint-dir", default=None,
        help="shard checkpoint directory shared by all workers "
             "(default: a sweep-lifetime temp dir)",
    )
    sweep.add_argument(
        "--report", metavar="FILE", default=None,
        help="write the outcome table (and per-cell digests) to FILE as JSON",
    )

    sub.add_parser("regions", help="print the region catalog and its sustainability factors")
    sub.add_parser("workloads", help="print the PARSEC/CloudSuite workload profiles")
    sub.add_parser("scenarios", help="print the workload-scenario library")
    return parser


def _build_source(args: argparse.Namespace):
    """The chunked trace source an argparse namespace describes."""
    if args.scenario is not None:
        # None lets the scenario family's natural rate apply.
        return get_scenario(args.scenario).source(
            seed=args.seed,
            rate_per_hour=args.jobs_per_hour,
            duration_days=args.hours / 24.0,
        )
    generator_cls = BorgTraceGenerator if args.trace == "borg" else AlibabaTraceGenerator
    return generator_cls(
        rate_per_hour=60.0 if args.jobs_per_hour is None else args.jobs_per_hour,
        duration_days=args.hours / 24.0,
        seed=args.seed,
    )


def _build_dataset(args: argparse.Namespace):
    provider = (
        ElectricityMapsLikeProvider
        if args.data_source == "electricity-maps"
        else WRILikeProvider
    )
    return provider(horizon_hours=int(args.hours) + 48, seed=args.seed)


#: Argparse fields `repro checkpoint` stores so `repro resume` can rebuild
#: the identical source and dataset.
_WORKLOAD_ARGS = (
    "trace", "scenario", "jobs_per_hour", "hours", "tolerance",
    "utilization", "interval", "data_source", "seed", "chaos", "chaos_seed",
)


def _resolve_chaos(args: argparse.Namespace) -> tuple[str | None, int]:
    """(chaos spec, chaos seed): --chaos wins, else the scenario's own."""
    chaos = args.chaos
    if chaos is None and args.scenario is not None:
        chaos = get_scenario(args.scenario).chaos
    seed = args.seed if args.chaos_seed is None else args.chaos_seed
    return chaos, seed


def _resolve_engine(args: argparse.Namespace, chaos: str | None = None) -> tuple[str, int]:
    """(engine, chunk_size) for ``simulate``, rejecting conflicting flags."""
    default = "scalar"
    if chaos is not None:
        # Chaos timelines run on the array engines only (the batch engine's
        # scalar *kernel* remains the chaos reference path).
        if args.engine == "scalar":
            raise SystemExit(
                "--engine scalar cannot run a chaos timeline; use "
                "--engine batch/stream/fused"
            )
        default = "batch"
    engine = args.engine or default
    if args.chunk_size is not None and engine not in ("stream", "fused"):
        raise SystemExit(
            "--chunk-size requires a chunked engine (--engine stream/fused)"
        )
    return engine, 4096 if args.chunk_size is None else args.chunk_size


def _cmd_simulate(args: argparse.Namespace) -> int:
    chaos, chaos_seed = _resolve_chaos(args)
    engine, chunk_size = _resolve_engine(args, chaos)
    if args.kernel is not None and engine == "scalar":
        raise SystemExit(
            "--kernel selects the array engines' event kernel; the "
            "scalar engine has none (use --engine batch/stream/fused)"
        )
    kernel = args.kernel or "vector"
    source = _build_source(args)
    dataset = _build_dataset(args)
    if engine in ("stream", "fused"):
        trace = source  # run_policies streams the source directly
    else:
        trace = source.materialize()
    servers = servers_for_target_utilization(
        trace, dataset.region_keys, target_utilization=args.utilization
    )

    if "baseline" not in args.policies:
        # Savings are always reported against the baseline, so run it regardless.
        policy_names = ["baseline", *args.policies]
    else:
        policy_names = list(args.policies)
    policies = {name: (lambda n=name: make_scheduler(n)) for name in policy_names}

    if engine == "fused":
        print(
            f"trace     : {source.trace_name} "
            f"(fused multi-policy streaming, {chunk_size} jobs/chunk)"
        )
    elif engine == "stream":
        print(f"trace     : {source.trace_name} (streaming, {chunk_size} jobs/chunk)")
    else:
        print(f"trace     : {trace}")
    print(f"servers   : {servers} per region ({args.utilization:.0%} target utilization)")
    if chaos is not None:
        print(f"chaos     : {chaos} (seed {chaos_seed})")
    print(f"tolerance : {args.tolerance:.0%}\n")

    profiler = None
    if args.profile is not None:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    results = run_policies(
        trace,
        dataset,
        policies,
        servers_per_region=servers,
        delay_tolerance=args.tolerance,
        scheduling_interval_s=args.interval,
        engine=engine,
        chunk_size=chunk_size,
        chaos=chaos,
        chaos_seed=chaos_seed,
        kernel=kernel,
    )
    if profiler is not None:
        profiler.disable()
    totals = [
        [
            name,
            result.total_carbon_kg,
            result.total_water_m3,
            result.mean_service_ratio,
            100.0 * result.violation_fraction,
        ]
        for name, result in results.items()
    ]
    print(format_table(
        ["policy", "carbon_kg", "water_m3", "service_ratio", "violations_%"], totals, title="Totals"
    ))
    print()
    savings_rows = [
        [entry.policy, entry.carbon_savings_pct, entry.water_savings_pct]
        for entry in savings_table(results)
        if entry.policy != "baseline"
    ]
    if savings_rows:
        print(format_table(
            ["policy", "carbon_savings_%", "water_savings_%"], savings_rows,
            title="Savings vs. baseline",
        ))
    if profiler is not None:
        _write_profile(profiler, args.profile)
    return 0


def _write_profile(profiler, path: str, top: int = 40) -> None:
    """Dump the profile's top functions (by cumulative time) to ``path``."""
    import io
    import pstats

    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    stats.sort_stats("tottime").print_stats(top)
    with open(path, "w", encoding="utf-8") as sink:
        sink.write(buffer.getvalue())
    print(f"\nprofile   : wrote top-{top} functions to {path}")


def _print_stream_summary(result) -> None:
    rows = [[
        result.scheduler_name,
        result.total_carbon_kg,
        result.total_water_m3,
        result.mean_service_ratio,
        100.0 * result.violation_fraction,
    ]]
    print(format_table(
        ["policy", "carbon_kg", "water_m3", "service_ratio", "violations_%"],
        rows, title="Totals",
    ))
    quantiles = result.service_ratio_quantiles()
    print()
    print(format_table(
        ["p50", "p95", "p99"],
        [[quantiles[0.5], quantiles[0.95], quantiles[0.99]]],
        title="Service-ratio quantiles (streaming estimates)",
    ))


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    chaos, chaos_seed = _resolve_chaos(args)
    source = _build_source(args)
    dataset = _build_dataset(args)
    servers = servers_for_target_utilization(
        source, dataset.region_keys, target_utilization=args.utilization
    )
    engine = StreamingSimulator(
        source,
        make_scheduler(args.policy),
        dataset=dataset,
        servers_per_region=servers,
        scheduling_interval_s=args.interval,
        delay_tolerance=args.tolerance,
        chunk_size=args.chunk_size,
        collect="aggregate",
        chaos=chaos,
        chaos_seed=chaos_seed,
    )
    consumed = engine.run_chunks(max_chunks=args.chunks)
    extra = {"cli": {name: getattr(args, name) for name in _WORKLOAD_ARGS}}
    extra["cli"]["policy"] = args.policy
    engine.save_checkpoint(args.out, extra=extra)
    state = engine.state
    print(
        f"checkpoint: {args.out} after {consumed} chunks "
        f"({state.jobs_seen} jobs seen, {state.rounds} rounds, "
        f"{state.active_jobs} in flight)"
    )
    print(f"resume with: repro resume {args.out}")
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    payload = StreamingSimulator.load_checkpoint(args.checkpoint_file)
    spec = payload["extra"].get("cli")
    if spec is None:
        raise SystemExit(
            f"{args.checkpoint_file} carries no CLI workload spec; resume it "
            "programmatically via StreamingSimulator.from_checkpoint"
        )
    if args.out is not None and args.chunks is None:
        raise SystemExit(
            "--out requires --chunks (a run to completion produces a result, "
            "not a new checkpoint)"
        )
    workload = argparse.Namespace(**{name: spec[name] for name in _WORKLOAD_ARGS})
    source = _build_source(workload)
    dataset = _build_dataset(workload)
    engine = StreamingSimulator.from_checkpoint(
        args.checkpoint_file, source, dataset=dataset
    )
    if args.chunks is not None:
        consumed = engine.run_chunks(max_chunks=args.chunks)
        out = args.out or args.checkpoint_file
        engine.save_checkpoint(out, extra=payload["extra"])
        state = engine.state
        print(
            f"checkpoint: {out} after {consumed} more chunks "
            f"({state.jobs_seen} jobs seen, {state.rounds} rounds, "
            f"{state.active_jobs} in flight)"
        )
        return 0
    result = engine.run()
    print(f"trace     : {result.trace_name} (resumed streaming run, policy {spec['policy']})")
    print(f"jobs      : {result.num_jobs}\n")
    _print_stream_summary(result)
    return 0


def _build_live_engine(args: argparse.Namespace, collect: str = "aggregate"):
    """(engine, servers) for the service commands — shared recipe."""
    chaos, chaos_seed = _resolve_chaos(args)
    source = _build_source(args)
    dataset = _build_dataset(args)
    servers = servers_for_target_utilization(
        source, dataset.region_keys, target_utilization=args.utilization
    )
    engine = StreamingSimulator(
        source,
        make_scheduler(args.policy),
        dataset=dataset,
        servers_per_region=servers,
        scheduling_interval_s=args.interval,
        delay_tolerance=args.tolerance,
        collect=collect,
        chaos=chaos,
        chaos_seed=chaos_seed,
    )
    return engine, source, servers


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.service import run_replay

    engine, source, servers = _build_live_engine(args)
    pace = "fast-forward" if args.pace == 0 else f"{args.pace:g}x real time"
    print(f"trace     : {source.trace_name} (replayed live, {pace})")
    print(f"servers   : {servers} per region ({args.utilization:.0%} target utilization)")
    print(f"policy    : {args.policy}\n")
    report = run_replay(source, engine, pace=args.pace, chunk_size=args.chunk_size)
    stats = report.stats
    _print_stream_summary(report.result)
    print()
    print(format_table(
        ["jobs", "batches", "jobs_per_s", "p50_ms", "p95_ms", "p99_ms", "max_ms"],
        [[
            stats.decided,
            stats.batches,
            stats.throughput_jobs_per_s,
            1e3 * stats.latency_p50_s,
            1e3 * stats.latency_p95_s,
            1e3 * stats.latency_p99_s,
            1e3 * stats.latency_max_s,
        ]],
        title="Admission service counters (decision latency is wall time)",
    ))
    if args.report is not None:
        import json

        with open(args.report, "w", encoding="utf-8") as sink:
            json.dump(report.as_dict(), sink, indent=2)
            sink.write("\n")
        print(f"\nreport    : wrote service counters to {args.report}")
    return 0


async def _selftest_client(port: int, regions, batches: int = 3, jobs_per_batch: int = 4):
    """Exercise a running server over real TCP: submit, stats, shutdown."""
    import asyncio
    import json

    reader, writer = await asyncio.open_connection("127.0.0.1", port)

    async def rpc(request: dict) -> dict:
        writer.write(json.dumps(request).encode() + b"\n")
        await writer.drain()
        response = json.loads(await reader.readline())
        if not response.get("ok"):
            raise SystemExit(f"selftest request failed: {response.get('error')}")
        return response

    decided = 0
    for batch in range(batches):
        jobs = [
            {
                "job_id": batch * jobs_per_batch + i,
                "workload": "web-search",
                "home_region": regions[i % len(regions)],
                "execution_time": 600.0,
                "energy_kwh": 0.4,
            }
            for i in range(jobs_per_batch)
        ]
        response = await rpc({"op": "submit", "jobs": jobs})
        decided += len(response["decisions"])
    stats = (await rpc({"op": "stats"}))["stats"]
    await rpc({"op": "shutdown"})
    writer.close()
    return decided, stats


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.service import AdmissionGateway, AdmissionServer, WallClock

    engine, _source, servers = _build_live_engine(args)

    async def _serve() -> int:
        gateway = AdmissionGateway(
            engine,
            clock=WallClock(rate=args.rate),
            arrival_mode="clock",
            tick_interval_s=args.tick_interval,
        )
        server = await AdmissionServer(gateway, host=args.host, port=args.port).start()
        print(
            f"serving   : {args.host}:{server.port} "
            f"(policy {args.policy}, {servers} servers/region, "
            f"clock rate {args.rate:g}x)"
        )
        if args.selftest:
            serve_task = asyncio.ensure_future(server.serve_until_shutdown())
            decided, stats = await _selftest_client(server.port, engine._keys_tuple)
            await serve_task
            await server.stop()
            print(
                f"selftest  : {decided} jobs placed over TCP "
                f"(p99 decision latency {1e3 * stats['latency_p99_s']:.1f} ms)"
            )
            return 0
        result = await server.serve_until_shutdown()
        await server.stop()
        if result is None:
            print("\nshutdown  : the admission gateway failed; no session result")
            return 1
        print(f"\nshutdown  : session finalized after {result.num_jobs} jobs\n")
        _print_stream_summary(result)
        return 0

    return asyncio.run(_serve())


def _cmd_regions() -> int:
    dataset = ElectricityMapsLikeProvider(horizon_hours=24 * 30, seed=0)
    rows = []
    for key in dataset.region_keys:
        series = dataset.series_for(key)
        region = series.region
        rows.append(
            [
                region.name,
                region.aws_code,
                series.mean_carbon_intensity(),
                series.mean_ewif(),
                series.mean_wue(),
                series.wsf,
                series.mean_water_intensity(),
            ]
        )
    print(format_table(
        ["region", "aws_code", "carbon_gCO2_kwh", "ewif_L_kwh", "wue_L_kwh", "wsf", "water_intensity"],
        rows,
        title="Region catalog (30-day synthetic averages)",
    ))
    return 0


def _cmd_workloads() -> int:
    rows = [
        [w.name, w.suite, w.domain, w.mean_execution_time_s, w.mean_utilization, w.package_gb]
        for w in WORKLOAD_PROFILES.values()
    ]
    print(format_table(
        ["workload", "suite", "domain", "mean_exec_s", "utilization", "package_gb"],
        rows,
        title="Workload profiles (paper Table 1)",
    ))
    return 0


def _cmd_scenarios() -> int:
    rows = [
        [s.name, s.description, s.default_rate_per_hour, s.default_duration_days,
         s.chaos or "-"]
        for s in SCENARIOS.values()
    ]
    print(format_table(
        ["scenario", "description", "default_rate_per_h", "default_days", "chaos"],
        rows,
        title="Workload scenario library",
    ))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis import SweepPoint, run_sweep

    policies = args.policies or list(available_schedulers())
    points = [
        SweepPoint(
            scheduler=policy,
            trace_kind=args.trace,
            rate_per_hour=args.jobs_per_hour,
            duration_days=args.hours / 24.0,
            delay_tolerance=args.tolerance,
            servers_per_region=args.servers,
            scheduling_interval_s=args.interval,
            seed=seed,
        )
        for seed in args.seeds
        for policy in policies
    ]
    outcomes = run_sweep(
        points,
        workers=args.workers,
        transport=args.transport,
        chunk_size=args.chunk_size,
        checkpoint_dir=args.checkpoint_dir,
    )
    rows = [
        [
            outcome.point.scheduler,
            outcome.point.seed,
            outcome.num_jobs,
            f"{outcome.total_carbon_g / 1000.0:.2f}",
            f"{outcome.total_water_l:.2f}",
            f"{outcome.mean_service_ratio:.4f}",
            f"{outcome.violation_fraction:.4f}",
            f"{outcome.digest:08x}",
        ]
        for outcome in outcomes
    ]
    print(format_table(
        ["policy", "seed", "jobs", "carbon_kg", "water_l",
         "service_ratio", "violations", "digest"],
        rows,
        title=f"Sweep: {args.trace} × {len(points)} cells (fabric/{args.transport})",
    ))
    if args.report:
        import json

        payload = [
            {
                "scheduler": outcome.point.scheduler,
                "seed": outcome.point.seed,
                "num_jobs": outcome.num_jobs,
                "total_carbon_g": outcome.total_carbon_g,
                "total_water_l": outcome.total_water_l,
                "mean_service_ratio": outcome.mean_service_ratio,
                "violation_fraction": outcome.violation_fraction,
                "digest": outcome.digest,
            }
            for outcome in outcomes
        ]
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump({"trace": args.trace, "outcomes": payload}, handle, indent=2)
        print(f"report written to {args.report}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "checkpoint":
        return _cmd_checkpoint(args)
    if args.command == "resume":
        return _cmd_resume(args)
    if args.command == "replay":
        return _cmd_replay(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "regions":
        return _cmd_regions()
    if args.command == "workloads":
        return _cmd_workloads()
    if args.command == "scenarios":
        return _cmd_scenarios()
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover

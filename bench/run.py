"""One end-to-end benchmark for the WaterWise stack.

Usage (from the repository root)::

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S]
                         [--trace 0|1] [--spans SPANS.jsonl] [--json OUT]
                         [--scale full|smoke] [--record-expected]

Each workload runs in a fresh child process (one process, no executor
pools, BLAS/OpenMP pinned to one thread).  The child sets up its inputs
several times (imports once, then construction and a fixed-size warm-up)
and reports the median as ``setup_s``, then measures for ``--seconds``.
With ``--trace 0`` it prints every end-to-end metric of ``BENCHMARK.json``;
with ``--trace 1`` it alternates untraced and traced work and prints every
per-layer metric instead (``--spans`` also writes the spans as JSONL).
Outputs are checked against ``bench/expected.json`` where it pins the
instance, and against an independent oracle otherwise; any mismatch makes
the run exit non-zero.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import functools  # noqa: E402
import gc  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import spans  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXPECTED = ROOT / "bench" / "expected.json"
#: Each child must finish well inside the 180 s a benchmark run may take.
CHILD_TIMEOUT_S = 170.0
#: Set-up is repeated this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Default ``--seconds`` of the smoke scale.
SMOKE_SECONDS = 0.4
#: A run stops early once this many repetitions have raised.
MAX_FAILED_REPS = 10


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- host record -----------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_record() -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "commit": _git_commit(),
        # A box with fewer than 2 cores cannot host the workload process and
        # the OS at once; its numbers are reported but never used as a gate.
        "under_provisioned": nproc < 2,
    }


# -- child: one workload -------------------------------------------------------------


def _percentile_ms(seconds, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(seconds, dtype=float) * 1e3, q)) if len(seconds) else 0.0


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def _vector_frac(kernel: dict) -> float:
    return _ratio(kernel["clean_events"], sum(kernel.values()))


def _layer_metrics(tracer, run: int, work: float, wall_s: float, kernel: dict) -> dict:
    """Per-layer metrics of one traced run (repetition or session)."""
    own = spans.self_seconds_by_metric(tracer.spans, run)
    c = tracer.counts_for(run)
    rounds_s = spans.durations_s(tracer.spans, run, "schedulers.round")
    metrics = dict(own)
    metrics.update({
        "traces.jobs": c.get("traces.jobs", 0),
        "schedulers.rounds": c.get("schedulers.rounds", 0),
        "schedulers.round_p99_ms": _percentile_ms(rounds_s, 99),
        "schedulers.placed_frac": _ratio(c.get("schedulers.placed", 0),
                                         c.get("schedulers.considered", 0)),
        "core.slack_calls": c.get("core.slack_calls", 0),
        "core.avg_lookups_per_job": _ratio(c.get("core.avg_lookups", 0), work),
        "milp.solves": c.get("milp.solves", 0),
        "milp.iterations": c.get("milp.iterations", 0),
        "milp.nonoptimal_frac": _ratio(c.get("milp.nonoptimal", 0), c.get("milp.solves", 0)),
        "milp.highs_calls": c.get("milp.highs_calls", 0),
        "events.windows": c.get("events.windows", 0),
        "events.vector_frac": _vector_frac(kernel),
        "events.replayed_events": kernel["replayed_events"],
        "timeline.evictions": c.get("timeline.evictions", 0),
        "service.admits": c.get("service.admits", 0),
        "checkpoint.saves": c.get("checkpoint.saves", 0),
        "checkpoint.bytes": c.get("checkpoint.bytes", 0),
        "trace.coverage_frac": _ratio(sum(own.values()), wall_s),
    })
    return metrics


def _simulation(workload, args, tracer) -> dict:
    """Timed repetitions of a simulation workload; returns the child payload."""
    import numpy as np

    plain, traced, errors = [], [], []
    untraced = []
    deadline = time.perf_counter() + args.seconds
    while len(errors) < MAX_FAILED_REPS:
        covered = len(plain) >= workload.parts and (not args.trace or len(traced) >= workload.parts)
        if (covered or errors) and time.perf_counter() >= deadline:
            break
        trace_this = args.trace and len(plain) > len(traced)
        done = traced if trace_this else plain
        part = len(done) % workload.parts
        gc.collect()
        started = time.perf_counter()
        try:
            if trace_this:
                tracer.run = len(traced) + 1
                with spans.patched(spans.layer_targets(tracer)) as untraced:
                    with tracer.span("engine"):
                        rep = workload.rep(part)
            else:
                rep = workload.rep(part)
        except Exception as error:  # one failed operation; the run goes on
            errors.append(f"{workload.name} part {part} repetition raised {error!r}")
            continue
        done.append((part, rep, time.perf_counter() - started))

    metrics = {"peak_rss_mb": _peak_rss_mb()}
    failures = list(errors)
    if plain:
        # Each operation's median over its part's repetitions: a burst of host
        # noise slows some repetitions of the heavy rounds, not the rounds.
        by_part = {}
        for part, rep, _ in plain:
            by_part.setdefault(part, []).append(rep.latency_s)
        for part, reps in by_part.items():
            if len({len(r) for r in reps}) > 1:
                failures.append(f"part {part}: repetitions made different numbers of operations")
                reps[:] = [r[:min(map(len, reps))] for r in reps]
        latency_s = [t for reps in by_part.values() for t in np.median(np.array(reps), axis=0)]
        metrics.update({
            "jobs_per_s": statistics.median([rep.work / s for _, rep, s in plain]),
            "latency_p50_ms": _percentile_ms(latency_s, 50),
            "latency_p99_ms": _percentile_ms(latency_s, 99),
        })
    if traced:
        # Median over each part's traced repetitions, then the mean over
        # parts: counts then repeat exactly, however many repetitions fit.
        by_part = {}
        for i, (part, rep, s) in enumerate(traced):
            by_part.setdefault(part, []).append(
                _layer_metrics(tracer, i + 1, rep.work, s, rep.kernel)
            )
        for name in next(iter(by_part.values()))[0]:
            metrics[name] = statistics.fmean(
                statistics.median([m[name] for m in runs]) for runs in by_part.values()
            )
        metrics.update({
            "service.queue_wait_p99_ms": 0.0,
            "loadgen.batches": 0,
            "loadgen.late_p99_ms": 0.0,
            "trace.overhead_frac": statistics.median([s for _, _, s in traced])
            / statistics.median([s for _, _, s in plain]) - 1.0,
        })
    return {
        "metrics": metrics,
        "failures": failures,
        "errored": len(errors),
        "untraced": untraced,
        "answers": [(part, rep.answer) for part, rep, _ in plain + traced],
        "samples": {"rep_s": [s for _, _, s in plain], "traced_rep_s": [s for _, _, s in traced]},
    }


def _live(workload, args, tracer) -> dict:
    plain = workload.session()
    sessions = [plain]
    metrics = {
        "jobs_per_s": _ratio(plain.decided, plain.cpu_s),
        "latency_p50_ms": _percentile_ms(plain.latency_s, 50),
        "latency_p99_ms": _percentile_ms(plain.latency_s, 99),
    }
    if args.trace:
        admitted: list[float] = []
        tracer.run = 1
        targets = spans.layer_targets(
            tracer, on_admit=lambda chunk: admitted.append(time.perf_counter())
        )
        with spans.patched(targets) as untraced:
            traced = workload.session(tracer, admitted)
        sessions.append(traced)
        metrics.update(_layer_metrics(tracer, 1, traced.decided, traced.busy_s, traced.kernel))
        metrics.update({
            "service.queue_wait_p99_ms": _percentile_ms(traced.queue_wait_s, 99),
            "loadgen.batches": len(traced.lateness_s),
            "loadgen.late_p99_ms": _percentile_ms(traced.lateness_s, 99),
            "trace.overhead_frac": _ratio(_percentile_ms(traced.latency_s, 50),
                                          metrics["latency_p50_ms"]) - 1.0,
        })
    metrics["peak_rss_mb"] = _peak_rss_mb()
    return {
        "metrics": metrics,
        "untraced": untraced if args.trace else [],
        "sessions": sessions,
        "samples": {"batches": len(plain.latency_s), "cpu_s": plain.cpu_s,
                    "wall_s": plain.wall_s, "busy_s": plain.busy_s,
                    "late_p99_ms": _percentile_ms(plain.lateness_s, 99)},
    }


def _check(workload, answers, record: bool) -> tuple[list[str], list[bool], dict]:
    """Correctness gate: compare every ``(part, answer)`` to the pinned one or the oracle.

    Returns ``(messages, per-answer failed flags, first answer per instance key)``.
    """
    import workloads

    expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    pinned_table = expected.get(workload.name, {})
    messages, wants = [], {}
    for part in sorted({part for part, _ in answers}):
        pinned = pinned_table.get(workload.instance_key(part))
        if pinned is not None and not record:
            wants[part] = (workloads.Answer(**pinned), "expected.json")
            continue
        wants[part] = (workload.reference(part), "oracle")
        if pinned is not None:
            messages += [f"part {part} oracle vs expected.json: {p}" for p in
                         workloads.compare_answers(wants[part][0], workloads.Answer(**pinned))]
    first, failed = {}, []
    for i, (part, answer) in enumerate(answers):
        want, origin = wants[part]
        problems = workloads.compare_answers(answer, want)
        # An oracle without a comparable digest still pins run-to-run identity.
        if part in first:
            problems += workloads.compare_answers(answer, first[part])
        first.setdefault(part, answer)
        failed.append(bool(problems))
        messages += [f"{workload.name} part {part} answer {i} vs {origin}: {p}" for p in problems]
    return messages, failed, {workload.instance_key(part): a.as_dict() for part, a in first.items()}


def child_main(args) -> int:
    import numpy
    import scipy
    import scipy.optimize  # noqa: F401  (part of set-up: the MILP layer needs it)

    import repro  # noqa: F401
    import workloads

    import_s = time.perf_counter() - _STARTED
    name = args.workload[0]
    tracer = spans.Tracer()
    # Live checkpoints go to a scratch directory inside the checkout that is
    # removed when the measurement ends.
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=ROOT) as workdir:
        if name == workloads.WaterWiseLive.name:
            # A traced run spends half its time on an untraced session, the
            # reference for trace.overhead_frac.
            session_s = args.seconds / 2 if args.trace else args.seconds
            make = functools.partial(
                workloads.WaterWiseLive, args.seed, args.scale, session_s, workdir
            )
        else:
            make = functools.partial(workloads.SIMULATIONS[name], args.seed, args.scale)

        setup_times = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            workload = make()
            workload.setup()
            setup_times.append(time.perf_counter() - started)

        if name == workloads.WaterWiseLive.name:
            payload = _live(workload, args, tracer)
        else:
            payload = _simulation(workload, args, tracer)
    payload["metrics"]["setup_s"] = import_s + statistics.median(setup_times)

    if name == workloads.WaterWiseLive.name:
        sessions = payload.pop("sessions")
        answers = [(0, s.answer) for s in sessions]
        attempted = sum(len(s.latency_s) for s in sessions)
        failed = sum(s.failed_batches for s in sessions)
        messages = [m for s in sessions for m in s.failures]
    else:
        answers = payload.pop("answers")
        errored = payload.pop("errored")
        attempted, messages = len(answers) + errored, payload.pop("failures")

    check_messages, answer_failed, first = _check(workload, answers, args.record_expected)
    messages += check_messages
    if name == workloads.WaterWiseLive.name:
        batches_per_session = attempted // len(answers)
        failed = max(failed, batches_per_session * sum(answer_failed))
    else:
        failed = sum(answer_failed) + errored
    if args.record_expected and not messages:
        expected = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
        expected.setdefault(name, {}).update(first)
        EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    if args.spans:
        tracer.write_jsonl(args.spans)

    payload.update({
        "workload": name,
        "answers": first,
        "attempted": attempted,
        "failed": failed,
        "failures": messages,
        "correct": not messages and failed == 0,
        "setup_samples_s": setup_times,
        "import_s": import_s,
        "libraries": {
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numba": importlib.util.find_spec("numba") is not None,
        },
    })
    print(json.dumps(payload))
    return 0


# -- parent: orchestration and report ----------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # One compute thread per child, so BLAS/OpenMP never compete with the
    # simulation for the cores the measurement runs on.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(name: str, args) -> dict | None:
    command = [
        sys.executable, str(pathlib.Path(__file__).resolve()), "--child",
        "--workload", name, "--seed", str(args.seed), "--seconds", repr(args.seconds),
        "--trace", str(args.trace), "--scale", args.scale,
    ]
    if args.spans:
        spans_path = pathlib.Path(args.spans)
        command += ["--spans", str(spans_path.with_name(
            f"{spans_path.stem}.{name}{spans_path.suffix or '.jsonl'}"))]
    if args.record_expected:
        command.append("--record-expected")
    try:
        done = subprocess.run(command, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: child exceeded {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"{name}: child exited with {done.returncode}\n{done.stdout}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    if not (ROOT / "BENCHMARK.json").exists() or not (ROOT / "src" / "repro").is_dir():
        print(f"bench: no BENCHMARK.json or WaterWise sources under {ROOT}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", type=int, default=42)
    # The benchmark command is always invoked with --seconds <run_seconds>;
    # compare.py refuses reports whose --seconds (or scale, trace) differ.
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured time per workload (default: BENCHMARK.json "
                             f"run_seconds, {SMOKE_SECONDS:g} at --scale smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting the per-layer metrics")
    parser.add_argument("--spans", help="with --trace 1: write spans to SPANS.<workload>.jsonl")
    parser.add_argument("--json", help="write the full report (host, raw samples) here")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--record-expected", action="store_true",
                        help=f"store this run's checked answers in {EXPECTED.name} "
                             "(pinned seeds: 42 for tuning, 7 held out)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.scale == "smoke" else float(spec["run_seconds"])
    if args.child:
        return child_main(args)

    host = host_record()
    print(f"# host nproc={host['nproc']} cpu={host['cpu_model']!r} "
          f"python={host['python']} commit={host['commit']}")
    if host["under_provisioned"]:
        print("# host UNDER-PROVISIONED: fewer than 2 cores; numbers are not for gating")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = {"host": host, "args": vars(args), "workloads": {}}
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    libs_printed = False
    for name in args.workload:
        payload = run_child(name, args)
        if payload is None:
            # The child crashed or timed out: the workload fails, the others still run.
            payload = {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                       "failures": [f"{name}: no result from its child process"],
                       "untraced": []}
        report["workloads"][name] = payload
        libs = payload.get("libraries")
        if libs and not libs_printed:
            libs_printed = True
            print(f"# libs numpy={libs['numpy']} scipy={libs['scipy']} "
                  f"numba={'yes' if libs['numba'] else 'no'}")
        for message in payload["failures"]:
            print(f"# FAIL {message}")
        if payload["untraced"]:
            print(f"# {name}: hooks gone, layers read 0: {', '.join(payload['untraced'])}")
        for metric in wanted:
            value = payload["metrics"].get(metric["name"])
            if value is None:
                continue
            print(f"{name} {metric['name']} {value:.6g} {metric['unit']}")
            key = metric["name"] if len(args.workload) == 1 else f"{name}:{metric['name']}"
            summary["metrics"][key] = {"value": value, "unit": metric["unit"]}
        summary["correct"] = summary["correct"] and payload["correct"]
        summary["attempted"] += payload["attempted"]
        summary["failed"] += payload["failed"]
    if args.json:
        pathlib.Path(args.json).write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

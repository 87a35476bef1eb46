"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from inside ``bench/`` only.  :func:`patched` replaces the
module or class attribute an engine looks up with a timing wrapper and puts
the original object back on exit, even when the workload raises, so no file
under ``src/`` changes and the untraced run executes the unmodified code.

A span is ``[name, start_ns, end_ns, parent_id, run_id]``; its id is its index
in :attr:`Tracer.spans`.  Calls that happen millions of times per run (the
slack scorer's ``cached_average_from`` lookups) are counted, not spanned.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import json
import os
import time

#: Span name → the per-layer self-time metric it feeds.  Every span the
#: tracer opens is listed here, so the layer self times sum to the traced
#: wall time of the root spans.
SELF_TIME_METRICS = {
    "traces.gen": "traces.gen_s",
    "traces.materialize": "traces.gen_s",
    "schedulers.round": "schedulers.round_s",
    "core.slack": "core.slack_s",
    "core.decide": "core.decide_s",
    "milp.solve": "milp.solve_s",
    "milp.highs": "milp.highs_s",
    "events.kernel": "events.kernel_s",
    "timeline.step": "timeline.step_s",
    "footprint.integrate": "footprint.integrate_s",
    "footprint.matrices": "footprint.matrices_s",
    "metrics.collect": "metrics.collect_s",
    "engine": "engine.self_s",
    "service.admit": "service.admit_self_s",
    "service.gateway": "service.gateway_s",
    "checkpoint.save": "checkpoint.save_s",
    "loadgen": "loadgen.self_s",
}


class Tracer:
    """Collects spans and counters in memory; :meth:`write_jsonl` dumps them."""

    def __init__(self, clock=time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[list] = []
        #: ``(run_id, counter name) → value``.
        self.counts: collections.Counter = collections.Counter()
        #: Run id stamped on new spans and counters (one per timed repetition).
        self.run = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.clock(), 0, parent, self.run])
        self._stack.append(span_id)
        return span_id

    def close(self, span_id: int) -> None:
        self.spans[span_id][2] = self.clock()
        popped = self._stack.pop()
        if popped != span_id:
            raise RuntimeError(f"span {span_id} closed while span {popped} was open")

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = self.open(name)
        try:
            yield
        finally:
            self.close(span_id)

    def count(self, name: str, n: int | float = 1) -> None:
        self.counts[(self.run, name)] += n

    def counts_for(self, run: int) -> dict[str, float]:
        return {name: value for (r, name), value in self.counts.items() if r == run}

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as sink:
            for span_id, (name, start, end, parent, run) in enumerate(self.spans):
                sink.write(
                    json.dumps(
                        {"id": span_id, "name": name, "start_ns": start,
                         "end_ns": end, "parent": parent, "run": run}
                    )
                    + "\n"
                )


def self_times(spans) -> list[int]:
    """Each span's duration minus the part of it its direct children cover.

    Spans come from synchronous calls, so a parent's children never overlap
    one another and their durations simply add up.
    """
    covered = [0] * len(spans)
    for _name, start, end, parent, _run in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(span[2] - span[1]) - covered[i] for i, span in enumerate(spans)]


def self_seconds_by_metric(spans, run: int) -> dict[str, float]:
    """Summed self time of one run's spans, keyed by per-layer metric name."""
    totals = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
    for span, own in zip(spans, self_times(spans)):
        if span[4] == run:
            totals[SELF_TIME_METRICS[span[0]]] += own / 1e9
    return totals


def durations_s(spans, run: int, name: str) -> list[float]:
    """Total (not self) durations of one run's spans called ``name``."""
    return [
        (end - start) / 1e9
        for span_name, start, end, _parent, span_run in spans
        if span_run == run and span_name == name
    ]


# -- patching ------------------------------------------------------------------------


def _owner(path: str):
    """The module or class ``"module:Class"`` names, or ``None`` once it is gone."""
    module_name, _, qualname = path.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in filter(None, qualname.split(".")):
        owner = getattr(owner, part, None)
    return owner


@contextlib.contextmanager
def patched(targets):
    """Install ``(owner, attribute, make_wrapper)`` replacements; restore on exit.

    ``owner`` is an object or a ``"module:Class"`` path, and
    ``make_wrapper(original)`` returns the replacement.  The attribute must
    live in the owner's own ``__dict__`` (a class attribute set on a
    subclass would shadow, and restoring would leave it shadowed).  Targets
    whose owner or attribute no longer exists are skipped, so the traced run
    still works after a layer is renamed or removed; :func:`patched` yields
    the skipped ``owner.attribute`` names.
    """
    installed = []
    skipped = []
    try:
        for owner, attribute, make_wrapper in targets:
            label = f"{owner if isinstance(owner, str) else type(owner).__name__}.{attribute}"
            if isinstance(owner, str):
                owner = _owner(owner)
            original = vars(owner).get(attribute) if owner is not None else None
            if original is None:
                skipped.append(label)
                continue
            setattr(owner, attribute, make_wrapper(original))
            installed.append((owner, attribute, original))
        yield skipped
    finally:
        for owner, attribute, original in reversed(installed):
            setattr(owner, attribute, original)


def timed(tracer: Tracer, name: str, after=None):
    """Wrapper factory: one span per call, then ``after(args, kwargs, result)``."""

    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_id = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(span_id)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    return make


def timed_iter(tracer: Tracer, name: str, after=None):
    """Wrapper factory for generator functions: one span per ``next``."""

    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            iterator = original(*args, **kwargs)
            try:
                while True:
                    span_id = tracer.open(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        tracer.close(span_id)
                    if after is not None:
                        after(item)
                    yield item
            finally:
                iterator.close()

        return wrapper

    return make


class _Stepped:
    """Awaitable running a coroutine with each step spanned.

    A step is the stretch between two suspensions, during which the
    coroutine runs synchronously, so spans opened inside it nest properly.
    """

    def __init__(self, tracer: Tracer, name: str, coro) -> None:
        self.tracer, self.name, self.coro = tracer, name, coro

    def __await__(self):
        value, error = None, None
        while True:
            span_id = self.tracer.open(self.name)
            try:
                if error is None:
                    yielded = self.coro.send(value)
                else:
                    yielded = self.coro.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self.tracer.close(span_id)
            try:
                value, error = (yield yielded), None
            except BaseException as delivered:  # e.g. cancellation: pass it on
                value, error = None, delivered


async def stepped(tracer: Tracer, name: str, coro):
    """Await ``coro``, spanning each of its steps as ``name``."""
    return await _Stepped(tracer, name, coro)


def counted(tracer: Tracer, name: str):
    """Wrapper factory that only counts calls (for per-job hot paths)."""

    def make(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            tracer.counts[(tracer.run, name)] += 1
            return original(*args, **kwargs)

        return wrapper

    return make


def _fast_path_for(tracer: Tracer):
    """Wrap the fast path ``fast_path_for`` resolves: one span per round."""

    def make(original):
        @functools.wraps(original)
        def wrapper(scheduler):
            fast_path = original(scheduler)
            if fast_path is None:
                return None

            @functools.wraps(fast_path)
            def round_(sched, context):
                span_id = tracer.open("schedulers.round")
                try:
                    result = fast_path(sched, context)
                finally:
                    tracer.close(span_id)
                choice = result[0] if isinstance(result, tuple) else result
                tracer.count("schedulers.rounds")
                tracer.count("schedulers.considered", len(context.batch))
                tracer.count("schedulers.placed", int((choice >= 0).sum()))
                return result

            return round_

        return wrapper

    return make


def layer_targets(tracer: Tracer, on_admit=None) -> list[tuple]:
    """The :func:`patched` targets of every traced layer.

    Each entry names the attribute the calling code looks up at call time:
    the engines import ``process_until`` / ``apply_capacity_step`` by name,
    so those are patched in the engine modules rather than where they are
    defined.  ``on_admit(chunk)`` is called at the start of every batch
    admission (:meth:`StreamingSimulator.admit` with a chunk); the live
    workload measures queue wait with it.
    """

    def count(name, value_of=lambda *_: 1):
        return lambda args, kwargs, result: tracer.count(name, value_of(args, kwargs, result))

    def solved(args, kwargs, result):
        status, _x, _objective, iterations = result[:4]
        tracer.count("milp.solves")
        tracer.count("milp.iterations", int(iterations))
        if getattr(status, "name", status) != "OPTIMAL":
            tracer.count("milp.nonoptimal")

    def saved(args, kwargs, result):
        path = args[1] if len(args) > 1 else kwargs["path"]
        tracer.count("checkpoint.saves")
        tracer.count("checkpoint.bytes", os.path.getsize(path))

    def admit(original):
        inner = timed(tracer, "service.admit")(original)

        @functools.wraps(original)
        def wrapper(self, *args, **kwargs):
            chunk = args[0] if args else kwargs.get("chunk")
            if chunk is not None:
                tracer.count("service.admits")
                if on_admit is not None:
                    on_admit(chunk)
            return inner(self, *args, **kwargs)

        return wrapper

    def gateway_loop(original):
        @functools.wraps(original)
        async def wrapper(self):
            return await stepped(tracer, "service.gateway", original(self))

        return wrapper

    highs = timed(tracer, "milp.highs", count("milp.highs_calls"))
    kernel = timed(tracer, "events.kernel", count("events.windows"))
    step = timed(tracer, "timeline.step",
                 count("timeline.evictions", lambda args, kwargs, requeued: len(requeued)))
    collect = timed(tracer, "metrics.collect")
    lookups = counted(tracer, "core.avg_lookups")
    return [
        ("repro.traces.stream:StreamingTraceGenerator", "iter_chunks",
         timed_iter(tracer, "traces.gen", lambda chunk: tracer.count("traces.jobs", chunk.n))),
        ("repro.traces.stream:TraceSource", "materialize", timed(tracer, "traces.materialize")),
        ("repro.schedulers.vectorized", "fast_path_for", _fast_path_for(tracer)),
        ("repro.core.fastpath", "_slack_selection",
         timed(tracer, "core.slack", count("core.slack_calls"))),
        ("repro.core.fastpath", "cached_average_from", lookups),
        ("repro.core.slack", "cached_average_from", lookups),
        ("repro.core.decision:DecisionController", "decide_arrays", timed(tracer, "core.decide")),
        ("repro.core.decision", "solve_standard_form", timed(tracer, "milp.solve", solved)),
        ("scipy.optimize", "linprog", highs),
        ("scipy.optimize", "milp", highs),
        ("repro.cluster.streaming", "process_until", kernel),
        ("repro.cluster.simulator", "process_until", kernel),
        ("repro.cluster.streaming", "apply_capacity_step", step),
        ("repro.cluster.simulator", "apply_capacity_step", step),
        ("repro.cluster.footprint:FootprintCalculator", "integrate_batch",
         timed(tracer, "footprint.integrate")),
        ("repro.cluster.footprint:FootprintCalculator", "footprint_matrices_arrays",
         timed(tracer, "footprint.matrices")),
        ("repro.cluster.metrics:RunningJobStats", "add", collect),
        ("repro.cluster.footprint:RunningFootprintTotals", "add", collect),
        ("repro.cluster.streaming:StreamingSimulator", "admit", admit),
        ("repro.cluster.streaming:StreamingSimulator", "save_checkpoint",
         timed(tracer, "checkpoint.save", saved)),
        # The gateway's request loop is private, but stepping it is the only
        # way to see the gateway's own work (queueing, dispatch, resolving
        # decisions into futures) beside the engine calls it makes.
        ("repro.service.gateway:AdmissionGateway", "_loop", gateway_loop),
    ]

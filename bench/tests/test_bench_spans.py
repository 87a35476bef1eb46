"""Span arithmetic, attribute patching and open-loop accounting of the benchmark."""

import asyncio
import types

import pytest

import spans
import workloads


def _fake_ns(*ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    tracer = spans.Tracer(clock=_fake_ns(0, 10, 20, 50, 60, 90, 100, 110, 150, 200))
    root = tracer.open("engine")                 # 0 .. 200
    round_ = tracer.open("schedulers.round")     # 10 .. 100
    with tracer.span("core.slack"):              # 20 .. 50
        pass
    with tracer.span("milp.solve"):              # 60 .. 90
        pass
    tracer.close(round_)
    with tracer.span("events.kernel"):           # 110 .. 150
        pass
    tracer.close(root)

    assert spans.self_times(tracer.spans) == [70, 30, 30, 30, 40]
    by_metric = spans.self_seconds_by_metric(tracer.spans, run=0)
    assert by_metric["engine.self_s"] == pytest.approx(70e-9)
    assert by_metric["schedulers.round_s"] == pytest.approx(30e-9)
    assert sum(by_metric.values()) == pytest.approx(200e-9)
    assert spans.durations_s(tracer.spans, 0, "schedulers.round") == [90 / 1e9]
    assert spans.self_seconds_by_metric(tracer.spans, run=1)["engine.self_s"] == 0.0


def test_closing_out_of_order_is_an_error():
    tracer = spans.Tracer()
    outer = tracer.open("engine")
    tracer.open("events.kernel")
    with pytest.raises(RuntimeError):
        tracer.close(outer)


def test_every_layer_attribute_is_restored_when_the_workload_raises():
    tracer = spans.Tracer()
    targets = spans.layer_targets(tracer, on_admit=lambda chunk: None)
    owners = [(spans._owner(path), attribute) for path, attribute, _ in targets]
    before = [(owner, attribute, vars(owner)[attribute]) for owner, attribute in owners]

    with pytest.raises(RuntimeError, match="workload failed"):
        with spans.patched(targets) as skipped:
            assert skipped == []
            for owner, attribute, original in before:
                assert vars(owner)[attribute] is not original
            raise RuntimeError("workload failed")

    for owner, attribute, original in before:
        assert vars(owner)[attribute] is original


def test_missing_attributes_are_skipped_and_restored_ones_kept():
    owner = types.SimpleNamespace(present=lambda: 1)
    original = owner.present
    targets = [(owner, "present", lambda f: (lambda: 2)), (owner, "gone", lambda f: f)]
    targets += [("repro.no_such_module:Engine", "run", lambda f: f),
                ("repro.cluster.streaming:NoSuchEngine", "run", lambda f: f)]
    with spans.patched(targets) as skipped:
        assert owner.present() == 2
        assert skipped == ["SimpleNamespace.gone", "repro.no_such_module:Engine.run",
                           "repro.cluster.streaming:NoSuchEngine.run"]
    assert owner.present is original
    assert not hasattr(owner, "gone")


def test_stepped_spans_each_step_of_a_coroutine():
    tracer = spans.Tracer()

    async def work():
        with tracer.span("events.kernel"):
            pass
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        return "done"

    assert asyncio.run(spans.stepped(tracer, "loadgen", work())) == "done"
    assert [span[0] for span in tracer.spans] == ["loadgen", "events.kernel", "loadgen", "loadgen"]
    assert tracer.spans[1][3] == 0  # the kernel span nests under the first step


def test_timed_iter_spans_each_next_and_closes_the_inner_generator():
    tracer = spans.Tracer()
    closed = []

    def numbers():
        try:
            yield from range(5)
        finally:
            closed.append(True)

    wrapped = spans.timed_iter(tracer, "traces.gen", lambda item: tracer.count("seen"))(numbers)
    iterator = wrapped()
    assert [next(iterator), next(iterator)] == [0, 1]
    iterator.close()
    assert closed == [True]
    assert [span[0] for span in tracer.spans] == ["traces.gen", "traces.gen"]
    assert tracer.counts_for(0) == {"seen": 2}


class _FakeClock:
    """Time that moves only when the generator sleeps, by a scripted amount."""

    def __init__(self, oversleep):
        self.now = 100.0
        self.oversleep = list(oversleep)

    def __call__(self):
        return self.now

    async def sleep(self, seconds):
        self.now += seconds + self.oversleep.pop(0)


def test_open_loop_keeps_its_schedule_and_reports_lateness():
    # Send 1 wakes 1 ms late; send 2 stalls 50 ms, so sends 3 and 4 are
    # already overdue and fire at once; send 5 is on time again.
    clock = _FakeClock(oversleep=[0.001, 0.050, 0.0])
    fired = []
    loop = workloads.OpenLoop(0.02, clock=clock, sleep=clock.sleep)
    lateness = asyncio.run(loop.run(6, lambda k, due: fired.append((k, due, clock.now))))

    assert [k for k, _, _ in fired] == list(range(6))
    assert [due for _, due, _ in fired] == pytest.approx([100.0 + 0.02 * k for k in range(6)])
    assert lateness == pytest.approx([0.0, 0.001, 0.050, 0.030, 0.010, 0.0])
    assert [sent - due for _, due, sent in fired] == pytest.approx(lateness)

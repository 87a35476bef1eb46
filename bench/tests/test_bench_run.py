"""Failure handling of ``bench/run.py``: a failure is counted, never the end of the report."""

import json
import types

import run
import workloads

KERNEL = {"clean_events": 1, "conveyor_events": 0, "replayed_events": 0, "compiled_events": 0}


class _Flaky:
    """A simulation workload whose second part always raises."""

    name = "flaky"
    parts = 2

    def rep(self, part):
        if part == 1:
            raise ValueError("part 1 broke")
        return workloads.Rep(workloads.Answer(10, 1, 1.0, 1.0), 10, [0.001, 0.002], KERNEL)


def test_a_raising_repetition_is_a_failed_operation_and_the_run_goes_on():
    args = types.SimpleNamespace(seconds=0.05, trace=0)
    payload = run._simulation(_Flaky(), args, tracer=None)
    assert 1 <= payload["errored"] <= run.MAX_FAILED_REPS
    assert len(payload["failures"]) == payload["errored"]
    assert all("part 1 repetition raised ValueError('part 1 broke')" in message
               for message in payload["failures"])
    assert [part for part, _ in payload["answers"]] == [0]
    assert payload["metrics"]["jobs_per_s"] > 0


def test_a_crashed_child_fails_its_workload_and_the_summary_is_still_printed(
        monkeypatch, capsys):
    metrics = {m["name"]: 1.5 for m in run.load_spec()["end_to_end"]}

    def fake_child(name, args):
        if name == "waterwise-batch":
            return None
        return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics,
                "failures": [], "untraced": [],
                "libraries": {"numpy": "1", "scipy": "1", "numba": False}}

    monkeypatch.setattr(run, "run_child", fake_child)
    status = run.main(["--workload", "waterwise-batch", "baseline-stream"])
    lines = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(lines[-1])

    assert status == 1
    assert summary["correct"] is False
    assert (summary["attempted"], summary["failed"]) == (4, 1)
    assert set(summary["metrics"]) == {f"baseline-stream:{name}" for name in metrics}
    assert "# FAIL waterwise-batch: no result from its child process" in lines

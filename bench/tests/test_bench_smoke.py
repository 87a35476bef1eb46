"""End-to-end smoke run of all four workloads at ``--scale smoke``."""

import json
import pathlib
import subprocess
import sys

RUN = pathlib.Path(__file__).resolve().parent.parent / "run.py"


def _smoke(report: pathlib.Path) -> dict:
    done = subprocess.run(
        [sys.executable, str(RUN), "--scale", "smoke", "--seed", "42", "--json", str(report)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0 and summary["attempted"] >= 4
    assert all(entry["value"] > 0 for entry in summary["metrics"].values())
    return json.loads(report.read_text())


def test_smoke_run_passes_the_gate_and_repeats_its_digests(tmp_path):
    first = _smoke(tmp_path / "first.json")
    second = _smoke(tmp_path / "second.json")
    assert set(first["workloads"]) == {
        "waterwise-batch", "baseline-stream", "registry-outage", "waterwise-live"
    }
    for name, payload in first["workloads"].items():
        assert payload["answers"] == second["workloads"][name]["answers"], name

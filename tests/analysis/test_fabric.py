"""Fabric tests: fault recovery and transport equality.

The kill tests SIGKILL a worker process mid-shard — once around
:func:`run_shard` itself, once inside :func:`run_sweep` — and prove the
re-run shard resumes from its checkpoint to a digest-identical result: the
fabric's central fault-tolerance claim.  The sweep tests pin both
transports, and the process transport under every start method, to one
unsharded fused pass.
"""

import contextlib
import inspect
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.analysis
from repro.analysis import fabric
from repro.analysis.fabric import TRANSPORTS, FabricCoordinator, run_sweep
from repro.analysis.parallel import SweepPoint
from repro.analysis.shard import checkpoint_path, derive_shards, run_shard
from repro.cluster.multi import MultiPolicyRunner
from repro.cluster.streaming import StreamingSimulator

_SRC = str(Path(__file__).resolve().parents[2] / "src")

_WORKLOAD = dict(trace_kind="bursty", rate_per_hour=50.0, duration_days=0.1)
#: Long enough (40 chunks of 256 jobs) that a kill lands mid-shard.
_LONG_WORKLOAD = dict(trace_kind="diurnal", rate_per_hour=1400.0, duration_days=0.5)


def _points(policies=("baseline", "least-load")):
    return [SweepPoint(scheduler=policy, **_WORKLOAD) for policy in policies]


class TestCoordinator:
    def test_failed_shard_runs_next_until_max_failures(self):
        # A failed shard goes back to the front of the queue, so it runs
        # next, resuming from its latest checkpoint; the max_failures-th
        # failure aborts the sweep with the last error.
        coordinator = FabricCoordinator(
            _points(("baseline", "least-load")), max_failures=2
        )
        shard = coordinator.pending.popleft()
        coordinator.fail(shard, "RuntimeError: boom")
        assert list(coordinator.pending) == coordinator.shards
        coordinator.pending.popleft()
        with pytest.raises(RuntimeError, match="failed 2 times: OSError: again"):
            coordinator.fail(shard, "OSError: again")

    def test_single_failure_budget_aborts_without_requeue(self):
        coordinator = FabricCoordinator(_points(("baseline",)), max_failures=1)
        shard = coordinator.pending.popleft()
        with pytest.raises(RuntimeError, match="failed 1 times: RuntimeError: boom"):
            coordinator.fail(shard, "RuntimeError: boom")
        assert not coordinator.pending

    def test_outcomes_follow_input_order_not_completion_order(self, tmp_path):
        # Results are keyed by sweep index, so shards completing in any
        # order reassemble into the input order with unchanged digests.
        points = _points(("baseline", "least-load", "round-robin"))
        coordinator = FabricCoordinator(points, chunk_size=32)
        for spec in reversed(coordinator.shards):
            coordinator.complete(run_shard(spec, tmp_path, checkpoint_every=1))
        outcomes = coordinator.outcomes()
        assert [o.point for o in outcomes] == points
        serial = run_sweep(points, transport="inprocess")
        assert [o.digest for o in outcomes] == [o.digest for o in serial]

    def test_worker_protocol(self, tmp_path):
        # The worker's end of its pipe: a shard that raises, (False, its
        # error text) out, and the worker lives on; a shard in, (True,
        # ShardResult) out; None ends the loop.
        good, bad = derive_shards(
            _points(("baseline",))
            + [
                SweepPoint(
                    scheduler="baseline", scheduler_kwargs=(("bogus", 1),), **_WORKLOAD
                )
            ],
            chunk_size=32,
        )
        coordinator_end, worker_end = multiprocessing.Pipe()
        worker = threading.Thread(
            target=fabric._worker_main, args=(worker_end, str(tmp_path), 1), daemon=True
        )
        worker.start()
        try:
            coordinator_end.send(bad)
            assert coordinator_end.poll(60.0)
            ok, error = coordinator_end.recv()
            assert not ok
            assert error.startswith("TypeError: ")
            coordinator_end.send(good)
            assert coordinator_end.poll(60.0)
            ok, result = coordinator_end.recv()
            assert ok
            assert set(result.results) == set(good.indices)
            assert result.chunks_done == 5
        finally:
            coordinator_end.send(None)
            worker.join(timeout=30.0)
        assert not worker.is_alive()


class TestWorkerKillResume:
    def test_sigkilled_worker_resumes_to_identical_digest(self, tmp_path, monkeypatch):
        # Uninterrupted reference shard (its own checkpoint dir).
        spec = derive_shards(_points(("least-load",)), chunk_size=8)[0]
        (tmp_path / "ref").mkdir()
        reference = run_shard(spec, tmp_path / "ref", checkpoint_every=1)
        # A worker process that SIGKILLs itself the moment the first
        # checkpoint lands — a crash with the shard part-done.
        # The victim derives the same spec from the same point parameters, as
        # every fabric worker does; the shard-addressed checkpoint path
        # below only matches if the two specs are identical.
        work_dir = tmp_path / "work"
        work_dir.mkdir()
        driver = (
            "import os, signal, sys, threading, time\n"
            f"sys.path.insert(0, {_SRC!r})\n"
            "from repro.analysis.parallel import SweepPoint\n"
            "from repro.analysis.shard import checkpoint_path, derive_shards, run_shard\n"
            f"point = SweepPoint(scheduler='least-load', **{_WORKLOAD!r})\n"
            "spec = derive_shards([point], chunk_size=8)[0]\n"
            f"ckpt = checkpoint_path({str(work_dir)!r}, spec)\n"
            "def kill_on_first_checkpoint():\n"
            "    while not ckpt.exists():\n"
            "        time.sleep(0.002)\n"
            "    os.kill(os.getpid(), signal.SIGKILL)\n"
            "threading.Thread(target=kill_on_first_checkpoint, daemon=True).start()\n"
            f"run_shard(spec, {str(work_dir)!r}, checkpoint_every=1)\n"
        )
        victim = subprocess.run(
            [sys.executable, "-c", driver], capture_output=True, timeout=120
        )
        assert victim.returncode == -signal.SIGKILL, victim.stderr.decode()
        ckpt = checkpoint_path(work_dir, spec)
        assert ckpt.exists(), "the victim died before writing a checkpoint"
        resumed_at = StreamingSimulator.load_checkpoint(ckpt)["extra"]["chunks_done"]
        assert 0 < resumed_at < reference.chunks_done
        # Re-dispatch: same spec, same dir — resumes mid-lineage and finishes,
        # running only the chunks the checkpoint does not cover.
        run_chunks = MultiPolicyRunner.run_chunks
        consumed = []

        def counting_run_chunks(runner, max_chunks=None):
            consumed.append(run_chunks(runner, max_chunks=max_chunks))
            return consumed[-1]

        monkeypatch.setattr(MultiPolicyRunner, "run_chunks", counting_run_chunks)
        resumed = run_shard(spec, work_dir, checkpoint_every=1)
        assert sum(consumed) == reference.chunks_done - resumed_at
        assert resumed.chunks_done == reference.chunks_done
        ref_result = reference.results[spec.indices[0]]
        res_result = resumed.results[spec.indices[0]]
        assert res_result.digest() == ref_result.digest()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sigkilled_sweep_worker_is_replaced_and_its_shard_resumed(
        self, workers, tmp_path
    ):
        # A watcher SIGKILLs every worker of the sweep as soon as the first
        # shard checkpoint lands, with some forty chunks per shard still to
        # run.  The coordinator must notice each death at once, start fresh
        # workers that resume the shards from their checkpoints, and return
        # the reference digests — long before any timeout could have fired.
        points = [
            SweepPoint(scheduler=policy, **_LONG_WORKLOAD)
            for policy in ("least-load", "baseline")[:workers]
        ]
        layout = dict(chunk_size=256, checkpoint_every=1)
        expected = [o.digest for o in run_sweep(points, transport="inprocess", **layout)]
        before = set(multiprocessing.active_children())
        victims, replacements = set(), set()
        stop = threading.Event()

        def kill_workers_at_first_checkpoint():
            while not any(tmp_path.glob("shard-*.ckpt")):
                if stop.wait(0.002):
                    return
            victims.update(set(multiprocessing.active_children()) - before)
            for child in victims:
                os.kill(child.pid, signal.SIGKILL)
            while not stop.wait(0.002):
                new = set(multiprocessing.active_children()) - before - victims
                if new:
                    replacements.update(new)
                    return

        watcher = threading.Thread(target=kill_workers_at_first_checkpoint, daemon=True)
        watcher.start()
        started = time.monotonic()
        try:
            outcomes = run_sweep(
                points, workers=workers, checkpoint_dir=tmp_path, **layout
            )
        finally:
            stop.set()
            watcher.join(timeout=10.0)
        elapsed = time.monotonic() - started
        assert not watcher.is_alive()
        assert len(victims) == workers
        assert replacements, "no fresh worker took over a killed worker's shard"
        assert [o.digest for o in outcomes] == expected
        assert elapsed < 20.0
        assert set(multiprocessing.active_children()) <= before
        assert not list(tmp_path.glob("shard-*.ckpt"))

    def test_worker_deaths_count_toward_max_failures(self, tmp_path):
        # A shard whose worker dies every time is a systematic failure: the
        # sweep aborts after max_failures deaths, as after raised errors.
        points = [SweepPoint(scheduler="baseline", **_LONG_WORKLOAD)]
        before = set(multiprocessing.active_children())
        stop = threading.Event()

        def kill_every_worker():
            # At most four kills, so a sweep that never counted its workers'
            # deaths would finish (and fail the test) instead of cycling.
            killed = set()
            while len(killed) < 4 and not stop.wait(0.002):
                for child in set(multiprocessing.active_children()) - before - killed:
                    with contextlib.suppress(ProcessLookupError):
                        os.kill(child.pid, signal.SIGKILL)
                    killed.add(child)

        killer = threading.Thread(target=kill_every_worker, daemon=True)
        killer.start()
        try:
            with pytest.raises(
                RuntimeError, match=r"failed 2 times: worker exited with code -9"
            ):
                run_sweep(
                    points, workers=1, chunk_size=256, checkpoint_dir=tmp_path,
                    max_failures=2,
                )
        finally:
            stop.set()
            killer.join(timeout=10.0)
        assert not killer.is_alive()
        assert set(multiprocessing.active_children()) <= before
        assert not list(tmp_path.glob("shard-*.ckpt"))


class TestFabricSweep:
    @pytest.fixture(scope="class")
    def reference(self):
        # One unsharded fused pass on the serial reference transport.
        points = _points(("baseline", "least-load", "round-robin"))
        outcomes = run_sweep(
            points, transport="inprocess", policies_per_shard=len(points)
        )
        return points, {i: o.digest for i, o in enumerate(outcomes)}

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_transports_match_fused_single_box(self, transport, reference, tmp_path):
        points, expected = reference
        outcomes = run_sweep(
            points,
            workers=1 if transport == "inprocess" else 2,
            transport=transport,
            chunk_size=32,
            checkpoint_dir=tmp_path,
            checkpoint_every=1,
        )
        assert [o.point for o in outcomes] == points
        assert {i: o.digest for i, o in enumerate(outcomes)} == expected
        assert not list(tmp_path.glob("shard-*.ckpt"))  # cleaned up

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_process_transport_under_start_method(self, method, reference):
        # Workers must not rely on fork inheritance: macOS defaults to spawn,
        # and Python 3.14 makes forkserver the Linux default.
        points, expected = reference
        driver = (
            "import json, multiprocessing, sys\n"
            f"sys.path.insert(0, {_SRC!r})\n"
            "from repro.analysis import SweepPoint, run_sweep\n"
            f"multiprocessing.set_start_method({method!r})\n"
            "points = [\n"
            f"    SweepPoint(scheduler=policy, **{_WORKLOAD!r})\n"
            f"    for policy in {tuple(p.scheduler for p in points)!r}\n"
            "]\n"
            "outcomes = run_sweep(points, workers=2, transport='process', chunk_size=32)\n"
            "print(json.dumps([outcome.digest for outcome in outcomes]))\n"
        )
        run = subprocess.run(
            [sys.executable, "-c", driver], capture_output=True, text=True, timeout=300
        )
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout) == [expected[i] for i in range(len(points))]

    def test_run_sweep_transport_delegation(self, reference):
        # The package-level run_sweep is the fabric, on the process
        # transport unless told otherwise.
        points, expected = reference
        assert repro.analysis.run_sweep is run_sweep
        assert TRANSPORTS == ("inprocess", "process")
        outcomes = run_sweep(points, workers=2, chunk_size=32)
        assert {i: o.digest for i, o in enumerate(outcomes)} == expected
        with pytest.raises(ValueError, match="one worker"):
            run_sweep(points, workers=2, transport="inprocess")
        with pytest.raises(ValueError, match="transport must be one of"):
            run_sweep(points, transport="tcp")

    def test_run_sweep_parameters(self):
        assert list(inspect.signature(run_sweep).parameters) == [
            "points",
            "workers",
            "transport",
            "policies_per_shard",
            "chunk_size",
            "checkpoint_dir",
            "max_failures",
            "checkpoint_every",
            "cleanup",
        ]

    @pytest.mark.parametrize("policies_per_shard", [2, 3])
    def test_shard_layout_does_not_move_digests(self, policies_per_shard, reference):
        # Uneven (2 + 1 cells) and whole-group (one fused pass) layouts on
        # the process transport give the per-cell reference digests.
        points, expected = reference
        outcomes = run_sweep(
            points, workers=2, policies_per_shard=policies_per_shard, chunk_size=32
        )
        assert {i: o.digest for i, o in enumerate(outcomes)} == expected

    @pytest.mark.parametrize(
        ("workers", "policies", "started"), [(1, 3, 1), (4, 2, 2)]
    )
    def test_pool_is_long_lived_and_no_larger_than_the_queue(
        self, workers, policies, started, reference, monkeypatch
    ):
        # A worker takes shard after shard (so its workload cache serves them
        # all), and the pool never starts more workers than there are shards.
        points, expected = reference
        created = []

        class CountingWorker(fabric._Worker):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                created.append(self)

        monkeypatch.setattr(fabric, "_Worker", CountingWorker)
        outcomes = run_sweep(points[:policies], workers=workers, chunk_size=32)
        assert len(created) == started
        assert [o.digest for o in outcomes] == [expected[i] for i in range(policies)]
        assert not any(worker.process.is_alive() for worker in created)

    def test_kept_checkpoints_resume_a_rerun_sweep(self, reference, tmp_path, monkeypatch):
        # With cleanup=False each shard's lineage checkpoint outlives the
        # sweep; a sweep run again over the same directory resumes every
        # shard from it, replaying only the chunks after the checkpoint, and
        # returns the same digests (then cleans up).
        points, expected = reference
        layout = dict(
            transport="inprocess", chunk_size=16, checkpoint_every=4,
            checkpoint_dir=tmp_path,
        )
        run_chunks = MultiPolicyRunner.run_chunks
        consumed = []

        def counting_run_chunks(runner, max_chunks=None):
            consumed.append(run_chunks(runner, max_chunks=max_chunks))
            return consumed[-1]

        monkeypatch.setattr(MultiPolicyRunner, "run_chunks", counting_run_chunks)
        first = run_sweep(points, cleanup=False, **layout)
        assert [o.digest for o in first] == [expected[i] for i in range(len(points))]
        total = sum(consumed)
        ckpts = [
            checkpoint_path(tmp_path, spec)
            for spec in derive_shards(points, chunk_size=16)
        ]
        assert sorted(tmp_path.glob("shard-*.ckpt")) == sorted(ckpts)
        resumed_at = sum(
            StreamingSimulator.load_checkpoint(ckpt)["extra"]["chunks_done"]
            for ckpt in ckpts
        )
        assert 0 < resumed_at < total
        consumed.clear()
        again = run_sweep(points, **layout)
        assert sum(consumed) == total - resumed_at
        assert {i: o.digest for i, o in enumerate(again)} == expected
        assert not list(tmp_path.glob("shard-*.ckpt"))

    def test_empty_sweep(self):
        assert run_sweep([], transport="inprocess") == []

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_failing_cell_aborts_the_sweep(self, transport, tmp_path):
        # A cell that raises inside its worker aborts the sweep with the
        # worker's error after max_failures attempts, on either transport,
        # and leaves neither checkpoints nor worker processes behind.
        points = _points(("baseline",)) + [
            SweepPoint(
                scheduler="baseline", scheduler_kwargs=(("bogus", 1),), **_WORKLOAD
            )
        ]
        children = set(multiprocessing.active_children())
        with pytest.raises(RuntimeError, match="failed 2 times: TypeError"):
            run_sweep(
                points,
                workers=1 if transport == "inprocess" else 2,
                transport=transport,
                chunk_size=32,
                checkpoint_dir=tmp_path,
                max_failures=2,
            )
        assert not list(tmp_path.glob("shard-*.ckpt"))
        assert set(multiprocessing.active_children()) <= children

    def test_failing_shard_poisons_the_sweep(self, tmp_path, monkeypatch):
        # A shard that always raises must abort the sweep with the worker's
        # error after exactly max_failures attempts, not hang or cycle
        # forever.
        attempts = []

        def exploding_run_shard(spec, checkpoint_dir, checkpoint_every=8):
            attempts.append(spec)
            raise RuntimeError("synthetic shard failure")

        monkeypatch.setattr(fabric, "run_shard", exploding_run_shard)
        with pytest.raises(
            RuntimeError, match="failed 2 times: RuntimeError: synthetic shard failure"
        ):
            run_sweep(
                _points(("baseline",)),
                transport="inprocess",
                chunk_size=32,
                checkpoint_dir=tmp_path,
                max_failures=2,
            )
        assert len(attempts) == 2
        assert len(set(attempts)) == 1

"""Fabric tests: lease-queue semantics, fault recovery, transport equality.

The queue tests drive :class:`ShardQueue` with a fake clock so lease
expiry, the one-live-lease rule and the max-failures poison path are
deterministic.  The heartbeat tests run one slow shard under a coordinator
that expires leases all along.  The kill test SIGKILLs a worker process mid-shard and
proves the re-dispatched shard resumes from the lineage checkpoint to a
digest-identical result — the fabric's central fault-tolerance claim.
"""

import multiprocessing
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.analysis
from repro.analysis.fabric import (
    TRANSPORTS,
    FabricCoordinator,
    ShardQueue,
    _LocalClient,
    run_sweep,
    worker_loop,
)
from repro.analysis.parallel import SweepPoint
from repro.analysis.shard import checkpoint_path, derive_shards, run_shard

_SRC = str(Path(__file__).resolve().parents[2] / "src")

_WORKLOAD = dict(trace_kind="bursty", rate_per_hour=50.0, duration_days=0.1)


def _points(policies=("baseline", "least-load")):
    return [SweepPoint(scheduler=policy, **_WORKLOAD) for policy in policies]


def _specs(n=2):
    points = _points(("baseline", "least-load", "round-robin"))[:n]
    return derive_shards(points, chunk_size=32)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestShardQueue:
    def test_lease_heartbeat_complete_cycle(self):
        clock = _Clock()
        queue = ShardQueue(_specs(2), lease_timeout=10.0, clock=clock)
        lease_a, spec_a = queue.lease("w0")
        lease_b, spec_b = queue.lease("w1")
        assert spec_a != spec_b
        assert queue.lease("w2") is None  # nothing pending
        assert queue.heartbeat(lease_a) == "ok"
        assert queue.heartbeat("L999-nobody") == "lost"
        assert queue.complete(lease_a)
        assert queue.heartbeat(lease_a) == "done"
        assert not queue.complete(lease_a)  # idempotent
        assert queue.complete(lease_b)
        assert queue.all_done()

    def test_expired_lease_requeues_shard(self):
        clock = _Clock()
        queue = ShardQueue(_specs(1), lease_timeout=10.0, clock=clock)
        lease, spec = queue.lease("w0")
        clock.now = 5.0
        assert queue.heartbeat(lease) == "ok"  # extends to t=15
        clock.now = 14.0
        assert queue.lease("w1") is None  # still alive
        clock.now = 16.0
        regranted = queue.lease("w1")
        assert regranted is not None and regranted[1] == spec
        assert queue.heartbeat(lease) == "lost"
        # The dead worker's late completion still wins if nobody else did:
        # the work is deterministic, so the result is as good as a re-run's.
        assert queue.complete(lease)
        assert not queue.complete(regranted[0])

    def test_repeated_lease_loss_poisons_the_queue(self):
        clock = _Clock()
        queue = ShardQueue(
            _specs(1), lease_timeout=1.0, max_failures=2, clock=clock
        )
        for _ in range(2):
            assert queue.lease("w") is not None
            clock.now += 5.0
            queue.expire()
        assert queue.error is not None
        assert queue.lease("w") is None

    def test_worker_reported_failure_requeues_then_poisons(self):
        queue = ShardQueue(_specs(1), max_failures=2)
        lease, _ = queue.lease("w")
        queue.fail(lease, "boom")
        assert queue.error is None
        assert queue.counts()["pending"] == 1
        lease, _ = queue.lease("w")
        queue.fail(lease, "boom again")
        assert "boom again" in queue.error

    def test_live_lease_is_never_duplicated(self):
        # A shard that runs far longer than its sibling, but keeps
        # heartbeating, belongs to its worker alone: an idle worker gets
        # nothing to do rather than a second copy of it.
        clock = _Clock()
        queue = ShardQueue(_specs(2), lease_timeout=100.0, clock=clock)
        fast, _ = queue.lease("fast")
        slow, _ = queue.lease("slow")
        clock.now = 1.0
        assert queue.complete(fast)
        while clock.now < 50.0:
            clock.now += 7.0
            assert queue.heartbeat(slow) == "ok"
            assert queue.lease("helper") is None
        assert queue.counts() == {"pending": 0, "running": 1, "done": 1, "failed": 0}
        assert queue.complete(slow)
        assert queue.all_done()


class TestWorkerHeartbeat:
    """A worker's heartbeat is what tells a slow shard from a lost one.

    The coordinator expires overdue leases all along, as the process
    transport's run loop does, while one worker runs a shard that takes
    several lease timeouts; ``max_failures=1`` makes a single lease loss
    fatal.
    """

    _LEASE_TIMEOUT = 0.3

    def _run_slow_shard(self, tmp_path, monkeypatch, heartbeat_interval):
        def slow_run_shard(spec, checkpoint_dir, checkpoint_every=8):
            time.sleep(3 * self._LEASE_TIMEOUT)
            return run_shard(spec, checkpoint_dir, checkpoint_every=checkpoint_every)

        monkeypatch.setattr("repro.analysis.fabric.run_shard", slow_run_shard)
        coordinator = FabricCoordinator(
            _points(("baseline",)),
            tmp_path,
            chunk_size=32,
            lease_timeout=self._LEASE_TIMEOUT,
            max_failures=1,
        )
        stop = threading.Event()

        def expire_all_along():
            while not stop.wait(0.01):
                coordinator.queue.expire()

        expirer = threading.Thread(target=expire_all_along, daemon=True)
        expirer.start()
        try:
            worker_loop(
                _LocalClient(coordinator),
                tmp_path,
                worker="slow",
                heartbeat_interval=heartbeat_interval,
            )
        finally:
            stop.set()
            expirer.join()
        return coordinator

    def test_heartbeat_keeps_a_long_shard_leased(self, tmp_path, monkeypatch):
        expected = run_sweep(_points(("baseline",)), transport="inprocess")
        coordinator = self._run_slow_shard(tmp_path, monkeypatch, 0.01)
        assert coordinator.queue.error is None
        assert coordinator.queue.counts()["done"] == 1
        assert [o.digest for o in coordinator.outcomes()] == [
            o.digest for o in expected
        ]

    def test_silent_worker_loses_its_lease(self, tmp_path, monkeypatch):
        # Without heartbeats the same shard looks like a lost worker: its
        # lease lapses, and its late result is refused because the shard
        # already failed.
        coordinator = self._run_slow_shard(tmp_path, monkeypatch, None)
        assert "lost its lease 1 times" in coordinator.queue.error
        assert coordinator.queue.counts()["failed"] == 1
        with pytest.raises(RuntimeError, match="lost its lease"):
            coordinator.outcomes()


class TestWorkerKillResume:
    def test_sigkilled_worker_resumes_to_identical_digest(self, tmp_path):
        # Uninterrupted reference shard (its own checkpoint dir).
        spec = derive_shards(_points(("least-load",)), chunk_size=8)[0]
        (tmp_path / "ref").mkdir()
        reference = run_shard(spec, tmp_path / "ref", checkpoint_every=1)
        assert reference.final
        # A worker process that SIGKILLs itself the moment the first
        # mid-slab checkpoint lands — a crash with the shard part-done.
        # The victim derives the same spec from the same point parameters, as
        # every fabric worker does; the lineage-addressed checkpoint path
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
        # Re-dispatch: same spec, same dir — resumes mid-slab and finishes.
        resumed = run_shard(spec, work_dir, checkpoint_every=1)
        assert resumed.final
        assert resumed.chunks_done == reference.chunks_done
        ref_result = reference.results[spec.indices[0]]
        res_result = resumed.results[spec.indices[0]]
        assert res_result.digest() == ref_result.digest()


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
            chunks_per_slab=2,
            chunk_size=32,
            checkpoint_dir=tmp_path,
        )
        assert [o.point for o in outcomes] == points
        assert {i: o.digest for i, o in enumerate(outcomes)} == expected
        assert not list(tmp_path.glob("shard-*.ckpt"))  # cleaned up

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

    def test_empty_sweep(self):
        assert run_sweep([], transport="inprocess") == []

    def test_inprocess_reference_outlives_a_short_lease_timeout(self, reference):
        # The serial reference runs its one worker on the calling thread, so
        # nothing can lease a shard from under it: a lease timeout far
        # shorter than any shard still completes the sweep exactly.
        points, expected = reference
        outcomes = run_sweep(
            points,
            transport="inprocess",
            chunks_per_slab=2,
            chunk_size=32,
            lease_timeout=0.001,
        )
        assert {i: o.digest for i, o in enumerate(outcomes)} == expected

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
        # error after max_failures attempts, not hang or cycle forever.
        points = _points(("baseline",))
        coordinator = FabricCoordinator(
            points, tmp_path, chunk_size=32, max_failures=2
        )

        class _ExplodingClient:
            def __init__(self, coordinator):
                self._coordinator = coordinator

            def rpc(self, request):
                reply = self._coordinator.rpc(request)
                if request.get("op") == "lease" and reply.get("spec") is not None:
                    # Sabotage the worker by handing it an unrunnable spec
                    # path: blow up in run_shard via a bogus checkpoint dir.
                    pass
                return reply

        def exploding_run_shard(spec, checkpoint_dir, checkpoint_every=8):
            raise RuntimeError("synthetic shard failure")

        monkeypatch.setattr("repro.analysis.fabric.run_shard", exploding_run_shard)
        worker_loop(_ExplodingClient(coordinator), tmp_path, worker="t")
        assert "synthetic shard failure" in coordinator.queue.error
        with pytest.raises(RuntimeError, match="synthetic shard failure"):
            coordinator.outcomes()

"""The sweep path: each shard runs its whole lineage on one worker.

:func:`run_sweep` is how every sweep runs.  A :class:`FabricCoordinator`
derives deterministic shards (:mod:`repro.analysis.shard`) from the sweep's
fused cell groups, hands them to workers one at a time and reassembles the
outcomes in input order.  A shard runs from the first chunk to the end of
its stream, so its results are the unsharded fused pass over its cells,
bit-identical (``StreamResult.digest``) at any worker count, shard layout
and completion order.

Two transports:

* ``"process"`` — the default and the production path: long-lived local
  worker processes, each taking one shard at a time over its own pipe, while
  the coordinator blocks in :func:`multiprocessing.connection.wait` on the
  workers' result pipes and process sentinels;
* ``"inprocess"`` — the serial reference: the shards run in order on the
  calling thread (and the zero-dependency way to debug a sweep).

Fault model: a shard that raises is re-queued, and so is the shard of a
worker that exits mid-shard (crash, kill) — its sentinel wakes the
coordinator at once, a fresh worker replaces it, and the re-run resumes
from the shard's last checkpoint instead of restarting.  A shard that
fails ``max_failures`` times, by raising or by losing its worker, aborts
the sweep.
"""

from __future__ import annotations

import collections
import contextlib
import os
import tempfile
from collections.abc import Sequence
from pathlib import Path

from repro.analysis.parallel import SweepOutcome, SweepPoint, _outcome_from_result
from repro.analysis.shard import (
    DEFAULT_CHECKPOINT_EVERY,
    DEFAULT_CHUNK_SIZE,
    ShardResult,
    ShardSpec,
    checkpoint_path,
    derive_shards,
    run_shard,
)

__all__ = ["FabricCoordinator", "run_sweep", "TRANSPORTS"]

TRANSPORTS = ("inprocess", "process")

_MAX_FAILURES = 3


class FabricCoordinator:
    """A sweep's shard queue, failure counts and results (transport-agnostic).

    Transports take shards off :attr:`pending` and report back through
    :meth:`complete` and :meth:`fail`; the coordinator neither knows nor
    cares whether a shard ran on the calling thread or in a worker process.
    """

    def __init__(
        self,
        points: Sequence[SweepPoint],
        policies_per_shard: int = 1,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        max_failures: int = _MAX_FAILURES,
    ) -> None:
        self.points = list(points)
        self.shards = derive_shards(
            self.points, policies_per_shard=policies_per_shard, chunk_size=chunk_size
        )
        self.pending = collections.deque(self.shards)
        self.max_failures = int(max_failures)
        self._failures: collections.Counter[ShardSpec] = collections.Counter()
        self._results: dict[int, object] = {}  # sweep index -> StreamResult

    def complete(self, result: ShardResult) -> None:
        self._results.update(result.results)

    def fail(self, spec: ShardSpec, error: str) -> None:
        """Count a failed run of ``spec``; re-queue it next, or abort the sweep.

        Raised errors and worker deaths count alike; the ``max_failures``-th
        raises :class:`RuntimeError` with the last error.
        """
        self._failures[spec] += 1
        failures = self._failures[spec]
        if failures >= self.max_failures:
            raise RuntimeError(
                f"distributed sweep failed: shard {spec.key()} failed "
                f"{failures} times: {error}"
            )
        self.pending.appendleft(spec)

    def outcomes(self) -> list[SweepOutcome]:
        """Per-point outcomes in input order."""
        return [
            _outcome_from_result(point, self._results[index])
            for index, point in enumerate(self.points)
        ]


def _describe(error: Exception) -> str:
    return f"{type(error).__name__}: {error}"


# -- inprocess transport ----------------------------------------------------------------


def _run_transport_inprocess(
    coordinator: FabricCoordinator, checkpoint_dir, checkpoint_every: int
) -> None:
    while coordinator.pending:
        spec = coordinator.pending.popleft()
        try:
            result = run_shard(spec, checkpoint_dir, checkpoint_every=checkpoint_every)
        except Exception as error:
            coordinator.fail(spec, _describe(error))
        else:
            coordinator.complete(result)


# -- process transport ------------------------------------------------------------------


def _worker_main(conn, checkpoint_dir: str, checkpoint_every: int) -> None:
    """Run the shards sent over ``conn`` until ``None`` arrives.

    Each reply is ``(True, ShardResult)`` or ``(False, error text)``.  The
    process is long-lived so its workload cache serves every shard it runs.
    """
    while (spec := conn.recv()) is not None:
        try:
            result = run_shard(spec, checkpoint_dir, checkpoint_every=checkpoint_every)
        except Exception as error:
            conn.send((False, _describe(error)))
        else:
            conn.send((True, result))


class _Worker:
    """One worker process, the duplex pipe it takes shards on, and its shard."""

    def __init__(self, context, checkpoint_dir: str, checkpoint_every: int) -> None:
        self.conn, child_conn = context.Pipe()
        self.process = context.Process(
            target=_worker_main,
            args=(child_conn, checkpoint_dir, checkpoint_every),
            daemon=True,
        )
        self.process.start()
        child_conn.close()
        self.spec: ShardSpec | None = None

    def stop(self) -> None:
        """Let an idle worker exit; terminate a busy (or unresponsive) one."""
        if self.spec is None:
            with contextlib.suppress(OSError):
                self.conn.send(None)
            self.process.join(timeout=5.0)
        if self.process.is_alive():
            self.process.terminate()
        self.process.join()
        self.conn.close()


def _run_transport_process(
    coordinator: FabricCoordinator, workers: int, checkpoint_dir, checkpoint_every: int
) -> None:
    import multiprocessing as mp
    from multiprocessing.connection import wait

    context = mp.get_context()
    pool: list[_Worker] = []
    try:
        while True:
            busy = sum(worker.spec is not None for worker in pool)
            if not busy and not coordinator.pending:
                return
            while len(pool) < min(workers, busy + len(coordinator.pending)):
                pool.append(_Worker(context, str(checkpoint_dir), checkpoint_every))
            for worker in pool:
                if worker.spec is None and coordinator.pending:
                    worker.spec = coordinator.pending.popleft()
                    # A worker that died idle fails the send; its sentinel
                    # reports the death below.
                    with contextlib.suppress(OSError):
                        worker.conn.send(worker.spec)
            ready = set(
                wait(
                    [worker.conn for worker in pool if worker.spec is not None]
                    + [worker.process.sentinel for worker in pool]
                )
            )
            for worker in list(pool):
                died = worker.process.sentinel in ready
                if worker.conn in ready:
                    try:
                        ok, payload = worker.conn.recv()
                    except (EOFError, OSError):
                        died = True
                    else:
                        spec, worker.spec = worker.spec, None
                        if ok:
                            coordinator.complete(payload)
                        else:
                            coordinator.fail(spec, payload)
                if died:
                    pool.remove(worker)
                    worker.stop()
                    if worker.spec is not None:
                        coordinator.fail(
                            worker.spec,
                            f"worker exited with code {worker.process.exitcode}",
                        )
    finally:
        for worker in pool:
            worker.stop()


# -- entry point ------------------------------------------------------------------------


def run_sweep(
    points: Sequence[SweepPoint],
    workers: int | None = None,
    transport: str = "process",
    policies_per_shard: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    checkpoint_dir=None,
    max_failures: int = _MAX_FAILURES,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    cleanup: bool = True,
) -> list[SweepOutcome]:
    """Simulate every sweep point through the shard fabric; outcomes in input order.

    Parameters
    ----------
    points:
        Sweep points (typically from
        :func:`~repro.analysis.parallel.expand_grid`).
    workers:
        Worker processes for ``transport="process"``; ``None`` picks
        ``min(4, cpu_count)``.  ``"inprocess"`` runs exactly one worker and
        rejects ``workers > 1``.
    transport:
        ``"process"`` (default, production) or ``"inprocess"`` (the serial
        reference on the calling thread).
    policies_per_shard, chunk_size:
        Shard layout (:func:`~repro.analysis.shard.derive_shards`):
        ``policies_per_shard=len(points)`` runs each workload as one fused
        pass.
    checkpoint_dir:
        Shard checkpoint directory shared by the workers; ``None`` uses a
        sweep-lifetime temp directory.
    max_failures:
        Failed runs of one shard — raised errors and worker deaths alike —
        that abort the sweep with :class:`RuntimeError`.
    checkpoint_every:
        Chunks between a shard's checkpoints: the replay bound after a
        worker loss.
    cleanup:
        Remove the shards' checkpoint files when the sweep ends.

    The outcomes are *bit-identical* (``StreamResult.digest``) at any worker
    count, transport and shard layout.
    """
    if transport not in TRANSPORTS:
        raise ValueError(f"transport must be one of {TRANSPORTS}, got {transport!r}")
    if workers is not None and workers < 1:
        raise ValueError("workers must be >= 1")
    if transport == "inprocess" and workers not in (None, 1):
        raise ValueError(
            f"the inprocess transport runs one worker, got workers={workers}"
        )
    points = list(points)
    if not points:
        return []
    if workers is None:
        workers = max(1, min(4, os.cpu_count() or 1))

    coordinator = FabricCoordinator(
        points,
        policies_per_shard=policies_per_shard,
        chunk_size=chunk_size,
        max_failures=max_failures,
    )
    with contextlib.ExitStack() as stack:
        if checkpoint_dir is None:
            checkpoint_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-fabric-")
            )
        Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
        try:
            if transport == "inprocess":
                _run_transport_inprocess(coordinator, checkpoint_dir, checkpoint_every)
            else:
                _run_transport_process(
                    coordinator, workers, checkpoint_dir, checkpoint_every
                )
        finally:
            if cleanup:
                for spec in coordinator.shards:
                    with contextlib.suppress(OSError):
                        checkpoint_path(checkpoint_dir, spec).unlink()
        return coordinator.outcomes()

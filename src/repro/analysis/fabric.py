"""The sweep path: lease shards off a queue, run them, merge them exactly.

:func:`run_sweep` is how every sweep runs.  A :class:`FabricCoordinator`
derives deterministic shards (:mod:`repro.analysis.shard`) from the sweep's
fused cell groups and owns the lease queue and the exact merge state;
workers loop *lease → run_shard → complete*, and the coordinator
reassembles outcomes bit-identical (``StreamResult.digest``) at any worker
count, shard layout and completion order.

Two transports sit behind one tiny RPC surface
(``lease`` / ``heartbeat`` / ``complete`` / ``fail``):

* ``"process"`` — the default and the production path: local worker
  processes over multiprocessing queues;
* ``"inprocess"`` — the serial reference: one :func:`worker_loop` on the
  calling thread, calling the coordinator directly (and the zero-dependency
  way to debug a sweep).

Fault model: every lease carries a deadline, process workers heartbeat while
a shard runs, and a worker lost mid-shard (crash, kill) simply stops
heartbeating — the lease expires, the shard returns to the queue, and the
next worker resumes from the lineage's last format-4 checkpoint instead of
restarting.  A shard that loses its lease or fails ``max_failures`` times
aborts the sweep.  Completions are idempotent and first-complete-wins.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import queue as queue_module
import tempfile
import threading
import time
from collections import OrderedDict
from collections.abc import Sequence
from pathlib import Path

from repro.analysis.parallel import SweepOutcome, SweepPoint, _outcome_from_result
from repro.analysis.shard import (
    DEFAULT_CHECKPOINT_EVERY,
    DEFAULT_CHUNK_SIZE,
    MergeableAggregates,
    ShardResult,
    ShardSpec,
    checkpoint_path,
    derive_shards,
    run_shard,
)

__all__ = [
    "ShardQueue",
    "FabricCoordinator",
    "run_sweep",
    "worker_loop",
    "TRANSPORTS",
]

TRANSPORTS = ("inprocess", "process")

_LEASE_TIMEOUT = 60.0
_MAX_FAILURES = 3


class _Entry:
    __slots__ = ("spec", "state", "leases", "failures")

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.state = "pending"  # pending | running | done | failed
        self.leases: dict[str, float] = {}  # lease id -> deadline
        self.failures = 0


class ShardQueue:
    """Thread-safe lease state machine over a set of shards.

    Shards move ``pending → running → done``; a lease that misses its
    deadline (no heartbeat) throws the shard back to ``pending`` — that *is*
    the re-dispatch path, there is no separate recovery machinery.  Each
    full lease loss counts toward ``max_failures``; a shard exceeding it
    poisons the queue (:attr:`error`) so a systematically crashing cell
    aborts the sweep instead of cycling forever.  A shard holds at most one
    live lease; :meth:`complete` is idempotent and the first result wins.
    """

    def __init__(
        self,
        specs: Sequence[ShardSpec],
        lease_timeout: float = _LEASE_TIMEOUT,
        max_failures: int = _MAX_FAILURES,
        clock=time.monotonic,
    ) -> None:
        if lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")
        self.lease_timeout = float(lease_timeout)
        self.max_failures = int(max_failures)
        self.error: str | None = None
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, _Entry]" = OrderedDict()
        self._lease_owner: dict[str, str] = {}  # lease id -> shard key (kept forever)
        self._lease_counter = itertools.count()
        for spec in specs:
            self.add(spec)

    # -- queue growth ------------------------------------------------------------------
    def add(self, spec: ShardSpec) -> None:
        """Enqueue a shard (initial derivation and dynamic continuations)."""
        key = spec.key()
        with self._lock:
            if key in self._entries:
                return
            self._entries[key] = _Entry(spec)

    # -- lease lifecycle ---------------------------------------------------------------
    def _expire_locked(self, now: float) -> list[ShardSpec]:
        expired = []
        for entry in self._entries.values():
            if entry.state != "running":
                continue
            stale = [lease for lease, deadline in entry.leases.items() if deadline < now]
            for lease in stale:
                del entry.leases[lease]
            if stale and not entry.leases:
                entry.failures += 1
                if entry.failures >= self.max_failures:
                    entry.state = "failed"
                    self.error = (
                        f"shard {entry.spec.key()} lost its lease "
                        f"{entry.failures} times (last worker never completed)"
                    )
                else:
                    entry.state = "pending"
                    expired.append(entry.spec)
        return expired

    def expire(self) -> list[ShardSpec]:
        """Drop overdue leases; returns the shards thrown back to pending."""
        with self._lock:
            return self._expire_locked(self._clock())

    def lease(self, worker: str = "?") -> tuple[str, ShardSpec] | None:
        """Grant the next pending shard; None if none is pending."""
        with self._lock:
            now = self._clock()
            self._expire_locked(now)
            if self.error is not None:
                return None
            for entry in self._entries.values():
                if entry.state == "pending":
                    lease = f"L{next(self._lease_counter)}-{worker}"
                    entry.state = "running"
                    entry.leases[lease] = now + self.lease_timeout
                    self._lease_owner[lease] = entry.spec.key()
                    return lease, entry.spec
            return None

    def heartbeat(self, lease: str) -> str:
        """Extend a lease; ``"ok"``, ``"done"`` (shard finished) or ``"lost"``."""
        with self._lock:
            key = self._lease_owner.get(lease)
            if key is None:
                return "lost"
            entry = self._entries.get(key)
            if entry is None:
                return "lost"
            if entry.state == "done":
                return "done"
            if lease in entry.leases:
                entry.leases[lease] = self._clock() + self.lease_timeout
                return "ok"
            return "lost"

    def complete(self, lease: str) -> bool:
        """First-complete-wins: True iff this lease's result should be applied.

        A worker whose lease expired (but which finished anyway) is still
        accepted when nobody else completed first — the work is
        deterministic, so the result is as good as any re-run's.
        """
        with self._lock:
            key = self._lease_owner.get(lease)
            if key is None:
                return False
            entry = self._entries.get(key)
            if entry is None or entry.state in ("done", "failed"):
                return False
            entry.state = "done"
            entry.leases.clear()
            return True

    def fail(self, lease: str, error: str = "") -> None:
        """A worker reported a shard exception: requeue or poison the queue."""
        with self._lock:
            key = self._lease_owner.get(lease)
            if key is None:
                return
            entry = self._entries.get(key)
            if entry is None or entry.state != "running":
                return
            entry.leases.pop(lease, None)
            entry.failures += 1
            if entry.failures >= self.max_failures:
                entry.state = "failed"
                self.error = f"shard {key} failed {entry.failures} times: {error}"
            elif not entry.leases:
                entry.state = "pending"

    # -- progress ----------------------------------------------------------------------
    def all_done(self) -> bool:
        with self._lock:
            return all(entry.state == "done" for entry in self._entries.values())

    def counts(self) -> dict[str, int]:
        with self._lock:
            out = {"pending": 0, "running": 0, "done": 0, "failed": 0}
            for entry in self._entries.values():
                out[entry.state] += 1
            return out

    def specs(self) -> list[ShardSpec]:
        with self._lock:
            return [entry.spec for entry in self._entries.values()]


class FabricCoordinator:
    """The sweep-side brain: lease queue + exact merge + outcome assembly.

    Transport-agnostic: every transport funnels worker requests into
    :meth:`rpc` (thread-safe) and the coordinator neither knows nor cares
    whether they came from the calling thread or a pipe — the
    scheduler-DB replay idiom: a durable spec store whose entries take the
    identical path regardless of which worker picks them up.
    """

    def __init__(
        self,
        points: Sequence[SweepPoint],
        checkpoint_dir,
        policies_per_shard: int = 1,
        chunks_per_slab: int | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        lease_timeout: float = _LEASE_TIMEOUT,
        max_failures: int = _MAX_FAILURES,
        checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
    ) -> None:
        self.points = list(points)
        self.checkpoint_dir = Path(checkpoint_dir)
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self.checkpoint_every = int(checkpoint_every)
        self.queue = ShardQueue(
            derive_shards(
                self.points,
                policies_per_shard=policies_per_shard,
                chunks_per_slab=chunks_per_slab,
                chunk_size=chunk_size,
            ),
            lease_timeout=lease_timeout,
            max_failures=max_failures,
        )
        self.aggregates = MergeableAggregates()
        self._merge_lock = threading.Lock()

    # -- worker RPC surface ------------------------------------------------------------
    def rpc(self, request: dict) -> dict:
        op = request.get("op")
        if op == "lease":
            granted = self.queue.lease(str(request.get("worker", "?")))
            if granted is None:
                done = self.done()
                return {"ok": True, "idle": not done, "done": done}
            lease, spec = granted
            return {
                "ok": True,
                "lease": lease,
                "spec": spec,
                "checkpoint_every": self.checkpoint_every,
            }
        if op == "heartbeat":
            return {"ok": True, "status": self.queue.heartbeat(str(request["lease"]))}
        if op == "complete":
            result = request["result"]
            if not isinstance(result, ShardResult):
                return {"ok": False, "error": "complete needs a ShardResult payload"}
            accepted = self.queue.complete(str(request["lease"]))
            if accepted:
                with self._merge_lock:
                    self.aggregates.absorb(result)
                if not result.final:
                    self.queue.add(result.spec.continuation(result.chunks_done))
            return {"ok": True, "accepted": accepted}
        if op == "fail":
            self.queue.fail(str(request["lease"]), str(request.get("error", "")))
            return {"ok": True}
        return {"ok": False, "error": f"unknown op {op!r}"}

    # -- sweep lifecycle ---------------------------------------------------------------
    def done(self) -> bool:
        return self.queue.error is not None or self.queue.all_done()

    def outcomes(self) -> list[SweepOutcome]:
        """Assemble per-point outcomes in input order (raises on a failed sweep)."""
        if self.queue.error is not None:
            raise RuntimeError(f"distributed sweep failed: {self.queue.error}")
        missing = self.aggregates.pending(range(len(self.points)))
        if missing:
            raise RuntimeError(
                f"distributed sweep incomplete: no final slab for points {missing}"
            )
        return [
            _outcome_from_result(point, self.aggregates.result(index))
            for index, point in enumerate(self.points)
        ]

    def cleanup_checkpoints(self) -> None:
        """Remove every lineage checkpoint this sweep may have written."""
        for spec in self.queue.specs():
            with contextlib.suppress(OSError):
                checkpoint_path(self.checkpoint_dir, spec).unlink()


# -- the worker side (transport-agnostic) -----------------------------------------------


def _heartbeat_pump(client, lease: str, interval: float, stop: threading.Event) -> None:
    while not stop.wait(interval):
        try:
            reply = client.rpc({"op": "heartbeat", "lease": lease})
        except Exception:
            return  # the coordinator is gone; the lease lapses on its own
        if reply.get("status") == "done":
            return


def worker_loop(
    client,
    checkpoint_dir,
    worker: str = "worker",
    heartbeat_interval: float | None = None,
    idle_sleep: float = 0.05,
) -> int:
    """Lease shards until the coordinator reports the sweep done.

    ``client`` is anything with ``rpc(dict) -> dict`` — the in-process
    coordinator handle or a multiprocessing queue pair.  A heartbeat thread
    (when ``heartbeat_interval`` is set) keeps the lease alive while
    :func:`run_shard` blocks; exceptions turn into ``fail`` reports (the
    coordinator decides whether to re-lease or abort).  Returns the number
    of shards completed.
    """
    completed = 0
    while True:
        reply = client.rpc({"op": "lease", "worker": worker})
        if reply.get("done"):
            return completed
        spec = reply.get("spec")
        if spec is None:
            time.sleep(idle_sleep)
            continue
        lease = reply["lease"]
        stop = threading.Event()
        pump = None
        if heartbeat_interval:
            pump = threading.Thread(
                target=_heartbeat_pump,
                args=(client, lease, heartbeat_interval, stop),
                daemon=True,
            )
            pump.start()
        try:
            result = run_shard(
                spec,
                checkpoint_dir,
                checkpoint_every=int(reply.get("checkpoint_every", DEFAULT_CHECKPOINT_EVERY)),
            )
        except Exception as error:
            stop.set()
            client.rpc(
                {"op": "fail", "lease": lease, "error": f"{type(error).__name__}: {error}"}
            )
            continue
        finally:
            stop.set()
            if pump is not None:
                pump.join(timeout=1.0)
        client.rpc({"op": "complete", "lease": lease, "result": result})
        completed += 1


class _LocalClient:
    """In-process transport: the client *is* the coordinator."""

    def __init__(self, coordinator: FabricCoordinator) -> None:
        self._coordinator = coordinator

    def rpc(self, request: dict) -> dict:
        return self._coordinator.rpc(request)


# -- multiprocess transport -------------------------------------------------------------


class _QueueClient:
    """Worker-side RPC over a shared request queue + per-worker reply queue.

    Heartbeats are fire-and-forget (no reply) so the pump thread's traffic
    never interleaves with the main thread's request/reply pairs.
    """

    def __init__(self, requests, replies, worker_id: int) -> None:
        self._requests = requests
        self._replies = replies
        self._worker_id = worker_id
        self._lock = threading.Lock()

    def rpc(self, request: dict) -> dict:
        if request.get("op") == "heartbeat":
            self._requests.put((self._worker_id, request, False))
            return {"ok": True, "status": "ok"}
        with self._lock:
            self._requests.put((self._worker_id, request, True))
            return self._replies.get()


def _process_worker_main(
    worker_id: int, requests, replies, checkpoint_dir: str, heartbeat_interval: float
) -> None:
    client = _QueueClient(requests, replies, worker_id)
    worker_loop(
        client,
        checkpoint_dir,
        worker=f"proc-{worker_id}",
        heartbeat_interval=heartbeat_interval,
    )


def _serve_queue_requests(
    coordinator: FabricCoordinator, requests, replies: list, stop: threading.Event
) -> None:
    while not stop.is_set():
        try:
            worker_id, request, needs_reply = requests.get(timeout=0.1)
        except queue_module.Empty:
            continue
        reply = coordinator.rpc(request)
        if needs_reply:
            replies[worker_id].put(reply)


def _run_transport_process(
    coordinator: FabricCoordinator, workers: int, heartbeat_interval: float
) -> None:
    import multiprocessing as mp

    context = mp.get_context()
    requests = context.Queue()
    replies = [context.Queue() for _ in range(workers)]
    stop = threading.Event()
    pump = threading.Thread(
        target=_serve_queue_requests,
        args=(coordinator, requests, replies, stop),
        daemon=True,
    )
    pump.start()
    procs = [
        context.Process(
            target=_process_worker_main,
            args=(
                i,
                requests,
                replies[i],
                str(coordinator.checkpoint_dir),
                heartbeat_interval,
            ),
            daemon=True,
        )
        for i in range(workers)
    ]
    for proc in procs:
        proc.start()
    try:
        while not coordinator.done():
            coordinator.queue.expire()
            if all(not proc.is_alive() for proc in procs):
                raise RuntimeError(
                    "all fabric workers exited before the sweep completed"
                )
            time.sleep(0.05)
        # Let live workers observe "done" on their next lease and exit.
        for proc in procs:
            proc.join(timeout=5.0)
    finally:
        stop.set()
        pump.join(timeout=2.0)
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)


# -- inprocess transport ----------------------------------------------------------------


def _run_transport_inprocess(coordinator: FabricCoordinator) -> None:
    # One worker on the calling thread: nothing else leases, so no lease can
    # expire under it and it needs no heartbeat.
    worker_loop(
        _LocalClient(coordinator), coordinator.checkpoint_dir, worker="inprocess"
    )


# -- entry point ------------------------------------------------------------------------


def run_sweep(
    points: Sequence[SweepPoint],
    workers: int | None = None,
    transport: str = "process",
    policies_per_shard: int = 1,
    chunks_per_slab: int | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    checkpoint_dir=None,
    lease_timeout: float = _LEASE_TIMEOUT,
    heartbeat_interval: float | None = None,
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
    policies_per_shard, chunks_per_slab, chunk_size:
        Shard layout (:func:`~repro.analysis.shard.derive_shards`):
        ``policies_per_shard=len(points)`` runs each workload as one fused
        pass, ``chunks_per_slab`` splits lineages into time slabs.
    checkpoint_dir:
        Shard checkpoint directory shared by the workers; ``None`` uses a
        sweep-lifetime temp directory.

    The merged aggregates are *bit-identical* (``StreamResult.digest``) at
    any worker count, transport and shard layout.
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
    if heartbeat_interval is None:
        heartbeat_interval = max(0.5, lease_timeout / 3.0)

    with contextlib.ExitStack() as stack:
        if checkpoint_dir is None:
            checkpoint_dir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-fabric-")
            )
        coordinator = FabricCoordinator(
            points,
            checkpoint_dir,
            policies_per_shard=policies_per_shard,
            chunks_per_slab=chunks_per_slab,
            chunk_size=chunk_size,
            lease_timeout=lease_timeout,
            max_failures=max_failures,
            checkpoint_every=checkpoint_every,
        )
        if transport == "inprocess":
            _run_transport_inprocess(coordinator)
        else:
            _run_transport_process(coordinator, workers, heartbeat_interval)
        try:
            return coordinator.outcomes()
        finally:
            if cleanup:
                coordinator.cleanup_checkpoints()

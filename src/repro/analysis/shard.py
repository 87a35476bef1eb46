"""Transport-agnostic shard protocol of the sweep path.

A *shard* is the unit of work the sweep fabric (:mod:`repro.analysis.fabric`)
dispatches to workers: one fused cell group's workload, a subset of its
policies, and a *time slab* — a contiguous range of trace chunks.
:class:`ShardSpec` pins all three deterministically, so any worker on either
transport replays the identical simulation:

* **workload spec** — the :class:`~repro.analysis.parallel.SweepPoint`\\ s of
  the shard (all sharing one fuse key, i.e. one workload + conditions);
  workers rebuild the trace and dataset from the point parameters through
  the per-process LRU cache of :mod:`repro.analysis.parallel`;
* **policy subset** — sharding along the policy axis is what parallelizes a
  fused group: each policy-subset shard drives its own
  :class:`~repro.cluster.multi.MultiPolicyRunner` over the shared workload;
* **time-slab range** — ``(chunk_start, max_chunks)`` in engine chunks.
  Slabs of one *lineage* (same points × policies × chunk size) necessarily
  run **sequentially** — simulation state at chunk *k* depends on chunks
  ``< k`` — chained through fused format-4 checkpoints named after the
  lineage hash.  Slabs exist for fault tolerance, not parallelism: a worker
  lost mid-slab costs at most ``checkpoint_every`` chunks of replay, and the
  coordinator re-leases the *slab*, not the whole lineage.

Each non-final slab ships the aggregates accumulated *during the slab* (the
collector is reset at slab entry); the final slab ships a finalized
:class:`~repro.cluster.streaming.StreamResult` whose engine-derived fields
(makespan, utilization, decision times) cover the whole lineage because the
engine state rode the checkpoint chain.  :class:`MergeableAggregates` folds
the per-slab partials together with the exact, order-independent ``merge()``
of :class:`~repro.cluster.metrics.RunningJobStats` /
:class:`~repro.cluster.footprint.RunningFootprintTotals`, so the assembled
result is **bit-identical** (``StreamResult.digest``) to one unsharded
fused pass — at any worker count, either transport, any shard arrival order.

Checkpoint names derive from the lineage hash (not PID or tmpnam): a
re-dispatched shard finds its predecessor's file, and
:func:`orphan_checkpoints` identifies files no live sweep owns.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections.abc import Sequence
from pathlib import Path

from repro.analysis.parallel import (
    SweepPoint,
    _fuse_key,
    _point_chaos,
    _point_dataset,
    _point_source,
)
from repro.cluster.footprint import RunningFootprintTotals
from repro.cluster.metrics import RunningJobStats
from repro.cluster.multi import MultiPolicyRunner
from repro.cluster.streaming import StreamingSimulator, StreamResult

__all__ = [
    "ShardSpec",
    "ShardResult",
    "MergeableAggregates",
    "derive_shards",
    "run_shard",
    "checkpoint_path",
    "orphan_checkpoints",
]

DEFAULT_CHUNK_SIZE = 4096
#: Chunks between mid-slab checkpoints inside :func:`run_shard` — the replay
#: bound after a worker loss.
DEFAULT_CHECKPOINT_EVERY = 8


def _canonical_hash(payload: object) -> str:
    """Deterministic short hash of a ``repr``-stable payload (cross-process)."""
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()[:16]


@dataclasses.dataclass(frozen=True)
class ShardSpec:
    """One leasable unit of sweep work (hashable and picklable).

    ``points`` are the policy cells of the shard — all sharing one fuse key —
    and ``indices`` their positions in the originating sweep's point list
    (results are keyed by original index so the coordinator reassembles
    outcomes in input order).  ``chunk_start``/``max_chunks``/``slab``
    locate the time slab; ``max_chunks=None`` means "run to the end of the
    stream" (single-slab lineages).
    """

    points: tuple[SweepPoint, ...]
    indices: tuple[int, ...]
    chunk_size: int = DEFAULT_CHUNK_SIZE
    chunk_start: int = 0
    max_chunks: int | None = None
    slab: int = 0

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a shard needs at least one point")
        if len(self.points) != len(self.indices):
            raise ValueError(
                f"{len(self.points)} points but {len(self.indices)} indices"
            )
        keys = {_fuse_key(point) for point in self.points}
        if len(keys) > 1:
            raise ValueError(
                "all points of a shard must share one fuse key (same workload "
                "and simulation conditions); got mixed groups"
            )
        if self.chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if self.chunk_start < 0 or self.slab < 0:
            raise ValueError("chunk_start and slab must be >= 0")
        if self.max_chunks is not None and self.max_chunks < 1:
            raise ValueError("max_chunks must be >= 1 (or None for unbounded)")

    # -- identity ----------------------------------------------------------------------
    def lineage(self) -> str:
        """Hash of the slab-invariant identity (points × indices × chunking).

        Every slab — and every re-dispatch — of one lineage shares this
        value, so they all address the same ``shard-<lineage>.ckpt`` file.
        """
        return _canonical_hash((self.points, self.indices, self.chunk_size))

    def key(self) -> str:
        """Hash of the full identity, slab range included (the lease key)."""
        return _canonical_hash(
            (self.points, self.indices, self.chunk_size, self.chunk_start,
             self.max_chunks, self.slab)
        )

    def continuation(self, chunks_done: int) -> "ShardSpec":
        """The next slab of this lineage, starting where this one stopped."""
        return dataclasses.replace(
            self, chunk_start=int(chunks_done), slab=self.slab + 1
        )


@dataclasses.dataclass
class ShardResult:
    """What a worker returns for one shard (picklable).

    Non-final slabs carry ``partials`` — per-point
    ``(RunningJobStats, RunningFootprintTotals)`` accumulated during the
    slab — and the coordinator enqueues :meth:`ShardSpec.continuation`.
    The final slab carries finalized ``results`` (whole-lineage engine
    fields; its own slab's aggregates inside).  Both are keyed by the
    *original sweep index*.
    """

    spec: ShardSpec
    final: bool
    chunks_done: int
    partials: dict[int, tuple[RunningJobStats, RunningFootprintTotals]]
    results: dict[int, StreamResult]


def derive_shards(
    points: Sequence[SweepPoint],
    policies_per_shard: int = 1,
    chunks_per_slab: int | None = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> list[ShardSpec]:
    """Deterministic slab-0 shards of a sweep's fused groups.

    Groups the points by fuse key (same workload and conditions), then
    splits each group along the policy axis into subsets of
    ``policies_per_shard`` cells (1 by default — policy cells dominate the
    cost and per-policy shards load-balance best; ``len(points)`` keeps each
    group one fused pass).  Later slabs are created dynamically by the
    coordinator as non-final slabs complete, so only slab 0 is derived here.
    Input order is preserved group-by-group, and the derivation is a pure
    function of ``points`` — every coordinator derives the identical shard
    list.
    """
    if policies_per_shard < 1:
        raise ValueError("policies_per_shard must be >= 1")
    groups: dict[tuple, list[int]] = {}
    for index, point in enumerate(points):
        groups.setdefault(_fuse_key(point), []).append(index)
    shards = []
    for indices in groups.values():
        for lo in range(0, len(indices), policies_per_shard):
            subset = indices[lo : lo + policies_per_shard]
            shards.append(
                ShardSpec(
                    points=tuple(points[i] for i in subset),
                    indices=tuple(subset),
                    chunk_size=chunk_size,
                    chunk_start=0,
                    max_chunks=chunks_per_slab,
                    slab=0,
                )
            )
    return shards


def checkpoint_path(checkpoint_dir, spec: ShardSpec) -> Path:
    """The lineage-addressed checkpoint file of a shard.

    Named from the :meth:`ShardSpec.lineage` hash — not PID or tmpnam — so a
    re-dispatched shard finds its predecessor's checkpoint, successor slabs
    chain through the same file, and stale files are attributable.
    """
    return Path(checkpoint_dir) / f"shard-{spec.lineage()}.ckpt"


def orphan_checkpoints(
    checkpoint_dir, specs: Sequence[ShardSpec]
) -> list[Path]:
    """Shard checkpoints in ``checkpoint_dir`` owned by none of ``specs``.

    Deterministic names make orphans *identifiable*: anything matching
    ``shard-*.ckpt`` whose lineage hash is not claimed by a live spec is
    left over from a dead or finished sweep and safe to delete.
    """
    alive = {spec.lineage() for spec in specs}
    orphans = []
    for path in sorted(Path(checkpoint_dir).glob("shard-*.ckpt")):
        lineage = path.name[len("shard-") : -len(".ckpt")]
        if lineage not in alive:
            orphans.append(path)
    return orphans


def _build_runner(spec: ShardSpec, source, dataset) -> MultiPolicyRunner:
    from repro.schedulers.registry import make_scheduler

    first = spec.points[0]
    schedulers = [
        (str(i), make_scheduler(p.scheduler, **dict(p.scheduler_kwargs)))
        for i, p in enumerate(spec.points)
    ]
    return MultiPolicyRunner(
        source,
        schedulers,
        dataset=dataset,
        chunk_size=spec.chunk_size,
        collect="aggregate",
        # A uniform sample cannot be merged across shards, so sharded runs
        # disable the reservoir throughout; digests exclude it.
        reservoir_size=0,
        servers_per_region=first.servers_per_region,
        scheduling_interval_s=first.scheduling_interval_s,
        delay_tolerance=first.delay_tolerance,
        include_embodied=first.include_embodied,
        chaos=_point_chaos(first),
        chaos_seed=first.seed,
    )


def run_shard(
    spec: ShardSpec,
    checkpoint_dir,
    checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
) -> ShardResult:
    """Run one shard to its slab boundary (or stream end) and return its result.

    Resume-aware in both directions the fault model needs:

    * entering a slab whose predecessor completed finds the lineage
      checkpoint with ``chunks_done == chunk_start`` and **resets the
      collectors** (the new slab accumulates only its own jobs);
    * re-dispatch after a worker loss finds ``chunks_done > chunk_start``
      (a mid-slab or own-end checkpoint) and **keeps the collectors** —
      the slab's partial so far rides the engine state, so at most
      ``checkpoint_every`` chunks are replayed, and a shard that died
      between its end-of-slab checkpoint and result delivery replays
      nothing at all.
    """
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    ckpt = checkpoint_path(checkpoint_dir, spec)
    first = spec.points[0]
    source = _point_source(first)
    dataset = _point_dataset(first, source)
    target = None if spec.max_chunks is None else spec.chunk_start + spec.max_chunks

    if spec.chunk_start == 0 and not ckpt.exists():
        runner = _build_runner(spec, source, dataset)
        chunks_done = 0
    else:
        if not ckpt.exists():
            raise FileNotFoundError(
                f"shard {spec.key()} (slab {spec.slab}) expects its lineage "
                f"checkpoint at {ckpt}, but the predecessor never wrote it"
            )
        payload = StreamingSimulator.load_checkpoint(ckpt)
        chunks_done = int(payload.get("extra", {}).get("chunks_done", 0))
        if chunks_done < spec.chunk_start:
            raise RuntimeError(
                f"lineage checkpoint at {ckpt} stops at chunk {chunks_done}, "
                f"before this slab's start {spec.chunk_start}: the predecessor "
                "slab is incomplete"
            )
        runner = MultiPolicyRunner.from_checkpoint_payload(
            payload, source, dataset=dataset
        )
        if chunks_done == spec.chunk_start:
            # Predecessor-end checkpoint: fresh slab, fresh partial.
            runner.reset_collectors()
        # chunks_done > chunk_start: mid-slab re-dispatch — the collector
        # already carries this slab's partial; just continue.

    exhausted = False
    while target is None or chunks_done < target:
        remaining = None if target is None else target - chunks_done
        step = checkpoint_every if remaining is None else min(checkpoint_every, remaining)
        consumed = runner.run_chunks(max_chunks=step)
        chunks_done += consumed
        if consumed < step:
            exhausted = True
            break
        if target is not None and chunks_done >= target:
            break
        runner.save_checkpoint(ckpt, extra={"chunks_done": chunks_done})

    if exhausted or target is None:
        results = runner.finalize()
        return ShardResult(
            spec=spec,
            final=True,
            chunks_done=chunks_done,
            partials={},
            results={
                spec.indices[i]: results[str(i)] for i in range(len(spec.points))
            },
        )

    runner.save_checkpoint(ckpt, extra={"chunks_done": chunks_done})
    partials = runner.partials()
    return ShardResult(
        spec=spec,
        final=False,
        chunks_done=chunks_done,
        partials={
            spec.indices[i]: partials[str(i)] for i in range(len(spec.points))
        },
        results={},
    )


class MergeableAggregates:
    """Exact streaming merge of shard results into whole-lineage results.

    Feed every :class:`ShardResult` to :meth:`absorb` as it arrives — in any
    order.  Per-slab partials fold through the exact ``merge()`` of the
    accumulators; the final slab's :class:`StreamResult` contributes the
    engine-derived whole-lineage fields (makespan, utilization, decision
    times) plus its own slab's aggregates.  :meth:`result` swaps the fully
    merged accumulators into that result, making it bit-identical
    (``digest()``) to one unsharded fused pass over the same cells.
    """

    def __init__(self) -> None:
        self._partials: dict[int, tuple[RunningJobStats, RunningFootprintTotals]] = {}
        self._finals: dict[int, StreamResult] = {}

    def absorb(self, shard_result: ShardResult) -> None:
        """Fold one shard's payload in (takes ownership of its accumulators)."""
        for index, (stats, footprints) in shard_result.partials.items():
            self._fold(index, stats, footprints)
        for index, result in shard_result.results.items():
            self._finals[index] = result
            self._fold(index, result.stats, result.footprint_totals)

    def _fold(
        self, index: int, stats: RunningJobStats, footprints: RunningFootprintTotals
    ) -> None:
        held = self._partials.get(index)
        if held is None:
            self._partials[index] = (stats, footprints)
        else:
            held[0].merge(stats)
            held[1].merge(footprints)

    def complete(self, index: int) -> bool:
        """Whether the lineage owning ``index`` has delivered its final slab."""
        return index in self._finals

    def pending(self, indices: Sequence[int]) -> list[int]:
        """The subset of ``indices`` still waiting for a final slab."""
        return [index for index in indices if index not in self._finals]

    def result(self, index: int) -> StreamResult:
        """The assembled whole-lineage result for one sweep point."""
        result = self._finals[index]
        stats, footprints = self._partials[index]
        result.stats = stats
        result.footprint_totals = footprints
        if result.chaos_stats is not None:
            # The final slab attached its own slab's eviction count; the
            # merged accumulator has the whole lineage's.
            result.chaos_stats = dict(result.chaos_stats)
            result.chaos_stats["evictions"] = int(stats.evictions)
        return result

"""Transport-agnostic shard protocol of the sweep path.

A *shard* is the unit of work the sweep fabric (:mod:`repro.analysis.fabric`)
hands to a worker: one fused cell group's workload and a subset of its
policies, run as one whole *lineage* from the first trace chunk to the end
of the stream.  :class:`ShardSpec` pins both deterministically, so any worker
on either transport replays the identical simulation:

* **workload spec** — the :class:`~repro.analysis.parallel.SweepPoint`\\ s of
  the shard (all sharing one fuse key, i.e. one workload + conditions);
  workers rebuild the trace and dataset from the point parameters through
  the per-process LRU cache of :mod:`repro.analysis.parallel`;
* **policy subset** — sharding along the policy axis is what parallelizes a
  fused group: each policy-subset shard drives its own
  :class:`~repro.cluster.multi.MultiPolicyRunner` over the shared workload.

Every policy owns its engine state inside the runner, so a shard's finalized
:class:`~repro.cluster.streaming.StreamResult`\\ s are **bit-identical**
(``StreamResult.digest``) to one unsharded fused pass over the same cells —
at any worker count, either transport, any shard completion order.

Fault tolerance comes from in-shard checkpoints: :func:`run_shard` saves a
fused format-4 checkpoint every ``checkpoint_every`` chunks under a name
derived from the shard's hash (not PID or tmpnam), and a shard run again
after a worker loss resumes from it, so at most ``checkpoint_every`` chunks
are replayed.
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
from repro.cluster.multi import MultiPolicyRunner
from repro.cluster.streaming import StreamingSimulator, StreamResult

__all__ = [
    "ShardSpec",
    "ShardResult",
    "derive_shards",
    "run_shard",
    "checkpoint_path",
]

DEFAULT_CHUNK_SIZE = 4096
#: Chunks between checkpoints inside :func:`run_shard` — the replay bound
#: after a worker loss.
DEFAULT_CHECKPOINT_EVERY = 8


@dataclasses.dataclass(frozen=True)
class ShardSpec:
    """One dispatchable unit of sweep work (hashable and picklable).

    ``points`` are the policy cells of the shard — all sharing one fuse key —
    and ``indices`` their positions in the originating sweep's point list
    (results are keyed by original index so the coordinator reassembles
    outcomes in input order).
    """

    points: tuple[SweepPoint, ...]
    indices: tuple[int, ...]
    chunk_size: int = DEFAULT_CHUNK_SIZE

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

    def key(self) -> str:
        """Deterministic short hash of the shard (stable across processes).

        Every run of one shard — the first and each re-dispatch — shares
        this value, so they all address the same ``shard-<key>.ckpt`` file.
        """
        payload = (self.points, self.indices, self.chunk_size)
        return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()[:16]


@dataclasses.dataclass
class ShardResult:
    """What a worker returns for one shard (picklable).

    ``results`` holds each cell's finalized :class:`StreamResult`, keyed by
    the *original sweep index*; ``chunks_done`` counts the chunks the
    lineage consumed, resumed ones included.
    """

    chunks_done: int
    results: dict[int, StreamResult]


def derive_shards(
    points: Sequence[SweepPoint],
    policies_per_shard: int = 1,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> list[ShardSpec]:
    """Deterministic shards of a sweep's fused groups.

    Groups the points by fuse key (same workload and conditions), then
    splits each group along the policy axis into subsets of
    ``policies_per_shard`` cells (1 by default — policy cells dominate the
    cost and per-policy shards load-balance best; ``len(points)`` keeps each
    group one fused pass).  Input order is preserved group-by-group, and the
    derivation is a pure function of ``points`` — every coordinator derives
    the identical shard list.
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
                )
            )
    return shards


def checkpoint_path(checkpoint_dir, spec: ShardSpec) -> Path:
    """The checkpoint file of a shard, named from :meth:`ShardSpec.key`.

    Not PID or tmpnam, so a re-dispatched shard finds its predecessor's
    checkpoint and stale files are attributable.
    """
    return Path(checkpoint_dir) / f"shard-{spec.key()}.ckpt"


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
        # Sweep outcomes carry no per-job sample and digests exclude it, so
        # shards keep no reservoir (and checkpoints stay small).
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
    """Run one shard to the end of its stream and return its finalized results.

    Resumes from the shard's checkpoint when one exists — a re-dispatch after
    a worker loss replays at most ``checkpoint_every`` chunks — and saves
    one every ``checkpoint_every`` chunks on the way.
    """
    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    ckpt = checkpoint_path(checkpoint_dir, spec)
    first = spec.points[0]
    source = _point_source(first)
    dataset = _point_dataset(first, source)

    if ckpt.exists():
        payload = StreamingSimulator.load_checkpoint(ckpt)
        chunks_done = int(payload["extra"]["chunks_done"])
        runner = MultiPolicyRunner.from_checkpoint_payload(
            payload, source, dataset=dataset
        )
    else:
        runner = _build_runner(spec, source, dataset)
        chunks_done = 0

    while True:
        consumed = runner.run_chunks(max_chunks=checkpoint_every)
        chunks_done += consumed
        if consumed < checkpoint_every:
            break
        runner.save_checkpoint(ckpt, extra={"chunks_done": chunks_done})

    results = runner.finalize()
    return ShardResult(
        chunks_done=chunks_done,
        results={spec.indices[i]: results[str(i)] for i in range(len(spec.points))},
    )

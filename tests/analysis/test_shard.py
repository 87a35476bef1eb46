"""Unit tests for the shard protocol (spec identity, slab chaining, merge).

The end-to-end distributed == fused digest equality lives in the
integration differential suite; this file covers the protocol mechanics:
spec validation and identity, deterministic lineage-addressed
checkpoint names, orphan identification, the three-way resume state machine
of :func:`run_shard`, and :class:`MergeableAggregates` order independence.
"""

import pickle
import random

import pytest

from repro.analysis import run_sweep
from repro.analysis.parallel import SweepPoint
from repro.analysis.shard import (
    MergeableAggregates,
    ShardSpec,
    checkpoint_path,
    derive_shards,
    orphan_checkpoints,
    run_shard,
)

_WORKLOAD = dict(trace_kind="bursty", rate_per_hour=50.0, duration_days=0.1)


def _points(policies=("baseline", "least-load"), **overrides):
    params = {**_WORKLOAD, **overrides}
    return [SweepPoint(scheduler=policy, **params) for policy in policies]


class TestShardSpec:
    def test_validation(self):
        points = _points()
        with pytest.raises(ValueError, match="at least one point"):
            ShardSpec(points=(), indices=())
        with pytest.raises(ValueError, match="indices"):
            ShardSpec(points=tuple(points), indices=(0,))
        mixed = [points[0], SweepPoint(scheduler="baseline", **{**_WORKLOAD, "seed": 9})]
        with pytest.raises(ValueError, match="fuse key"):
            ShardSpec(points=tuple(mixed), indices=(0, 1))
        with pytest.raises(ValueError, match="max_chunks"):
            ShardSpec(points=(points[0],), indices=(0,), max_chunks=0)

    def test_lineage_is_slab_invariant_and_key_is_not(self):
        spec = ShardSpec(points=tuple(_points()), indices=(0, 1), chunk_size=64)
        successor = spec.continuation(chunks_done=5)
        assert successor.chunk_start == 5
        assert successor.slab == 1
        assert successor.lineage() == spec.lineage()
        assert successor.key() != spec.key()
        other_chunking = ShardSpec(
            points=tuple(_points()), indices=(0, 1), chunk_size=128
        )
        assert other_chunking.lineage() != spec.lineage()

    def test_pickle_round_trip(self, tmp_path):
        # The process transport hands specs to its workers through
        # multiprocessing queues: a pickled spec must come back equal, with
        # the same identity and so the same lineage checkpoint file.
        spec = ShardSpec(
            points=tuple(_points()), indices=(3, 7), chunk_size=64,
            chunk_start=4, max_chunks=2, slab=2,
        )
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.key() == spec.key()
        assert clone.lineage() == spec.lineage()
        assert checkpoint_path(tmp_path, clone) == checkpoint_path(tmp_path, spec)


class TestDeriveShards:
    def test_groups_by_fuse_key_and_splits_policies(self):
        points = _points(("baseline", "least-load", "round-robin")) + _points(
            ("baseline", "waterwise"), seed=9
        )
        shards = derive_shards(points, policies_per_shard=2)
        assert [shard.indices for shard in shards] == [(0, 1), (2,), (3, 4)]
        assert all(shard.slab == 0 for shard in shards)
        # Pure function of the points: every coordinator derives the same list.
        assert derive_shards(points, policies_per_shard=2) == shards

    def test_policy_axis_default_is_one_cell_per_shard(self):
        shards = derive_shards(_points(("baseline", "least-load")))
        assert [shard.indices for shard in shards] == [(0,), (1,)]


class TestCheckpointNaming:
    def test_redispatch_and_successor_share_one_file(self, tmp_path):
        spec = ShardSpec(points=tuple(_points()), indices=(0, 1), max_chunks=2)
        path = checkpoint_path(tmp_path, spec)
        assert path.name == f"shard-{spec.lineage()}.ckpt"
        assert checkpoint_path(tmp_path, spec.continuation(2)) == path

    def test_orphans_are_identifiable(self, tmp_path):
        spec = ShardSpec(points=tuple(_points()), indices=(0, 1))
        alive = checkpoint_path(tmp_path, spec)
        alive.write_bytes(b"x")
        stale = tmp_path / "shard-deadbeefdeadbeef.ckpt"
        stale.write_bytes(b"x")
        (tmp_path / "unrelated.pkl").write_bytes(b"x")
        assert orphan_checkpoints(tmp_path, [spec]) == [stale]


class TestRunShardResume:
    def test_missing_predecessor_checkpoint_is_an_error(self, tmp_path):
        spec = ShardSpec(
            points=tuple(_points()), indices=(0, 1), chunk_size=16,
            chunk_start=3, max_chunks=2, slab=1,
        )
        with pytest.raises(FileNotFoundError, match="predecessor never wrote"):
            run_shard(spec, tmp_path)

    def test_incomplete_predecessor_is_an_error(self, tmp_path):
        spec = ShardSpec(
            points=tuple(_points()), indices=(0, 1), chunk_size=16, max_chunks=1
        )
        first = run_shard(spec, tmp_path)
        assert not first.final and first.chunks_done == 1
        # A slab claiming to start past what the lineage checkpoint covers
        # means its predecessor never finished.
        skipped = spec.continuation(5)
        with pytest.raises(RuntimeError, match="predecessor slab is incomplete"):
            run_shard(skipped, tmp_path)

    def test_redispatch_of_completed_slab_replays_nothing(self, tmp_path):
        # A worker that died between its end-of-slab checkpoint and result
        # delivery: the re-dispatched shard finds chunks_done == its own end
        # and returns the identical partial without replaying chunks.
        spec = ShardSpec(
            points=tuple(_points()), indices=(0, 1), chunk_size=16, max_chunks=2
        )
        first = run_shard(spec, tmp_path)
        again = run_shard(spec, tmp_path)
        assert again.final == first.final
        assert again.chunks_done == first.chunks_done
        for index in first.partials:
            a, b = first.partials[index][0], again.partials[index][0]
            assert (a.num_jobs, a.carbon_g, a.water_l) == (
                b.num_jobs, b.carbon_g, b.water_l
            )


class TestMergeableAggregates:
    def test_any_arrival_order_matches_fused_run(self, tmp_path):
        points = _points(("baseline", "least-load", "round-robin"))
        reference = {
            i: outcome.digest
            for i, outcome in enumerate(
                run_sweep(points, transport="inprocess", policies_per_shard=len(points))
            )
        }
        shards = derive_shards(points, chunks_per_slab=2, chunk_size=16)
        results = []
        pending = list(shards)
        while pending:  # slabs of one lineage chain sequentially
            spec = pending.pop(0)
            result = run_shard(spec, tmp_path)
            results.append(result)
            if not result.final:
                pending.append(spec.continuation(result.chunks_done))
        assert len(results) > len(shards), "expected multi-slab lineages"
        merged = MergeableAggregates()
        rng = random.Random(5)
        rng.shuffle(results)
        for result in results:
            merged.absorb(result)
        assert merged.pending(range(len(points))) == []
        got = {i: merged.result(i).digest() for i in range(len(points))}
        assert got == reference

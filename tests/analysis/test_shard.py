"""Unit tests for the shard protocol (spec identity, derivation, resume).

The end-to-end distributed == fused digest equality lives in the
integration differential suite; this file covers the protocol mechanics:
spec validation and identity, deterministic shard-addressed checkpoint
names, and :func:`run_shard` resuming from its own checkpoint.
"""

import pickle

import pytest

from repro.analysis.parallel import SweepPoint
from repro.analysis.shard import (
    ShardSpec,
    checkpoint_path,
    derive_shards,
    run_shard,
)
from repro.cluster.multi import MultiPolicyRunner
from repro.cluster.streaming import StreamingSimulator

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
        with pytest.raises(ValueError, match="chunk_size"):
            ShardSpec(points=(points[0],), indices=(0,), chunk_size=0)

    def test_key_covers_points_indices_and_chunking(self):
        spec = ShardSpec(points=tuple(_points()), indices=(0, 1), chunk_size=64)
        assert spec.key() == ShardSpec(
            points=tuple(_points()), indices=(0, 1), chunk_size=64
        ).key()
        for other in (
            ShardSpec(points=tuple(_points()), indices=(0, 1), chunk_size=128),
            ShardSpec(points=tuple(_points()), indices=(2, 3), chunk_size=64),
            ShardSpec(
                points=tuple(_points(("baseline", "waterwise"))),
                indices=(0, 1),
                chunk_size=64,
            ),
        ):
            assert other.key() != spec.key()

    def test_pickle_round_trip(self, tmp_path):
        # The process transport hands specs to its workers through
        # multiprocessing pipes: a pickled spec must come back equal, with
        # the same identity and so the same checkpoint file.
        spec = ShardSpec(points=tuple(_points()), indices=(3, 7), chunk_size=64)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.key() == spec.key()
        assert checkpoint_path(tmp_path, clone) == checkpoint_path(tmp_path, spec)


class TestDeriveShards:
    def test_groups_by_fuse_key_and_splits_policies(self):
        points = _points(("baseline", "least-load", "round-robin")) + _points(
            ("baseline", "waterwise"), seed=9
        )
        shards = derive_shards(points, policies_per_shard=2)
        assert [shard.indices for shard in shards] == [(0, 1), (2,), (3, 4)]
        # Pure function of the points: every coordinator derives the same list.
        assert derive_shards(points, policies_per_shard=2) == shards

    def test_policy_axis_default_is_one_cell_per_shard(self):
        shards = derive_shards(_points(("baseline", "least-load")))
        assert [shard.indices for shard in shards] == [(0,), (1,)]

    def test_rejects_nonpositive_policies_per_shard(self):
        with pytest.raises(ValueError, match="policies_per_shard"):
            derive_shards(_points(), policies_per_shard=0)


class TestCheckpointNaming:
    def test_every_run_of_a_shard_shares_one_file(self, tmp_path):
        spec = ShardSpec(points=tuple(_points()), indices=(0, 1))
        path = checkpoint_path(tmp_path, spec)
        assert path.name == f"shard-{spec.key()}.ckpt"
        assert checkpoint_path(tmp_path, derive_shards(_points(), 2)[0]) == path


class TestRunShardResume:
    def test_rerun_resumes_from_its_checkpoint(self, tmp_path, monkeypatch):
        # A shard run again over its own checkpoint directory — what a
        # re-dispatch after a worker loss does — runs only the chunks after
        # the one the checkpoint records and finishes with identical results.
        spec = ShardSpec(points=tuple(_points()), indices=(0, 1), chunk_size=16)
        first = run_shard(spec, tmp_path, checkpoint_every=2)
        payload = StreamingSimulator.load_checkpoint(checkpoint_path(tmp_path, spec))
        resumed_at = payload["extra"]["chunks_done"]
        assert 0 < resumed_at <= first.chunks_done
        run_chunks = MultiPolicyRunner.run_chunks
        consumed = []

        def counting_run_chunks(runner, max_chunks=None):
            consumed.append(run_chunks(runner, max_chunks=max_chunks))
            return consumed[-1]

        monkeypatch.setattr(MultiPolicyRunner, "run_chunks", counting_run_chunks)
        again = run_shard(spec, tmp_path, checkpoint_every=2)
        assert sum(consumed) == first.chunks_done - resumed_at
        assert again.chunks_done == first.chunks_done
        assert {i: r.digest() for i, r in again.results.items()} == {
            i: r.digest() for i, r in first.results.items()
        }

    @pytest.mark.parametrize("checkpoint_every", [1, 3])
    def test_checkpoint_cadence_does_not_move_results(self, checkpoint_every, tmp_path):
        # Checkpoints are written between chunks and never alter the run: any
        # cadence gives the digests of a lineage too short to checkpoint at
        # all, and the last checkpoint records the last whole interval.
        spec = ShardSpec(points=tuple(_points()), indices=(0, 1), chunk_size=16)
        (tmp_path / "ref").mkdir()
        reference = run_shard(spec, tmp_path / "ref", checkpoint_every=10**6)
        assert not checkpoint_path(tmp_path / "ref", spec).exists()
        result = run_shard(spec, tmp_path, checkpoint_every=checkpoint_every)
        payload = StreamingSimulator.load_checkpoint(checkpoint_path(tmp_path, spec))
        total = reference.chunks_done
        assert payload["extra"]["chunks_done"] == total // checkpoint_every * checkpoint_every
        assert result.chunks_done == total
        assert {i: r.digest() for i, r in result.results.items()} == {
            i: r.digest() for i, r in reference.results.items()
        }

    def test_results_keyed_by_sweep_index(self, tmp_path):
        # A shard's results carry the cells' positions in the sweep, and each
        # cell of a multi-policy shard equals that cell run as a shard alone.
        points = _points()
        spec = ShardSpec(points=tuple(points), indices=(3, 7), chunk_size=32)
        result = run_shard(spec, tmp_path, checkpoint_every=1)
        assert set(result.results) == {3, 7}
        for point, index in zip(points, spec.indices):
            alone = ShardSpec(points=(point,), indices=(index,), chunk_size=32)
            single = run_shard(alone, tmp_path, checkpoint_every=1)
            assert single.results[index].digest() == result.results[index].digest()

    def test_rejects_nonpositive_checkpoint_interval(self, tmp_path):
        spec = ShardSpec(points=tuple(_points()), indices=(0, 1))
        with pytest.raises(ValueError, match="checkpoint_every"):
            run_shard(spec, tmp_path, checkpoint_every=0)

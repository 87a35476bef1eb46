"""Hypothesis property suite for :class:`ExactSum` and the accumulators on it.

Every float total the streaming engine reports (:class:`RunningJobStats`,
:class:`RunningFootprintTotals`) accumulates in :class:`ExactSum`, and the
per-region footprint totals combine through :meth:`ExactSum.merge`.  That
rests on one algebraic claim: feeding any partition of the input — shuffled
shards, empty shards, single-element shards — through separate accumulators
and merging them *in any order* produces a total bit-identical to one
accumulator that saw everything.  On top of it, the engine's accumulators
(with :class:`StreamingQuantiles`) report the same figures, bit for bit,
whatever the chunking and order of the finished-job stream, which is what
makes ``StreamResult.digest`` invariant to chunk size and to resuming from a
checkpoint.  Hypothesis picks the values, the partition boundaries and the
order; the asserts are ``==``, never ``approx``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.footprint import RunningFootprintTotals
from repro.cluster.metrics import ExactSum, RunningJobStats, StreamingQuantiles

#: Wide but finite floats: large magnitude spreads and sign cancellation are
#: exactly the regimes where naive float summation breaks associativity.
_FLOATS = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


@st.composite
def _partitioned_values(draw, elements=_FLOATS, max_size=60):
    """(values, shards) where shards is a random ordered partition of values.

    Partitions may contain empty shards and single-element shards, and the
    shard list itself arrives in a random (merge) order.
    """
    values = draw(st.lists(elements, min_size=0, max_size=max_size))
    n_shards = draw(st.integers(min_value=1, max_value=6))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(0, len(values)),
                min_size=n_shards - 1,
                max_size=n_shards - 1,
            )
        )
    )
    bounds = [0, *cuts, len(values)]
    shards = [values[a:b] for a, b in zip(bounds, bounds[1:])]
    order = draw(st.permutations(range(len(shards))))
    return values, [shards[i] for i in order]


class TestExactSum:
    @settings(max_examples=200, deadline=None)
    @given(_partitioned_values())
    def test_merge_is_partition_and_order_invariant(self, case):
        values, shards = case
        single = ExactSum()
        single.add_array(np.asarray(values, dtype=float))
        merged = ExactSum()
        for shard in shards:
            partial = ExactSum()
            for v in shard:  # scalar path on the shard side
                partial.add(v)
            merged.merge(partial)
        assert merged.value() == single.value()

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_FLOATS, min_size=0, max_size=2000))
    def test_add_array_equals_scalar_adds(self, values):
        # The vectorized segment fold (argsort + reduceat) must agree with
        # one-at-a-time frexp accumulation, bit for bit.
        vectored = ExactSum()
        vectored.add_array(np.asarray(values, dtype=float))
        scalar = ExactSum()
        for v in values:
            scalar.add(v)
        assert vectored.value() == scalar.value()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(_FLOATS, min_size=1, max_size=50))
    def test_value_is_correctly_rounded(self, values):
        # The big-int total rounds once at read time: it must equal the
        # arbitrary-precision sum rounded to float64 (math.fsum is exactly
        # that for in-range results).
        acc = ExactSum()
        acc.add_array(np.asarray(values, dtype=float))
        assert acc.value() == math.fsum(values)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ExactSum().add(float("nan"))
        with pytest.raises(ValueError):
            ExactSum().add_array(np.array([1.0, float("inf")]))


# -- chunk invariance of the accumulators built on ExactSum ------------------------------

_RATIOS = st.floats(min_value=1e-4, max_value=1e6, allow_nan=False)


class TestStreamingQuantilesChunking:
    @settings(max_examples=150, deadline=None)
    @given(_partitioned_values(elements=_RATIOS, max_size=80), st.integers(4, 64))
    def test_any_chunking_matches_one_batch(self, case, exact_limit):
        # Small exact_limit so Hypothesis crosses the exact→histogram
        # handoff inside a chunk, at a chunk boundary, or never.
        values, chunks = case
        single = StreamingQuantiles(exact_limit=exact_limit)
        single.add_many(np.asarray(values))
        chunked = StreamingQuantiles(exact_limit=exact_limit)
        for chunk in chunks:
            chunked.add_many(np.asarray(chunk))
        assert chunked.count == single.count
        if single.count:
            assert chunked.min == single.min
            assert chunked.max == single.max
            assert chunked.values() == single.values()
        else:
            assert all(math.isnan(v) for v in chunked.values().values())
        assert (chunked._exact is not None) == (single._exact is not None)


@st.composite
def _job_columns(draw, n_regions):
    """One chunk's worth of finished-job columns (possibly empty)."""
    n = draw(st.integers(min_value=0, max_value=25))
    region = draw(st.lists(st.integers(0, n_regions - 1), min_size=n, max_size=n))
    home = draw(st.lists(st.integers(0, n_regions - 1), min_size=n, max_size=n))
    considered = draw(st.lists(st.floats(0, 1e5), min_size=n, max_size=n))
    queue = draw(st.lists(st.floats(-10.0, 1e4), min_size=n, max_size=n))
    execution = draw(st.lists(st.floats(1.0, 1e4), min_size=n, max_size=n))
    wait = draw(st.lists(st.floats(0, 1e4), min_size=n, max_size=n))
    transfer = draw(st.lists(st.floats(0, 60.0), min_size=n, max_size=n))
    carbon = draw(st.lists(st.floats(0, 1e6), min_size=n, max_size=n))
    water = draw(st.lists(st.floats(0, 1e4), min_size=n, max_size=n))
    evict = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    considered = np.asarray(considered, dtype=float)
    execution = np.asarray(execution, dtype=float)
    start = considered + np.asarray(wait, dtype=float)
    return {
        "region_idx": np.asarray(region, dtype=np.int64),
        "home_idx": np.asarray(home, dtype=np.int64),
        "considered": considered,
        "ready": start - np.asarray(queue, dtype=float),
        "start": start,
        "finish": start + execution,
        "execution_time": execution,
        "transfer_latency": np.asarray(transfer, dtype=float),
        "carbon_g": np.asarray(carbon, dtype=float),
        "water_l": np.asarray(water, dtype=float),
        "evictions": np.asarray(evict, dtype=np.int64),
    }


@st.composite
def _chunked_jobs(draw):
    """(n_regions, chunks, batch): a job stream in chunks and in one batch.

    ``batch`` concatenates the chunks in a shuffled order, so the one-batch
    accumulator sees the jobs in another order as well as another chunking.
    """
    n_regions = draw(st.integers(min_value=1, max_value=4))
    chunks = draw(st.lists(_job_columns(n_regions), min_size=1, max_size=5))
    order = draw(st.permutations(range(len(chunks))))
    batch = {
        name: np.concatenate([chunks[i][name] for i in order]) for name in chunks[0]
    }
    return n_regions, chunks, batch


def _stats_figures(stats: RunningJobStats):
    return (
        stats.num_jobs,
        stats.carbon_g,
        stats.water_l,
        stats.service_ratio_sum,
        stats.queue_delay_sum,
        stats.transfer_sum,
        stats.execution_sum,
        stats.violations,
        stats.migrated,
        stats.evictions,
        tuple(stats.jobs_per_region.tolist()),
        tuple(
            (q, None if math.isnan(v) else v)  # NaN != NaN would mask equality
            for q, v in sorted(stats.service_ratio_quantiles().items())
        ),
    )


class TestRunningJobStatsChunking:
    @settings(max_examples=100, deadline=None)
    @given(_chunked_jobs())
    def test_any_chunking_matches_one_batch(self, case):
        n_regions, chunks, batch = case
        single = RunningJobStats(n_regions, delay_tolerance=0.5)
        single.add(**batch)
        chunked = RunningJobStats(n_regions, delay_tolerance=0.5)
        for chunk in chunks:
            chunked.add(**chunk)
        assert _stats_figures(chunked) == _stats_figures(single)


class TestRunningFootprintTotalsChunking:
    @settings(max_examples=100, deadline=None)
    @given(_chunked_jobs())
    def test_any_chunking_matches_one_batch(self, case):
        n_regions, chunks, batch = case
        single = RunningFootprintTotals(n_regions)
        single.add(batch["region_idx"], batch["carbon_g"], batch["water_l"])
        chunked = RunningFootprintTotals(n_regions)
        for chunk in chunks:
            chunked.add(chunk["region_idx"], chunk["carbon_g"], chunk["water_l"])
        assert chunked.jobs_integrated == single.jobs_integrated
        assert chunked.carbon_g_per_region.tolist() == single.carbon_g_per_region.tolist()
        assert chunked.water_l_per_region.tolist() == single.water_l_per_region.tolist()
        assert chunked.total_carbon_g == single.total_carbon_g
        assert chunked.total_water_l == single.total_water_l

"""Chunk-size invariance and streaming properties of the trace sources.

The streaming engine's determinism guarantee starts here: a
:class:`~repro.traces.stream.TraceSource` must yield *byte-identical* jobs at
any chunk size (the tentpole's {1, 7, 512, ∞} contract), in globally sorted
arrival order, and ``skip_jobs`` must reproduce the identical suffix (that is
what checkpoint resume replays).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.traces import AlibabaTraceGenerator, BorgTraceGenerator
from repro.traces.scenarios import available_scenarios, scenario_source, scenario_trace
from repro.traces.stream import ATTR_BLOCK, CHUNK_COLUMNS, ColumnSource, TraceView

#: Small per-family rates so every generation stays in the milliseconds.
_TEST_RATES = {
    "diurnal": 40.0,
    "bursty": 40.0,
    "heavy-tail": 40.0,
    "ml-training": 10.0,
    "region-skew": 40.0,
    "region-outage": 40.0,
    "autoscale-diurnal": 40.0,
    "capacity-flap": 40.0,
    "carbon-spike": 40.0,
    "forecast-shock": 40.0,
}

_CHUNK_SIZES = (1, 7, 512, None)  # None = one chunk of everything

_FIELDS = (
    "job_id",
    "arrival",
    "exec_est",
    "exec_real",
    "energy_est",
    "energy_real",
    "home_idx",
    "workload_idx",
    "package_gb",
    "servers",
)


def _concat(chunks, field):
    parts = [np.atleast_1d(getattr(chunk, field)) for chunk in chunks]
    return np.concatenate(parts) if parts else np.zeros(0)


def _stream_columns(source, chunk_size, skip_jobs=0):
    chunks = list(source.iter_chunks(chunk_size, skip_jobs=skip_jobs))
    return {field: _concat(chunks, field) for field in _FIELDS}


def _sources_under_test():
    for name in available_scenarios():
        yield name, scenario_source(
            name, seed=13, rate_per_hour=_TEST_RATES[name], duration_days=0.15
        )
    yield "borg", BorgTraceGenerator(rate_per_hour=40.0, duration_days=0.15, seed=13)
    yield "alibaba", AlibabaTraceGenerator(rate_per_hour=80.0, duration_days=0.15, seed=13)


class TestChunkSizeInvariance:
    @pytest.mark.parametrize("label,source", list(_sources_under_test()))
    def test_chunk_sizes_produce_identical_jobs(self, label, source):
        reference = _stream_columns(source, None)
        for chunk_size in _CHUNK_SIZES:
            columns = _stream_columns(source, chunk_size)
            for field in _FIELDS:
                np.testing.assert_array_equal(
                    columns[field], reference[field],
                    err_msg=f"{label}: field {field} differs at chunk_size={chunk_size}",
                )

    @pytest.mark.parametrize("label,source", list(_sources_under_test()))
    def test_chunks_are_time_ordered_with_sequential_ids(self, label, source):
        previous_last = -np.inf
        next_id = 0
        for chunk in source.iter_chunks(64):
            assert chunk.n > 0
            assert np.all(np.diff(chunk.arrival) >= 0.0)
            assert chunk.arrival[0] >= previous_last
            np.testing.assert_array_equal(
                chunk.job_id, np.arange(next_id, next_id + chunk.n)
            )
            previous_last = float(chunk.arrival[-1])
            next_id += chunk.n

    @pytest.mark.parametrize("label,source", list(_sources_under_test()))
    def test_skip_jobs_reproduces_the_suffix(self, label, source):
        full = _stream_columns(source, 64)
        n = len(full["job_id"])
        for skip in (0, 1, n // 2, n, n + 5):
            suffix = _stream_columns(source, 64, skip_jobs=skip)
            for field in _FIELDS:
                np.testing.assert_array_equal(suffix[field], full[field][skip:])

    def test_skip_can_cross_attribute_blocks(self):
        # A rate high enough that the stream spans several ATTR_BLOCK blocks.
        source = BorgTraceGenerator(rate_per_hour=2400.0, duration_days=0.3, seed=5)
        full = _stream_columns(source, 2048)
        assert len(full["job_id"]) > ATTR_BLOCK
        skip = ATTR_BLOCK + 17
        suffix = _stream_columns(source, 2048, skip_jobs=skip)
        for field in _FIELDS:
            np.testing.assert_array_equal(suffix[field], full[field][skip:])

    def test_invalid_parameters_rejected(self):
        source = BorgTraceGenerator(rate_per_hour=10.0, duration_days=0.1, seed=0)
        with pytest.raises(ValueError):
            list(source.iter_chunks(0))
        with pytest.raises(ValueError):
            list(source.iter_chunks(64, skip_jobs=-1))


class TestMaterialization:
    @pytest.mark.parametrize("name", available_scenarios())
    def test_materialize_matches_scenario_trace(self, name):
        source = scenario_source(
            name, seed=23, rate_per_hour=_TEST_RATES[name], duration_days=0.1
        )
        trace = scenario_trace(
            name, seed=23, rate_per_hour=_TEST_RATES[name], duration_days=0.1
        )
        materialized = source.materialize()
        assert materialized.name == trace.name == f"{name}-23"
        first = trace.to_columns()
        second = materialized.to_columns()
        assert first.keys() == second.keys()
        for key in first:
            if isinstance(first[key], tuple):
                assert first[key] == second[key]
            else:
                np.testing.assert_array_equal(first[key], second[key])

    def test_materialized_trace_keeps_jobs_lazy(self):
        source = scenario_source("diurnal", seed=1, rate_per_hour=30.0, duration_days=0.1)
        trace = source.materialize()
        assert trace._jobs is None, "columns alone until the object world asks"
        n = len(trace)  # length comes from the columns
        assert trace._jobs is None
        jobs = trace.jobs
        assert len(jobs) == n
        assert jobs[0].realized_execution_time > 0.0

    def test_trace_view_round_trips_a_materialized_trace(self):
        trace = scenario_trace("region-skew", seed=3, rate_per_hour=40.0, duration_days=0.1)
        view = TraceView(trace)
        assert view.trace_name == trace.name
        columns = _stream_columns(view, 17)
        np.testing.assert_array_equal(columns["job_id"], trace.to_columns()["job_id"])
        np.testing.assert_array_equal(
            columns["arrival"], trace.to_columns()["arrival_time"]
        )
        # Codes decode back to the trace's strings.
        chunk = next(view.iter_chunks(5))
        legacy = chunk.legacy_columns()
        assert legacy["home_region"] == trace.to_columns()["home_region"][:5]
        assert legacy["workload"] == trace.to_columns()["workload"][:5]

    def test_chunk_jobs_match_trace_jobs(self):
        source = scenario_source("ml-training", seed=2, duration_days=0.2)
        trace = source.materialize()
        jobs = [job for chunk in source.iter_chunks(16) for job in chunk.jobs()]
        assert [j.job_id for j in jobs] == [j.job_id for j in trace.jobs]
        assert all(
            a.home_region == b.home_region
            and a.execution_time == b.execution_time
            and a.realized_execution_time == b.realized_execution_time
            and a.servers_required == b.servers_required
            for a, b in zip(jobs, trace.jobs)
        )


class TestSeedProperties:
    @settings(max_examples=10, deadline=None)
    @given(
        name=st.sampled_from(available_scenarios()),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        chunk_size=st.sampled_from([3, 50, 700]),
    )
    def test_any_seed_any_chunking_is_invariant(self, name, seed, chunk_size):
        source = scenario_source(
            name, seed=seed, rate_per_hour=_TEST_RATES[name], duration_days=0.05
        )
        one = _stream_columns(source, None)
        other = _stream_columns(source, chunk_size)
        for field in _FIELDS:
            np.testing.assert_array_equal(one[field], other[field])


class TestSourceUtilities:
    def test_count_jobs_matches_materialized_length(self):
        source = scenario_source("diurnal", seed=9, rate_per_hour=30.0, duration_days=0.1)
        assert source.count_jobs() == len(source.materialize())

    def test_empty_source_materializes_empty_trace(self):
        source = TraceView(scenario_trace(
            "diurnal", seed=9, rate_per_hour=30.0, duration_days=0.1
        ).head(0))
        trace = source.materialize()
        assert len(trace) == 0
        assert trace.horizon_s == 0.0


def _bursty_column_source():
    """A bursty source and a ColumnSource over its concatenated chunk columns."""
    source = scenario_source("bursty", seed=13, rate_per_hour=40.0, duration_days=0.05)
    chunks = list(source.iter_chunks(8192))
    columns = {
        field: np.ascontiguousarray(
            np.concatenate([getattr(chunk, field) for chunk in chunks])
        )
        for field in CHUNK_COLUMNS
    }
    copy = ColumnSource(
        columns,
        region_keys=chunks[0].region_keys,
        workload_names=chunks[0].workload_names,
        name=source.name,
        seed=source.seed,
        horizon_s=source.horizon_s,
        label=source.label,
    )
    return source, copy


class TestColumnSource:
    @settings(max_examples=12, deadline=None)
    @given(chunk_size=st.integers(min_value=1, max_value=80))
    def test_restreamed_columns_are_byte_identical(self, chunk_size):
        # A workload assembled into columns once and re-streamed through a
        # ColumnSource yields chunks whose every column is byte-identical to
        # the generator's, at any chunk size.
        source, copy = _bursty_column_source()
        originals = list(source.iter_chunks(chunk_size))
        copies = list(copy.iter_chunks(chunk_size))
        assert len(originals) == len(copies)
        for original, chunk in zip(originals, copies):
            assert chunk.region_keys == original.region_keys
            assert chunk.workload_names == original.workload_names
            for field in CHUNK_COLUMNS:
                ours = np.asarray(getattr(chunk, field))
                theirs = np.asarray(getattr(original, field))
                assert ours.dtype == theirs.dtype, field
                assert ours.tobytes() == theirs.tobytes(), field
        assert copy.trace_name == source.trace_name


class TestMaterializedFidelity:
    def test_generated_jobs_keep_their_metadata(self):
        job = BorgTraceGenerator(rate_per_hour=20.0, duration_days=0.1, seed=0).generate().jobs[0]
        assert job.metadata["suite"] in ("parsec", "cloudsuite")
        assert job.metadata["generator"] == "borg-like"
        ml = scenario_trace("ml-training", seed=1, duration_days=0.3).jobs[0]
        assert ml.metadata == {"generator": "ml-training"}
        tail = scenario_trace(
            "heavy-tail", seed=1, rate_per_hour=40.0, duration_days=0.1
        ).jobs[0]
        assert tail.metadata["generator"] == "borg-like"  # provenance of the base

    def test_head_and_window_slice_columns_without_materializing(self):
        trace = scenario_source(
            "diurnal", seed=3, rate_per_hour=60.0, duration_days=0.2
        ).materialize()
        head = trace.head(5)
        assert head._jobs is None and len(head) == 5
        window = trace.window(0.0, 3600.0)
        assert window._jobs is None
        assert [j.job_id for j in window] == [
            j.job_id for j in trace if j.arrival_time < 3600.0
        ]
        # The metadata hook survives slicing; provenance is the generator's
        # own name, not the scenario relabel.
        assert head.jobs[0].metadata["generator"] == "borg-like"

    def test_declared_horizon_survives_materialization(self):
        source = scenario_source("diurnal", seed=7, rate_per_hour=2.0, duration_days=0.8)
        trace = source.materialize()
        assert trace.declared_horizon_s == source.horizon_s == 0.8 * 86_400.0
        assert trace.horizon_s <= trace.declared_horizon_s
        assert TraceView(trace).horizon_s == trace.declared_horizon_s

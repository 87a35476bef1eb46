"""Chunked trace sources: bounded-memory, chunk-size-invariant job streams.

The one-shot pipeline materializes a whole workload before simulating it —
``Trace`` holds every :class:`~repro.traces.job.Job`, ``JobArrays`` copies it
into columns — which caps runs at the trace that fits in memory.  This module
is the streaming counterpart: a :class:`TraceSource` yields the same workload
as a sequence of fixed-size, time-ordered :class:`JobChunk` columnar blocks,
so the engine only ever holds one chunk (plus the in-flight jobs) at a time.

Two invariants make streams interchangeable with materialized traces:

* **Chunk-size invariance** — a source yields *byte-identical* jobs at any
  chunk size (including "one chunk of everything").  Generators achieve this
  by deriving every random draw from absolute coordinates instead of call
  order: arrival times come from fixed one-hour *time slabs* (slab ``k`` is a
  pure function of ``(seed, k)``) and per-job attributes from fixed
  :data:`ATTR_BLOCK`-sized *job-index blocks* (block ``b`` covering absolute
  job indices ``[b·B, (b+1)·B)`` is a pure function of ``(seed, b)``).
  Chunking is mere re-batching of that deterministic stream.
* **Time order** — arrivals are globally sorted across chunks, so a consumer
  that has seen a chunk ending at arrival ``A`` knows every unseen job
  arrives at or after ``A`` (the streaming engine's safety watermark).

``skip_jobs`` supports resume-from-checkpoint: a source restarted with
``skip_jobs=n`` replays the identical stream minus its first ``n`` jobs, and
generators skip the attribute blocks that fall entirely inside the skipped
prefix instead of regenerating them.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterator

import numpy as np

from repro.traces.job import Job
from repro.traces.trace import Trace

__all__ = [
    "ATTR_BLOCK",
    "SLAB_S",
    "JobChunk",
    "TraceSource",
    "StreamingTraceGenerator",
    "TraceView",
    "ColumnSource",
    "BlockGather",
]

#: Chunk-format column names a :class:`ColumnSource` carries (the
#: :class:`JobChunk` array fields, in field order).
CHUNK_COLUMNS = (
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

#: Size of the job-index blocks attribute generation is keyed on.  Part of a
#: generator's deterministic output contract: changing it changes every
#: generated trace.
ATTR_BLOCK = 4096

#: Length of the arrival-time slabs (seconds).  Same contract as
#: :data:`ATTR_BLOCK`.
SLAB_S = 3600.0

#: Column names of the per-job attribute arrays a generator block produces.
ATTR_COLUMNS = (
    "exec_est",
    "exec_real",
    "energy_est",
    "energy_real",
    "home_idx",
    "workload_idx",
    "package_gb",
    "servers",
)


@dataclasses.dataclass(frozen=True)
class JobChunk:
    """A columnar block of consecutive jobs from a :class:`TraceSource`.

    All arrays share the same length; ``home_idx`` / ``workload_idx`` are
    integer codes into the chunk's ``region_keys`` / ``workload_names``
    vocabularies (every chunk of one source uses the same vocabularies).
    ``job_id`` equals the job's absolute index in the stream and ``arrival``
    is sorted within the chunk and across consecutive chunks.
    """

    region_keys: tuple[str, ...]
    workload_names: tuple[str, ...]
    job_id: np.ndarray
    arrival: np.ndarray
    exec_est: np.ndarray
    exec_real: np.ndarray
    energy_est: np.ndarray
    energy_real: np.ndarray
    home_idx: np.ndarray
    workload_idx: np.ndarray
    package_gb: np.ndarray
    servers: np.ndarray

    @property
    def n(self) -> int:
        return len(self.job_id)

    def legacy_columns(self) -> dict[str, np.ndarray | tuple]:
        """This chunk in :meth:`Trace.to_columns` format (string fields as tuples)."""
        return {
            "job_id": self.job_id,
            "arrival_time": self.arrival,
            "execution_time": self.exec_est,
            "realized_execution_time": self.exec_real,
            "energy_kwh": self.energy_est,
            "realized_energy_kwh": self.energy_real,
            "package_gb": self.package_gb,
            "servers_required": self.servers,
            "home_region": tuple(self.region_keys[i] for i in self.home_idx),
            "workload": tuple(self.workload_names[i] for i in self.workload_idx),
        }

    def jobs(self) -> list[Job]:
        """Materialize :class:`Job` objects (for the scalar world and tests)."""
        return [
            Job(
                job_id=int(self.job_id[i]),
                workload=self.workload_names[self.workload_idx[i]],
                arrival_time=float(self.arrival[i]),
                execution_time=float(self.exec_est[i]),
                energy_kwh=float(self.energy_est[i]),
                home_region=self.region_keys[self.home_idx[i]],
                package_gb=float(self.package_gb[i]),
                servers_required=int(self.servers[i]),
                true_execution_time=float(self.exec_real[i]),
                true_energy_kwh=float(self.energy_real[i]),
            )
            for i in range(self.n)
        ]


def _concat_columns(chunks: list[JobChunk]) -> dict[str, np.ndarray | tuple]:
    """Concatenate chunks of one source into one legacy column dictionary."""
    if not chunks:
        return {
            "job_id": np.zeros(0, dtype=np.int64),
            "arrival_time": np.zeros(0),
            "execution_time": np.zeros(0),
            "realized_execution_time": np.zeros(0),
            "energy_kwh": np.zeros(0),
            "realized_energy_kwh": np.zeros(0),
            "package_gb": np.zeros(0),
            "servers_required": np.zeros(0, dtype=np.int64),
            "home_region": (),
            "workload": (),
        }
    vocab = (chunks[0].region_keys, chunks[0].workload_names)
    for chunk in chunks:
        if (chunk.region_keys, chunk.workload_names) != vocab:
            raise ValueError("chunks of one source must share their vocabularies")
    columns: dict[str, np.ndarray | tuple] = {}
    first = chunks[0].legacy_columns()
    rest = [chunk.legacy_columns() for chunk in chunks[1:]]
    for name, column in first.items():
        if isinstance(column, tuple):
            merged: tuple = column
            for other in rest:
                merged = merged + other[name]
            columns[name] = merged
        else:
            columns[name] = np.concatenate([column, *(other[name] for other in rest)])
    return columns


class TraceSource:
    """Base class of chunked job streams.

    Subclasses provide ``name`` (family label), ``seed``, ``horizon_s`` (an
    upper bound on arrival times, used for dataset sizing) and
    :meth:`iter_chunks`.  Iterating is restartable: every
    :meth:`iter_chunks` call replays the identical stream from the
    beginning (minus ``skip_jobs``).
    """

    name: str = "stream"
    seed: int = 0
    horizon_s: float = 0.0
    #: Display relabel (e.g. the scenario family).  ``name`` stays the
    #: *provenance* label generators stamp into :meth:`job_metadata`, so a
    #: relabel is purely cosmetic.
    label: str | None = None

    @property
    def trace_name(self) -> str:
        """Name materialized traces (and results) carry."""
        return f"{self.label or self.name}-{int(self.seed)}"

    def iter_chunks(
        self, chunk_size: int | None = None, skip_jobs: int = 0
    ) -> Iterator[JobChunk]:
        """Yield the stream in blocks of ``chunk_size`` jobs (``None`` = all).

        ``skip_jobs`` drops the first jobs of the stream without changing the
        remainder (checkpoint resume).
        """
        raise NotImplementedError

    def job_metadata(self, workload: str) -> dict:
        """:attr:`Job.metadata` entries for a job of ``workload`` (provenance tags)."""
        return {}

    def materialize(self, name: str | None = None) -> Trace:
        """The whole stream as a :class:`Trace` (columns only, no ``Job`` list).

        The trace carries the source's declared horizon and metadata hook, so
        object-world consumers and resource sizing behave identically whether
        they hold the stream or the materialized trace.
        """
        columns = _concat_columns(list(self.iter_chunks()))
        return Trace.from_columns(
            columns,
            name=name or self.trace_name,
            horizon_hint_s=self.horizon_s,
            job_metadata=self.job_metadata,
        )

    def count_jobs(self) -> int:
        """Number of jobs in the stream (consumes one full, bounded-memory pass)."""
        return sum(chunk.n for chunk in self.iter_chunks(chunk_size=ATTR_BLOCK))


class TraceView(TraceSource):
    """A :class:`TraceSource` over an already-materialized :class:`Trace`."""

    def __init__(self, trace: Trace) -> None:
        self.trace = trace
        self.name = trace.name
        self.seed = 0
        self.horizon_s = trace.declared_horizon_s

    @property
    def trace_name(self) -> str:
        return self.trace.name

    def materialize(self, name: str | None = None) -> Trace:
        return self.trace

    def _vocabularies(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Region and workload vocabularies, computed once (the trace is immutable).

        Every chunk shares them; the per-job codes are mapped chunk by chunk,
        so no trace-sized code array outlives the chunk that needs it.
        """
        cached = getattr(self, "_vocab_cache", None)
        if cached is None:
            columns = self.trace.to_columns()
            cached = (
                tuple(dict.fromkeys(columns["home_region"])),
                tuple(dict.fromkeys(columns["workload"])),
            )
            self._vocab_cache = cached
        return cached

    def iter_chunks(
        self, chunk_size: int | None = None, skip_jobs: int = 0
    ) -> Iterator[JobChunk]:
        columns = self.trace.to_columns()
        n = len(columns["job_id"])
        region_keys, workload_names = self._vocabularies()
        region_code = {key: i for i, key in enumerate(region_keys)}.__getitem__
        workload_code = {name: i for i, name in enumerate(workload_names)}.__getitem__
        start = int(skip_jobs)
        if start < 0:
            raise ValueError("skip_jobs must be >= 0")
        size = n - start if chunk_size is None else int(chunk_size)
        if chunk_size is not None and size < 1:
            raise ValueError("chunk_size must be >= 1")
        while start < n:
            stop = n if chunk_size is None else min(start + size, n)
            yield JobChunk(
                region_keys=region_keys,
                workload_names=workload_names,
                job_id=np.asarray(columns["job_id"][start:stop], dtype=np.int64),
                arrival=columns["arrival_time"][start:stop],
                exec_est=columns["execution_time"][start:stop],
                exec_real=columns["realized_execution_time"][start:stop],
                energy_est=columns["energy_kwh"][start:stop],
                energy_real=columns["realized_energy_kwh"][start:stop],
                home_idx=np.fromiter(
                    map(region_code, columns["home_region"][start:stop]),
                    dtype=np.int64, count=stop - start,
                ),
                workload_idx=np.fromiter(
                    map(workload_code, columns["workload"][start:stop]),
                    dtype=np.int64, count=stop - start,
                ),
                package_gb=columns["package_gb"][start:stop],
                servers=np.asarray(columns["servers_required"][start:stop], dtype=np.int64),
            )
            start = stop


class ColumnSource(TraceSource):
    """A :class:`TraceSource` over pre-assembled chunk-format column arrays.

    The arrays are used as-is — no copies — so the columns may be views into
    a ``multiprocessing.shared_memory`` segment: the parallel sweep fabric
    packs a workload's columns once and every worker process streams
    zero-copy slices of the shared buffer instead of regenerating the trace.
    ``trace_name`` metadata is carried explicitly so results are labelled
    exactly like the originating generator's.

    The caller must keep the backing buffer alive (and, for shared memory,
    attached) for as long as chunks from this source are in use.
    """

    def __init__(
        self,
        columns: dict[str, np.ndarray],
        region_keys: tuple[str, ...],
        workload_names: tuple[str, ...],
        name: str = "columns",
        seed: int = 0,
        horizon_s: float = 0.0,
        label: str | None = None,
    ) -> None:
        missing = set(CHUNK_COLUMNS) - set(columns)
        if missing:
            raise ValueError(f"columns missing chunk fields: {sorted(missing)}")
        n = len(columns["job_id"])
        for field in CHUNK_COLUMNS:
            if len(columns[field]) != n:
                raise ValueError(f"column {field!r} length differs from job_id's")
        self._columns = columns
        self._n = n
        self.region_keys = tuple(region_keys)
        self.workload_names = tuple(workload_names)
        self.name = name
        self.seed = int(seed)
        self.horizon_s = float(horizon_s)
        self.label = label

    def count_jobs(self) -> int:
        return self._n

    def iter_chunks(
        self, chunk_size: int | None = None, skip_jobs: int = 0
    ) -> Iterator[JobChunk]:
        start = int(skip_jobs)
        if start < 0:
            raise ValueError("skip_jobs must be >= 0")
        if chunk_size is not None and int(chunk_size) < 1:
            raise ValueError("chunk_size must be >= 1")
        n = self._n
        size = n - start if chunk_size is None else int(chunk_size)
        columns = self._columns
        while start < n:
            stop = n if chunk_size is None else min(start + size, n)
            yield JobChunk(
                region_keys=self.region_keys,
                workload_names=self.workload_names,
                **{field: columns[field][start:stop] for field in CHUNK_COLUMNS},
            )
            start = stop


class BlockGather:
    """Sequential gather over :data:`ATTR_BLOCK`-keyed attribute blocks.

    ``block_fn(b)`` must return a dict of equal-length (:data:`ATTR_BLOCK`)
    arrays for job-index block ``b`` as a pure function of ``b``.  The gather
    caches the most recent block, which is all a sorted stream ever needs.
    """

    def __init__(self, block_fn: Callable[[int], dict[str, np.ndarray]]) -> None:
        self._block_fn = block_fn
        self._index: int | None = None
        self._block: dict[str, np.ndarray] | None = None

    def rows(self, start: int, stop: int) -> dict[str, np.ndarray]:
        """Attribute rows for absolute job indices ``[start, stop)``."""
        parts: dict[str, list[np.ndarray]] = {}
        i = int(start)
        stop = int(stop)
        while i < stop:
            b = i // ATTR_BLOCK
            if self._index != b:
                self._block = self._block_fn(b)
                self._index = b
            lo = i - b * ATTR_BLOCK
            hi = min(stop - b * ATTR_BLOCK, ATTR_BLOCK)
            for key, column in self._block.items():
                parts.setdefault(key, []).append(column[lo:hi])
            i = b * ATTR_BLOCK + hi
        return {
            key: (blocks[0] if len(blocks) == 1 else np.concatenate(blocks))
            for key, blocks in parts.items()
        }


class StreamingTraceGenerator(TraceSource):
    """Generator base: slab-wise arrivals + block-wise attributes → chunks.

    Subclass contract (beyond :class:`TraceSource`):

    * :meth:`_arrival_slabs` — iterator of sorted per-slab arrival arrays
      whose concatenation is globally sorted; slab ``k`` must be a pure
      function of the generator's parameters and ``k``;
    * :meth:`_attribute_block` — per-job attribute arrays
      (:data:`ATTR_COLUMNS`, length :data:`ATTR_BLOCK`) for job-index block
      ``b``, a pure function of the generator's parameters and ``b``;
    * ``chunk_region_keys`` / ``chunk_workload_names`` — the code
      vocabularies the attribute blocks index into.
    """

    chunk_region_keys: tuple[str, ...] = ()
    chunk_workload_names: tuple[str, ...] = ()

    def _arrival_slabs(self) -> Iterator[np.ndarray]:
        raise NotImplementedError

    def _attribute_block(self, block_index: int) -> dict[str, np.ndarray]:
        raise NotImplementedError

    # -- streaming --------------------------------------------------------------------
    def iter_chunks(
        self, chunk_size: int | None = None, skip_jobs: int = 0
    ) -> Iterator[JobChunk]:
        if chunk_size is not None and int(chunk_size) < 1:
            raise ValueError("chunk_size must be >= 1")
        skip = int(skip_jobs)
        if skip < 0:
            raise ValueError("skip_jobs must be >= 0")
        size = None if chunk_size is None else int(chunk_size)
        gather = BlockGather(self._attribute_block)
        region_keys = tuple(self.chunk_region_keys)
        workload_names = tuple(self.chunk_workload_names)

        buffered: list[dict[str, np.ndarray]] = []
        count = 0

        def build(rows: dict[str, np.ndarray]) -> JobChunk:
            return JobChunk(
                region_keys=region_keys,
                workload_names=workload_names,
                job_id=rows["job_id"],
                arrival=rows["arrival"],
                exec_est=rows["exec_est"],
                exec_real=rows["exec_real"],
                energy_est=rows["energy_est"],
                energy_real=rows["energy_real"],
                home_idx=rows["home_idx"].astype(np.int64, copy=False),
                workload_idx=rows["workload_idx"].astype(np.int64, copy=False),
                package_gb=rows["package_gb"],
                servers=rows["servers"].astype(np.int64, copy=False),
            )

        def merge() -> dict[str, np.ndarray]:
            if len(buffered) == 1:
                return buffered[0]
            return {
                key: np.concatenate([part[key] for part in buffered])
                for key in buffered[0]
            }

        next_id = 0
        for slab in self._arrival_slabs():
            n = len(slab)
            if n == 0:
                continue
            first_id = next_id
            next_id += n
            if next_id <= skip:
                continue  # fully inside the skipped prefix: no attribute work
            if first_id < skip:
                cut = skip - first_id
                slab = slab[cut:]
                first_id += cut
            rows = gather.rows(first_id, first_id + len(slab))
            rows["job_id"] = np.arange(first_id, first_id + len(slab), dtype=np.int64)
            rows["arrival"] = np.asarray(slab, dtype=float)
            buffered.append(rows)
            count += len(slab)
            while size is not None and count >= size:
                merged = merge()
                head = {key: column[:size] for key, column in merged.items()}
                tail = {key: column[size:] for key, column in merged.items()}
                yield build(head)
                count -= size
                buffered = [tail] if count else []
        if count:
            yield build(merge())

"""Fused multi-policy runner: one trace pass, K policies in lockstep.

Every figure in the paper's evaluation compares N sustainability-aware
policies over the *same* workload, yet a per-cell sweep simulates each
(workload × policy) pair independently — regenerating, re-columnizing and
re-ingesting the identical trace N times.  :class:`MultiPolicyRunner` drives
one chunked :class:`~repro.traces.stream.TraceSource` through K independent
:class:`~repro.cluster.streaming.StreamingSimulator` engine states in
lockstep:

* trace generation / columnization happens **once per chunk** instead of
  once per policy (each engine ingests the shared :class:`JobChunk` views —
  chunk arrays are read-only from the engines' perspective);
* the sustainability dataset, footprint prefix-integrals and transfer-model
  propagation matrices are built **once** and shared by every engine (the
  engines only read them);
* every policy still owns its engine state and scheduler, so decisions,
  results and digests are *identical* to running each policy through its own
  :class:`StreamingSimulator` — the differential harness enforces digest
  equality registry-wide.

Memory stays O(K × (chunk + active jobs)) in ``collect="aggregate"`` mode,
so a fused sweep inherits the streaming engine's bounded-memory guarantee.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

from repro.cluster.interface import Scheduler
from repro.cluster.streaming import (
    CHECKPOINT_FORMAT,
    StreamingSimulator,
    atomic_pickle_dump,
)

__all__ = ["MultiPolicyRunner"]


class MultiPolicyRunner:
    """Run several policies over one chunk stream, sharing the workload pass.

    Parameters
    ----------
    source:
        Chunked trace source (any object with ``iter_chunks`` /
        ``horizon_s``; a materialized trace can be wrapped in
        :class:`~repro.traces.stream.TraceView`).
    schedulers:
        ``{label: scheduler}`` mapping or ``[(label, scheduler)]`` sequence;
        labels key the result dictionary (duplicate labels are rejected).
    dataset / engine_kwargs:
        Forwarded to every engine.  When ``dataset`` is omitted the first
        engine's auto-built dataset is shared by all of them, so every policy
        sees identical intensities — the paper's "identical conditions"
        methodology.  ``kernel=`` rides along like any engine knob: a fused
        sweep can run every policy on the ``vector`` or the ``scalar``
        kernel, and :meth:`kernel_stats` surfaces the per-policy telemetry.
    chunk_size:
        Jobs per shared chunk (results are chunk-size-invariant).
    collect:
        ``"full"`` (per-policy :class:`~repro.cluster.batch.BatchResult`) or
        ``"aggregate"`` (bounded-memory
        :class:`~repro.cluster.streaming.StreamResult`).
    """

    def __init__(
        self,
        source,
        schedulers: Mapping[str, Scheduler] | Sequence[tuple[str, Scheduler]],
        dataset=None,
        chunk_size: int = 4096,
        collect: str = "aggregate",
        **engine_kwargs,
    ) -> None:
        if isinstance(schedulers, Mapping):
            pairs = list(schedulers.items())
        else:
            pairs = [(str(label), scheduler) for label, scheduler in schedulers]
        if not pairs:
            raise ValueError("MultiPolicyRunner needs at least one scheduler")
        labels = [label for label, _ in pairs]
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate scheduler labels: {sorted(labels)}")
        self.source = source
        self.chunk_size = int(chunk_size)
        self.engines: dict[str, StreamingSimulator] = {}
        for label, scheduler in pairs:
            engine = StreamingSimulator(
                source,
                scheduler,
                dataset=dataset,
                chunk_size=chunk_size,
                collect=collect,
                **engine_kwargs,
            )
            if dataset is None:
                # Auto-built once; every subsequent engine shares it (and the
                # footprint calculator's prefix-integral caches warm for all).
                # Share the *pre-chaos* input dataset: each engine applies its
                # own (deterministic, identical) signal-shock factors, so a
                # chaotic fused run never double-scales intensities.
                dataset = engine.input_dataset
            self.engines[label] = engine

    @property
    def labels(self) -> list[str]:
        return list(self.engines)

    def kernel_stats(self) -> dict[str, dict | None]:
        """Per-policy event-kernel telemetry (``None`` for unstarted engines).

        Counters accumulate as :meth:`run` advances, so this can be sampled
        mid-sweep; after finalize the same payloads are also on each
        result's ``kernel_stats``.
        """
        stats: dict[str, dict | None] = {}
        for label, engine in self.engines.items():
            if engine.state is None:
                stats[label] = None
            else:
                payload = engine.state.kernel_stats.as_dict()
                payload["kernel"] = engine.kernel
                stats[label] = payload
        return stats

    def run(self) -> dict[str, object]:
        """Stream the source once, advancing every engine per chunk.

        Returns ``{label: result}`` with the same result objects the
        per-policy engines would produce (``BatchResult`` for
        ``collect="full"``, ``StreamResult`` for ``"aggregate"``).
        """
        self.run_chunks()
        return self.finalize()

    def run_chunks(self, max_chunks: int | None = None) -> int:
        """Advance up to ``max_chunks`` shared chunks (all remaining if ``None``).

        The fused counterpart of
        :meth:`StreamingSimulator.run_chunks <repro.cluster.streaming.StreamingSimulator.run_chunks>`:
        chunks are pulled starting after the jobs the (lockstepped) states
        have already seen, so the same call pattern works for fresh runs and
        resumed checkpoints — the shard fabric uses it to run a shard
        ``checkpoint_every`` chunks at a time.  Returns the number of chunks
        consumed.
        """
        engines = list(self.engines.values())
        for engine in engines:
            if engine.state is None:
                engine.init_state()
        consumed = 0
        if max_chunks is not None and max_chunks <= 0:
            return consumed
        for chunk in self.source.iter_chunks(
            self.chunk_size, skip_jobs=engines[0].state.jobs_seen
        ):
            for engine in engines:
                engine.advance(chunk)
            consumed += 1
            if max_chunks is not None and consumed >= max_chunks:
                break
        return consumed

    def finalize(self) -> dict[str, object]:
        """Finalize every engine; ``{label: result}`` (see :meth:`run`)."""
        return {label: engine.finalize() for label, engine in self.engines.items()}

    # -- checkpointing -----------------------------------------------------------------
    def save_checkpoint(self, path, extra: dict | None = None) -> None:
        """Pickle every engine's state + scheduler (+ caller metadata) to ``path``.

        The fused analogue of
        :meth:`StreamingSimulator.save_checkpoint <repro.cluster.streaming.StreamingSimulator.save_checkpoint>`:
        one file carries the lockstepped states of all K policies, so a
        resumed run (or a re-dispatched shard) continues every policy from
        the same chunk boundary.  The source and dataset are reconstruction
        parameters the resuming caller must supply, exactly as for
        single-engine checkpoints.
        """
        for label, engine in self.engines.items():
            if engine.state is None:
                raise RuntimeError(
                    f"nothing to checkpoint: engine {label!r} has no state"
                )
        first = next(iter(self.engines.values()))
        payload = {
            "format": CHECKPOINT_FORMAT,
            "multi": True,
            "states": {label: engine.state for label, engine in self.engines.items()},
            "schedulers": {
                label: engine.scheduler for label, engine in self.engines.items()
            },
            "config": {
                "servers_per_region": dict(first._servers),
                "scheduling_interval_s": first.scheduling_interval_s,
                "delay_tolerance": first.delay_tolerance,
                "include_embodied": first.footprints.include_embodied,
                "max_rounds": first.max_rounds,
                "chunk_size": first.chunk_size,
                "collect": first.collect,
                "reservoir_size": first.reservoir_size,
                "reservoir_seed": first.reservoir_seed,
                "kernel": first.kernel,
                "chaos": first.chaos,
                "chaos_seed": first.chaos_seed,
            },
            "extra": dict(extra or {}),
        }
        atomic_pickle_dump(path, payload)

    @classmethod
    def from_checkpoint(
        cls,
        path,
        source,
        dataset=None,
        regions=None,
        latency=None,
        server=None,
        **overrides,
    ) -> "MultiPolicyRunner":
        """Rebuild a fused runner mid-run from a :meth:`save_checkpoint` file.

        Same contract as
        :meth:`StreamingSimulator.from_checkpoint <repro.cluster.streaming.StreamingSimulator.from_checkpoint>`:
        ``source``/``dataset`` must reproduce the original workload and
        intensities, and only non-semantic knobs (``chunk_size``,
        ``max_rounds``, ``kernel``) may be overridden.
        """
        payload = StreamingSimulator.load_checkpoint(path)
        return cls.from_checkpoint_payload(
            payload,
            source,
            dataset=dataset,
            regions=regions,
            latency=latency,
            server=server,
            **overrides,
        )

    @classmethod
    def from_checkpoint_payload(
        cls,
        payload: dict,
        source,
        dataset=None,
        regions=None,
        latency=None,
        server=None,
        **overrides,
    ) -> "MultiPolicyRunner":
        """:meth:`from_checkpoint` over an already-loaded payload dict.

        The shard fabric reads the checkpoint once (it also needs the
        ``extra`` metadata) and rebuilds the runner from the same payload.
        """
        allowed = {"chunk_size", "max_rounds", "kernel"}
        refused = set(overrides) - allowed
        if refused:
            raise ValueError(
                f"cannot override {sorted(refused)} on resume: the checkpointed "
                f"engine state depends on them (overridable: {sorted(allowed)})"
            )
        if not payload.get("multi"):
            raise ValueError("payload is not a fused multi-policy checkpoint")
        config = dict(payload["config"])
        config.update(overrides)
        chunk_size = config.pop("chunk_size")
        collect = config.pop("collect")
        if regions is not None:
            config["regions"] = regions
        if latency is not None:
            config["latency"] = latency
        if server is not None:
            config["server"] = server
        runner = cls(
            source,
            list(payload["schedulers"].items()),
            dataset=dataset,
            chunk_size=chunk_size,
            collect=collect,
            **config,
        )
        for label, engine in runner.engines.items():
            state = payload["states"][label]
            if state.region_keys != engine._keys_tuple:
                raise ValueError(
                    "checkpoint was taken over regions "
                    f"{state.region_keys} but the engine simulates {engine._keys_tuple}"
                )
            engine.state = state
        return runner

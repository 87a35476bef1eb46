"""Chaos & elasticity: deterministic time-varying capacity and signal shocks.

Every scenario before this module varied *arrivals* only — region server
counts and sustainability signals were frozen for the length of a run.  The
:class:`ClusterTimeline` makes both first-class time-varying inputs, as a
chunk-invariant, slab-keyed event stream in the exact mould of the arrival
processes (:mod:`repro.traces.arrival`): the horizon is cut into
:data:`~repro.traces.arrival.SLAB_S`-second slabs and every draw inside slab
``k`` is a pure function of ``(seed, stream tag, k)``.  However a consumer
chunks or resumes the run, the same capacity events replay byte-identically —
chaos is just another deterministic event stream.

Three families of *capacity* events compose into one per-region capacity
function ``capacity_r(t)``:

* **outages** — Poisson per-region failures that zero the region's capacity
  for ``outage_duration_s`` and then restore it (the recovery event is always
  emitted, even past the horizon, so outage/recovery pairs are well-formed),
* **capacity flaps** — short partial degradations that keep only
  ``flap_fraction`` of the capacity, and
* **autoscale** — a deterministic (RNG-free) stepped diurnal curve
  ``1 + amplitude · sin(2π t / period)`` sampled every ``autoscale_step_s``.

``capacity_r(t) = max(0, round(baseline_r · autoscale(t) · Π active
multipliers))`` — evaluated only at the region's breakpoints (interval edges
and autoscale steps), with no-op transitions dropped, and materialized into
``(when, region)``-sorted event arrays the engines consume cursor-style
(``EngineState.timeline_pos`` is part of the checkpoint).

Two families of *signal* events never touch capacity:

* **carbon/water spikes** — per-region hourly multipliers on the true
  sustainability signals (accounting *and* decisions see them), and
* **forecast-error injection** — per-hour multiplicative noise applied to the
  *decision* dataset only, so policies act on wrong signals while footprints
  are integrated against the truth.

When a region shrinks below its running load the :class:`ChaosSpec` decides
the semantics, policy-visibly:

* ``eviction="evict"`` — running jobs are killed newest-first (descending
  ``(start, seq)``; within one region the event kernels agree on that order
  by contract) until the region fits, their partial busy-seconds are
  accounted, their ``evictions`` counter increments and they are requeued
  with their original ``considered`` time.  An outage (capacity 0) also
  kicks the FIFO-queued jobs back to the scheduler.
* ``eviction="drain"`` — running and queued jobs keep their servers; ``free``
  goes negative and no new work starts until enough finishes accumulate.
  The event kernel's clean-region prefix-sum proof sees the negative free
  count and falls back to the scalar replay, so correctness is structural,
  not hoped-for.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Sequence

import numpy as np

from repro._validation import ensure_non_negative, ensure_positive
from repro.traces.arrival import _slab_bounds, _slab_rng

__all__ = [
    "CHAOS_SPECS",
    "ChaosSpec",
    "ClusterTimeline",
    "apply_capacity_step",
    "available_chaos",
    "get_chaos",
]

#: Entropy tag separating timeline streams from every arrival stream.
_TIMELINE_TAG = 0x71A317
#: Sub-stream tags (outages, flaps, signal spikes, forecast noise).
_OUTAGE_STREAM = 1
_FLAP_STREAM = 2
_SPIKE_STREAM = 3
_FORECAST_STREAM = 4

_SECONDS_PER_DAY = 86_400.0


@dataclasses.dataclass(frozen=True)
class ChaosSpec:
    """Declarative description of one chaos scenario (all streams optional).

    A rate of ``0`` disables the corresponding stream, so a spec with every
    rate (and ``autoscale_amplitude`` / ``forecast_error``) at zero is a
    no-chaos run.  Instances are frozen and picklable — checkpoints store the
    spec itself so a resume rebuilds the identical timeline.
    """

    name: str = "custom"
    #: Per-region outage arrivals (Poisson, per day); capacity drops to 0.
    outage_rate_per_day: float = 0.0
    outage_duration_s: float = 1800.0
    #: Per-region partial degradations (Poisson, per day).
    flap_rate_per_day: float = 0.0
    flap_duration_s: float = 600.0
    #: Fraction of capacity *retained* during a flap.
    flap_fraction: float = 0.5
    #: Stepped diurnal autoscale curve (0 disables; RNG-free).
    autoscale_amplitude: float = 0.0
    autoscale_period_s: float = 86_400.0
    autoscale_step_s: float = 1800.0
    #: Per-region carbon/water spikes (Poisson, per day) on the true signals.
    carbon_spike_rate_per_day: float = 0.0
    spike_duration_s: float = 7200.0
    carbon_spike_factor: float = 3.0
    water_spike_factor: float = 1.0
    #: Uniform(±error) multiplicative noise on the *decision* signals only.
    forecast_error: float = 0.0
    #: What happens to running jobs when capacity drops below the load.
    eviction: str = "evict"

    def __post_init__(self) -> None:
        if self.eviction not in ("evict", "drain"):
            raise ValueError(
                f"eviction must be 'evict' or 'drain', got {self.eviction!r}"
            )
        ensure_non_negative(self.outage_rate_per_day, "outage_rate_per_day")
        ensure_non_negative(self.flap_rate_per_day, "flap_rate_per_day")
        ensure_non_negative(self.carbon_spike_rate_per_day, "carbon_spike_rate_per_day")
        ensure_positive(self.outage_duration_s, "outage_duration_s")
        ensure_positive(self.flap_duration_s, "flap_duration_s")
        ensure_positive(self.spike_duration_s, "spike_duration_s")
        ensure_positive(self.autoscale_period_s, "autoscale_period_s")
        ensure_positive(self.autoscale_step_s, "autoscale_step_s")
        ensure_positive(self.carbon_spike_factor, "carbon_spike_factor")
        ensure_positive(self.water_spike_factor, "water_spike_factor")
        if not 0.0 <= self.flap_fraction < 1.0:
            raise ValueError(f"flap_fraction must be in [0, 1), got {self.flap_fraction}")
        if not 0.0 <= self.autoscale_amplitude < 1.0:
            raise ValueError(
                f"autoscale_amplitude must be in [0, 1), got {self.autoscale_amplitude}"
            )
        if not 0.0 <= self.forecast_error < 1.0:
            raise ValueError(
                f"forecast_error must be in [0, 1), got {self.forecast_error}"
            )

    @property
    def has_capacity_events(self) -> bool:
        return (
            self.outage_rate_per_day > 0.0
            or self.flap_rate_per_day > 0.0
            or self.autoscale_amplitude > 0.0
        )


#: The built-in chaos family, mirrored by the scenario registry
#: (``repro.traces.scenarios``) and the CLI's ``--chaos`` choices.
CHAOS_SPECS: dict[str, ChaosSpec] = {
    "region-outage": ChaosSpec(
        name="region-outage", outage_rate_per_day=4.0, outage_duration_s=1800.0
    ),
    "capacity-flap": ChaosSpec(
        name="capacity-flap",
        flap_rate_per_day=24.0,
        flap_duration_s=600.0,
        flap_fraction=0.5,
        eviction="drain",
    ),
    "autoscale-diurnal": ChaosSpec(
        name="autoscale-diurnal", autoscale_amplitude=0.4, autoscale_step_s=1800.0
    ),
    "carbon-spike": ChaosSpec(
        name="carbon-spike",
        carbon_spike_rate_per_day=8.0,
        spike_duration_s=7200.0,
        carbon_spike_factor=3.0,
        water_spike_factor=2.0,
    ),
    "forecast-shock": ChaosSpec(name="forecast-shock", forecast_error=0.35),
}

_FLOAT_FIELDS = {
    field.name: field.type for field in dataclasses.fields(ChaosSpec)
    if field.name not in ("name", "eviction")
}


def available_chaos() -> tuple[str, ...]:
    """Sorted names of the built-in chaos specs."""
    return tuple(sorted(CHAOS_SPECS))


def get_chaos(spec: "str | ChaosSpec") -> ChaosSpec:
    """Resolve a chaos spec: an instance, a registry name, or ``k=v,...`` text.

    The textual form (the CLI's ``--chaos``) sets :class:`ChaosSpec` fields by
    name, e.g. ``"outage_rate_per_day=8,outage_duration_s=900,eviction=drain"``;
    unset fields keep their (inactive) defaults.
    """
    if isinstance(spec, ChaosSpec):
        return spec
    name = str(spec).strip()
    key = name.lower()
    if key in CHAOS_SPECS:
        return CHAOS_SPECS[key]
    if "=" not in name:
        raise KeyError(
            f"unknown chaos spec {spec!r}; choose one of {', '.join(available_chaos())} "
            "or pass field=value pairs (e.g. 'outage_rate_per_day=8,eviction=drain')"
        )
    kwargs: dict[str, object] = {"name": "custom"}
    for part in name.split(","):
        part = part.strip()
        if not part:
            continue
        field, _, value = part.partition("=")
        field = field.strip()
        value = value.strip()
        if field in ("name", "eviction"):
            kwargs[field] = value
        elif field in _FLOAT_FIELDS:
            kwargs[field] = float(value)
        else:
            raise KeyError(f"unknown ChaosSpec field {field!r} in chaos spec {spec!r}")
    return ChaosSpec(**kwargs)


class ClusterTimeline:
    """Materialized, deterministic capacity/signal event stream for one run.

    Parameters
    ----------
    spec:
        The :class:`ChaosSpec` (or registry name) to realize.
    region_keys:
        Region order; event ``region`` indices refer to it.
    baseline:
        Per-region baseline server counts (the static ``servers_per_region``).
    horizon_s:
        Workload horizon; chaos events are drawn over ``[0, horizon_s)``
        (recovery events may land past it so pairs stay well-formed).
    seed:
        Chaos seed; independent of the trace seed so the same workload can be
        replayed under different fault schedules.
    """

    def __init__(
        self,
        spec: "str | ChaosSpec",
        region_keys: Sequence[str],
        baseline: Sequence[int] | np.ndarray,
        horizon_s: float,
        seed: int = 0,
    ) -> None:
        self.spec = get_chaos(spec)
        self.region_keys = tuple(region_keys)
        self.baseline = np.asarray(baseline, dtype=np.int64).copy()
        if len(self.baseline) != len(self.region_keys):
            raise ValueError("baseline must have one server count per region")
        self.horizon_s = ensure_non_negative(float(horizon_s), "horizon_s")
        self.seed = int(seed)
        self._build_events(self.capacity_intervals())

    # -- slab-keyed generation ----------------------------------------------------------
    def _intervals(
        self, stream: int, rate_per_day: float, duration_s: float,
        multiplier: float, slab_chunk: int | None,
    ) -> list[tuple[int, float, float, float]]:
        """``(region, start, end, multiplier)`` intervals of one Poisson stream.

        Slab ``k`` draws from ``_slab_rng((seed, tag, stream), k)`` — count
        vector first, then the start times region by region — so the output
        is a pure function of the slab index.  ``slab_chunk`` only groups the
        slab iteration (the property suite proves grouping in {1, 7, 512, ∞}
        is byte-identical, i.e. there is no hidden cross-slab state).
        """
        if rate_per_day <= 0.0:
            return []
        n_regions = len(self.region_keys)
        entropy = (self.seed, _TIMELINE_TAG, stream)
        out: list[tuple[int, float, float, float]] = []
        bounds = list(_slab_bounds(self.horizon_s))
        chunk = len(bounds) if slab_chunk is None else max(1, int(slab_chunk))
        for lo in range(0, len(bounds), chunk):
            for k, start, end in bounds[lo:lo + chunk]:
                rng = _slab_rng(entropy, k)
                counts = rng.poisson(
                    rate_per_day * (end - start) / _SECONDS_PER_DAY, size=n_regions
                )
                for region in range(n_regions):
                    if not counts[region]:
                        continue
                    starts = np.sort(rng.uniform(start, end, size=counts[region]))
                    for s in starts.tolist():
                        out.append((region, s, s + duration_s, multiplier))
        return out

    def capacity_intervals(
        self, slab_chunk: int | None = None
    ) -> list[tuple[int, float, float, float]]:
        """All capacity-degrading intervals (outages then flaps), slab order."""
        spec = self.spec
        return self._intervals(
            _OUTAGE_STREAM, spec.outage_rate_per_day, spec.outage_duration_s,
            0.0, slab_chunk,
        ) + self._intervals(
            _FLAP_STREAM, spec.flap_rate_per_day, spec.flap_duration_s,
            spec.flap_fraction, slab_chunk,
        )

    def signal_intervals(
        self, slab_chunk: int | None = None
    ) -> list[tuple[int, float, float, float]]:
        """Carbon/water spike intervals (multiplier column carries the carbon factor)."""
        spec = self.spec
        return self._intervals(
            _SPIKE_STREAM, spec.carbon_spike_rate_per_day, spec.spike_duration_s,
            spec.carbon_spike_factor, slab_chunk,
        )

    def _autoscale_factor(self, t: float) -> float:
        spec = self.spec
        if spec.autoscale_amplitude == 0.0:
            return 1.0
        step = math.floor(t / spec.autoscale_step_s) * spec.autoscale_step_s
        return 1.0 + spec.autoscale_amplitude * math.sin(
            2.0 * math.pi * step / spec.autoscale_period_s
        )

    def _build_events(self, intervals: list[tuple[int, float, float, float]]) -> None:
        """Compose intervals + autoscale into ``(when, region)``-sorted events."""
        spec = self.spec
        n_regions = len(self.region_keys)
        breakpoints: list[set[float]] = [set() for _ in range(n_regions)]
        per_region: list[list[tuple[float, float, float]]] = [[] for _ in range(n_regions)]
        for region, s, e, mult in intervals:
            breakpoints[region].add(s)
            breakpoints[region].add(e)
            per_region[region].append((s, e, mult))
        if spec.autoscale_amplitude > 0.0:
            n_steps = int(math.ceil(self.horizon_s / spec.autoscale_step_s))
            steps = [j * spec.autoscale_step_s for j in range(1, n_steps)]
            for region in range(n_regions):
                breakpoints[region].update(steps)

        records: list[tuple[float, int, int]] = []
        for region in range(n_regions):
            cap = int(self.baseline[region])
            for t in sorted(breakpoints[region]):
                mult = 1.0
                for s, e, m in per_region[region]:
                    if s <= t < e:
                        mult *= m
                scaled = self.baseline[region] * self._autoscale_factor(t) * mult
                new_cap = max(0, int(math.floor(scaled + 0.5)))
                if new_cap != cap:
                    records.append((t, region, new_cap))
                    cap = new_cap
        records.sort()
        self.event_when = np.array([r[0] for r in records], dtype=float)
        self.event_region = np.array([r[1] for r in records], dtype=np.int64)
        self.event_capacity = np.array([r[2] for r in records], dtype=np.int64)
        self.n_events = len(records)

    # -- derived views ------------------------------------------------------------------
    def degraded_seconds(self) -> np.ndarray:
        """Per-region time within ``[0, horizon_s]`` spent below baseline capacity."""
        degraded = np.zeros(len(self.region_keys))
        horizon = self.horizon_s
        prev_t = np.zeros(len(self.region_keys))
        prev_cap = self.baseline.astype(float).copy()
        for when, region, cap in zip(
            self.event_when.tolist(), self.event_region.tolist(),
            self.event_capacity.tolist(),
        ):
            if prev_cap[region] < self.baseline[region]:
                degraded[region] += max(
                    0.0, min(when, horizon) - min(prev_t[region], horizon)
                )
            prev_t[region] = when
            prev_cap[region] = cap
        below = prev_cap < self.baseline
        degraded[below] += np.maximum(0.0, horizon - np.minimum(prev_t[below], horizon))
        return degraded

    def signal_factor_arrays(
        self, n_hours: int
    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Hourly carbon/water spike multipliers per region key.

        An hour is affected when any spike interval overlaps it; overlapping
        spikes multiply.  Regions with no spike are omitted, so a run without
        spikes keeps the original dataset object (byte-identical signals).
        """
        spec = self.spec
        carbon: dict[str, np.ndarray] = {}
        water: dict[str, np.ndarray] = {}
        if spec.carbon_spike_rate_per_day <= 0.0 or n_hours <= 0:
            return carbon, water
        for region, s, e, _ in self.signal_intervals():
            key = self.region_keys[region]
            if key not in carbon:
                carbon[key] = np.ones(n_hours)
                water[key] = np.ones(n_hours)
            first = max(0, int(math.floor(s / 3600.0)))
            last = min(n_hours, int(math.ceil(e / 3600.0)))
            carbon[key][first:last] *= spec.carbon_spike_factor
            water[key][first:last] *= spec.water_spike_factor
        return carbon, water

    def forecast_factor_arrays(
        self, n_hours: int
    ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Hourly forecast-noise multipliers (decision signals only).

        Hour ``h`` draws from ``_slab_rng((seed, tag, stream), h)`` — one
        ``(n_regions, 2)`` uniform block — so the noise is chunk-invariant
        like everything else on the timeline.
        """
        err = self.spec.forecast_error
        if err <= 0.0 or n_hours <= 0:
            return {}, {}
        n_regions = len(self.region_keys)
        entropy = (self.seed, _TIMELINE_TAG, _FORECAST_STREAM)
        carbon = np.ones((n_regions, n_hours))
        water = np.ones((n_regions, n_hours))
        for h in range(int(n_hours)):
            u = _slab_rng(entropy, h).uniform(-1.0, 1.0, size=(n_regions, 2))
            carbon[:, h] = 1.0 + err * u[:, 0]
            water[:, h] = 1.0 + err * u[:, 1]
        return (
            {key: carbon[i] for i, key in enumerate(self.region_keys)},
            {key: water[i] for i, key in enumerate(self.region_keys)},
        )

    def stats(self) -> dict:
        """Summary used by the engines' ``chaos_stats`` result attribute."""
        degraded = self.degraded_seconds()
        return {
            "chaos": self.spec.name,
            "eviction": self.spec.eviction,
            "capacity_events": int(self.n_events),
            "degraded_seconds": {
                key: float(degraded[i]) for i, key in enumerate(self.region_keys)
            },
        }


def apply_capacity_step(
    queue,
    t: float,
    regions: np.ndarray,
    new_caps: np.ndarray,
    *,
    evict: bool,
    capacity: np.ndarray,
    free: np.ndarray,
    committed: np.ndarray,
    busy_seconds: np.ndarray,
    queues: list,
    job_servers: np.ndarray,
    exec_real: np.ndarray,
    region_idx: np.ndarray,
    start: np.ndarray,
    finish: np.ndarray,
    assigned: np.ndarray,
    ready: np.ndarray,
    transfer: np.ndarray,
    evictions: np.ndarray,
) -> list[int]:
    """Apply one timestamp's capacity events to live engine state.

    Kept apart from the engine so the semantics live in one place: the
    caller has already processed every job event at or before ``t`` (the
    engine segments its event windows at capacity breakpoints),
    ``regions``/``new_caps``
    are this timestamp's events in ascending region order, and ``queue`` is
    the live :class:`~repro.cluster.events.EventQueue` (pending FINISH events
    are exactly the running jobs).

    Capacity *up* admits FIFO-queued jobs immediately, in queue order, exactly
    like the kernel's finish-time admission.  Capacity *down* under
    ``evict=True`` kills running jobs newest-first — descending ``(start,
    seq)``, an order both kernels agree on within one region — until the
    region fits, and an outage (capacity 0) also requeues the FIFO queue.
    Under ``evict=False`` (drain) the region simply runs over capacity until
    finishes catch up; ``free`` goes negative, which the clean-region proof
    treats as contended.  Returns the requeued slots, in deterministic order,
    for the caller to put back in its pending set (``considered`` and
    ``deferrals`` survive; assignment state is reset and ``evictions``
    incremented).
    """
    requeued: list[int] = []
    admit_when: list[float] = []
    admit_seq: list[int] = []
    admit_slot: list[int] = []
    for region, new_cap in zip(regions.tolist(), new_caps.tolist()):
        delta = int(new_cap) - int(capacity[region])
        if delta == 0:
            continue
        capacity[region] = new_cap
        free[region] += delta
        fifo = queues[region]
        if delta > 0:
            while fifo and free[region] >= fifo[0][1]:
                slot, srv = fifo.popleft()
                free[region] -= srv
                start[slot] = t
                seq = queue.sequence
                queue.sequence = seq + 1
                admit_when.append(t + float(exec_real[slot]))
                admit_seq.append(seq)
                admit_slot.append(slot)
            continue
        if not evict:
            continue
        if free[region] < 0:
            positions = np.flatnonzero(region_idx[queue.finish_slot] == region)
            cand_slot = queue.finish_slot[positions]
            order = np.lexsort((queue.finish_seq[positions], start[cand_slot]))
            keep = np.ones(len(queue.finish_when), dtype=bool)
            pos = len(order) - 1
            while free[region] < 0 and pos >= 0:
                i = int(order[pos])
                pos -= 1
                slot = int(cand_slot[i])
                srv = int(job_servers[slot])
                free[region] += srv
                committed[region] -= srv
                busy_seconds[region] += srv * (t - float(start[slot]))
                keep[positions[i]] = False
                _reset_slot(slot, region_idx, start, finish, assigned, ready, transfer)
                evictions[slot] += 1
                requeued.append(slot)
            if not keep.all():
                queue.finish_when = queue.finish_when[keep]
                queue.finish_seq = queue.finish_seq[keep]
                queue.finish_slot = queue.finish_slot[keep]
        if new_cap == 0:
            while fifo:
                slot, srv = fifo.popleft()
                committed[region] -= srv
                _reset_slot(slot, region_idx, start, finish, assigned, ready, transfer)
                evictions[slot] += 1
                requeued.append(slot)
    if admit_slot:
        queue._push_finish_arrays(
            np.array(admit_when),
            np.array(admit_seq, dtype=np.int64),
            np.array(admit_slot, dtype=np.int64),
        )
    return requeued


def _reset_slot(
    slot: int,
    region_idx: np.ndarray,
    start: np.ndarray,
    finish: np.ndarray,
    assigned: np.ndarray,
    ready: np.ndarray,
    transfer: np.ndarray,
) -> None:
    """Return an evicted/requeued job to its pre-assignment state."""
    region_idx[slot] = -1
    start[slot] = -1.0
    finish[slot] = -1.0
    assigned[slot] = 0.0
    ready[slot] = 0.0
    transfer[slot] = 0.0

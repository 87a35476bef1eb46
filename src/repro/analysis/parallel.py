"""Sweep points: the grid model, deterministic seeding and workload recipes.

The evaluation studies (delay-tolerance sweeps, utilization sweeps, weight
sensitivity, trace robustness, …) are grids of independent simulations.
This module expands a parameter grid into self-describing
:class:`SweepPoint`\\ s and derives a *content-based* deterministic seed for
each point; :func:`repro.analysis.fabric.run_sweep` runs them.  It also
holds the recipes every sweep path shares — a point's trace source, dataset
and chaos spec — and :func:`_run_point`, the per-cell oracle the tests
compare the sweep against.

Determinism guarantees (enforced by ``tests/analysis/test_parallel.py``):

* a point's seed depends only on its *workload-shaping* parameters
  (:data:`WORKLOAD_PARAMS`) and the sweep's base seed — not on grid order,
  worker count, transport, or policy-side knobs, so every policy in a
  sweep is evaluated against the identical workload;
* ``run_sweep`` returns outcomes in the order of its input points on every
  transport, so ``run_sweep(points, transport="inprocess")`` and
  ``run_sweep(points, workers=8)`` are element-wise identical.

Workers rebuild traces and datasets from the point's parameters (cheap
relative to simulation), so only small parameter/summary payloads cross
process boundaries; shards of one workload reuse a module-level LRU-cached
source instead of regenerating it.
"""

from __future__ import annotations

import collections
import dataclasses
import itertools
import zlib
from collections.abc import Iterable, Mapping, Sequence

from repro.traces.scenarios import available_scenarios

__all__ = ["SweepPoint", "SweepOutcome", "derive_seed", "expand_grid"]

_TRACE_KINDS = ("borg", "alibaba")


def _known_trace_kinds() -> tuple[str, ...]:
    """Valid ``SweepPoint.trace_kind`` values: classic generators + scenarios."""
    return _TRACE_KINDS + available_scenarios()


@dataclasses.dataclass(frozen=True)
class SweepPoint:
    """One fully specified simulation in a sweep (hashable and picklable).

    ``scheduler_kwargs`` is a tuple of ``(name, value)`` pairs so the point
    stays hashable; :func:`expand_grid` converts mappings automatically.
    ``seed`` seeds both the trace generator and the sustainability dataset.
    """

    scheduler: str = "baseline"
    scheduler_kwargs: tuple[tuple[str, object], ...] = ()
    trace_kind: str = "borg"
    #: ``None`` keeps the scenario family's natural rate/length (scenario
    #: trace kinds only — the classic generators have no family defaults).
    rate_per_hour: float | None = 40.0
    duration_days: float | None = 0.25
    delay_tolerance: float = 0.25
    servers_per_region: int = 20
    scheduling_interval_s: float = 300.0
    include_embodied: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        known = _known_trace_kinds()
        if self.trace_kind not in known:
            raise ValueError(f"trace_kind must be one of {known}, got {self.trace_kind!r}")
        if self.trace_kind in _TRACE_KINDS and (
            self.rate_per_hour is None or self.duration_days is None
        ):
            raise ValueError(
                "rate_per_hour/duration_days of None (scenario family default) "
                f"are only valid for scenario trace kinds, not {self.trace_kind!r}"
            )

    def label(self) -> str:
        """Short human-readable identifier for reports."""
        rate = "auto" if self.rate_per_hour is None else f"{self.rate_per_hour:g}"
        return (
            f"{self.scheduler}@{self.trace_kind}"
            f"/tol={self.delay_tolerance:g}/rate={rate}"
            f"/seed={self.seed}"
        )


@dataclasses.dataclass(frozen=True)
class SweepOutcome:
    """Small, picklable result of one sweep point.

    ``digest`` is the CRC32 aggregate fingerprint of the point's result.
    Every ``run_sweep`` outcome carries its shard's ``StreamResult.digest()``,
    identical on every transport, worker count and shard layout.  The
    per-cell :func:`_run_point` oracle fills it from ``BatchResult.digest``
    instead (``None`` on the scalar engine, which has no digest); the two
    digests cover different payloads, so compare like with like.
    """

    point: SweepPoint
    summary: dict[str, float | str | int]
    total_carbon_g: float
    total_water_l: float
    mean_service_ratio: float
    violation_fraction: float
    num_jobs: int
    digest: int | None = None


#: Parameters that shape the generated workload (trace + dataset).  Seeds are
#: derived from these alone: two points differing only in policy-side knobs
#: (scheduler, tolerance, …) share a seed and therefore replay the
#: *same* jobs against the *same* intensities — the "identical conditions"
#: methodology every savings comparison in the paper rests on.
WORKLOAD_PARAMS = ("trace_kind", "rate_per_hour", "duration_days")


def derive_seed(base_seed: int, **params: object) -> int:
    """Deterministic, content-based seed for one grid point.

    Hashes the canonical ``repr`` of the sorted workload-shaping parameter
    items (:data:`WORKLOAD_PARAMS`; other keyword arguments are ignored)
    with CRC32 — stable across processes and Python invocations, unlike
    ``hash`` — and folds in ``base_seed``.  Two sweeps with the same base
    seed therefore simulate identical workloads regardless of grid order,
    worker count, or which policy-side parameters accompany the point.
    """
    workload = {name: params[name] for name in WORKLOAD_PARAMS if name in params}
    canonical = repr(sorted(workload.items())).encode("utf-8")
    return (zlib.crc32(canonical) ^ (int(base_seed) & 0xFFFFFFFF)) & 0x7FFFFFFF


def expand_grid(
    base_seed: int = 0,
    **param_lists: Sequence[object] | object,
) -> list[SweepPoint]:
    """Expand keyword parameter lists into the cross-product of sweep points.

    Every keyword accepts either a single value or a sequence of values
    (strings count as single values); the cross-product is taken over the
    sequence-valued parameters.  ``scheduler_kwargs`` values may be mappings.

    Examples
    --------
    >>> points = expand_grid(
    ...     scheduler=["baseline", "round-robin"],
    ...     delay_tolerance=[0.0, 0.25, 0.5],
    ...     rate_per_hour=40.0,
    ... )
    >>> len(points)
    6
    """
    field_names = {field.name for field in dataclasses.fields(SweepPoint)}
    unknown = set(param_lists) - (field_names - {"seed"})
    if unknown:
        raise TypeError(f"unknown sweep parameters: {sorted(unknown)}")

    def as_choices(value: object) -> list[object]:
        if isinstance(value, (str, bytes, Mapping)):
            return [value]
        if isinstance(value, Iterable):
            return list(value)
        return [value]

    defaults = {
        field.name: field.default for field in dataclasses.fields(SweepPoint)
    }
    names = list(param_lists)
    choice_lists = [as_choices(param_lists[name]) for name in names]
    points = []
    for combo in itertools.product(*choice_lists):
        params = dict(zip(names, combo))
        kwargs = params.get("scheduler_kwargs", ())
        if isinstance(kwargs, Mapping):
            params["scheduler_kwargs"] = tuple(sorted(kwargs.items()))
        # Missing workload parameters fall back to the SweepPoint defaults so
        # the derived seed does not depend on whether they were spelled out.
        workload = {name: params.get(name, defaults[name]) for name in WORKLOAD_PARAMS}
        seed = derive_seed(base_seed, **workload)
        points.append(SweepPoint(seed=seed, **params))
    return points


#: Workload signature → source/trace LRU of the workloads this process has
#: simulated recently.  A sweep runs every policy against identical
#: workloads (the seed derivation guarantees it), so shards and oracle cells
#: of one workload hit this cache instead of re-generating the trace —
#: sweep memory and generation time no longer scale with
#: ``n_policies × n_jobs``.  A process runs one shard at a time, so the
#: cache needs no lock.  Bounded to :data:`_WORKLOAD_CACHE_SIZE` workloads —
#: a long sweep over many workloads evicts the least recently used entry
#: instead of growing without limit.
_WORKLOAD_CACHE: "collections.OrderedDict[tuple, dict]" = collections.OrderedDict()
_WORKLOAD_CACHE_SIZE = 4


def _workload_key(point: SweepPoint) -> tuple:
    return (point.trace_kind, point.rate_per_hour, point.duration_days, point.seed)


def _build_source(point: SweepPoint):
    from repro.traces.alibaba import AlibabaTraceGenerator
    from repro.traces.borg import BorgTraceGenerator
    from repro.traces.scenarios import scenario_source

    if point.trace_kind in _TRACE_KINDS:
        generator_cls = (
            BorgTraceGenerator if point.trace_kind == "borg" else AlibabaTraceGenerator
        )
        return generator_cls(
            rate_per_hour=point.rate_per_hour,
            duration_days=point.duration_days,
            seed=point.seed,
        )
    return scenario_source(
        point.trace_kind,
        seed=point.seed,
        rate_per_hour=point.rate_per_hour,
        duration_days=point.duration_days,
    )


def _workload_entry(point: SweepPoint) -> dict:
    key = _workload_key(point)
    entry = _WORKLOAD_CACHE.get(key)
    if entry is None:
        entry = {"source": _build_source(point), "trace": None}
        _WORKLOAD_CACHE[key] = entry
        while len(_WORKLOAD_CACHE) > _WORKLOAD_CACHE_SIZE:
            _WORKLOAD_CACHE.popitem(last=False)
    else:
        _WORKLOAD_CACHE.move_to_end(key)
    return entry


def _point_source(point: SweepPoint):
    """The chunked trace source of one sweep point (LRU-cached per process)."""
    return _workload_entry(point)["source"]


def _point_trace(point: SweepPoint):
    """The materialized trace of one sweep point (LRU-cached per process)."""
    entry = _workload_entry(point)
    if entry["trace"] is None:
        entry["trace"] = entry["source"].materialize()
    return entry["trace"]


def _point_dataset(point: SweepPoint, source):
    """The sweep point's sustainability dataset (same recipe for all paths)."""
    import math

    from repro.sustainability.datasets import ElectricityMapsLikeProvider

    duration_days = (
        point.duration_days
        if point.duration_days is not None
        else source.horizon_s / 86_400.0
    )
    horizon_hours = max(int(math.ceil(duration_days * 24)) + 48, 72)
    return ElectricityMapsLikeProvider(horizon_hours=horizon_hours, seed=point.seed)


def _point_chaos(point: SweepPoint) -> str | None:
    """The chaos spec attached to the point's scenario family (if any)."""
    if point.trace_kind in _TRACE_KINDS:
        return None
    from repro.traces.scenarios import get_scenario

    return get_scenario(point.trace_kind).chaos


def _run_point(point: SweepPoint, engine: str = "batch") -> SweepOutcome:
    """Simulate one sweep point on its own engine: the sweep's test oracle.

    ``engine`` is ``"batch"`` (the array engine's one-shot front) or
    ``"scalar"`` (the event-at-a-time reference).  ``run_sweep`` never calls
    this; the tests compare its fused shards against it.
    """
    from repro.cluster.simulator import Simulator
    from repro.cluster.streaming import BatchSimulator
    from repro.schedulers.registry import make_scheduler

    if engine not in ("batch", "scalar"):
        raise ValueError(f"engine must be 'batch' or 'scalar', got {engine!r}")
    engine_cls = BatchSimulator if engine == "batch" else Simulator
    result = engine_cls(
        trace=_point_trace(point),
        scheduler=make_scheduler(point.scheduler, **dict(point.scheduler_kwargs)),
        dataset=_point_dataset(point, _point_source(point)),
        servers_per_region=point.servers_per_region,
        scheduling_interval_s=point.scheduling_interval_s,
        delay_tolerance=point.delay_tolerance,
        include_embodied=point.include_embodied,
        chaos=_point_chaos(point),
        chaos_seed=point.seed,
    ).run()
    return _outcome_from_result(point, result)


def _outcome_from_result(point: SweepPoint, result) -> SweepOutcome:
    digest = result.digest() if hasattr(result, "digest") else None
    return SweepOutcome(
        point=point,
        summary=result.summary(),
        total_carbon_g=result.total_carbon_g,
        total_water_l=result.total_water_l,
        mean_service_ratio=result.mean_service_ratio,
        violation_fraction=result.violation_fraction,
        num_jobs=result.num_jobs,
        digest=digest,
    )


#: SweepPoint fields that define a *fusable cell group*: points agreeing on
#: all of these (i.e. differing only in the policy and its kwargs) can run
#: through one MultiPolicyRunner pass — one shard lineage of the fabric.
_FUSE_FIELDS = (
    "trace_kind", "rate_per_hour", "duration_days", "delay_tolerance",
    "servers_per_region", "scheduling_interval_s", "include_embodied", "seed",
)


def _fuse_key(point: SweepPoint) -> tuple:
    return tuple(getattr(point, name) for name in _FUSE_FIELDS)

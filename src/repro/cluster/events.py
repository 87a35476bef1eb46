"""Array-batched event kernel shared by the batch and streaming engines.

Both simulation engines used to drive their discrete-event core through a
Python ``heapq`` of ``(when, kind, seq, slot)`` tuples — one pop, one tuple
compare and a handful of scalar array reads *per event*, which at a million
jobs (two events each) dominates the non-decision runtime.  This module
replaces the heap with an :class:`EventQueue` that keeps the pending READY
and FINISH events in NumPy arrays sorted by ``(when, seq)`` and processes a
whole *round window* (all events up to the next scheduling round) at once.

The window kernel exploits that regions are independent inside the event
loop — queues, free servers, committed counts and busy-second accounting
never couple two regions between scheduling rounds — and splits the window
per region:

* **Clean regions** (FIFO queue empty at the window start, and a per-region
  prefix-sum over the window's server deltas — applying same-time events in
  the heap's order, finishes before readies — proves free capacity never
  binds): every ready job provably starts at its ready time, so starts,
  finishes, busy seconds, committed/free updates and the finished-slot list
  are computed as vectorized segment operations.  No per-event Python.
* **Prefix regions** (capacity binds *somewhere* in the window, but the
  queue is empty at the window start): the prefix sum identifies the
  region's *first binding point* — the earliest ``(when, seq)`` at which a
  READY would overdraw free capacity.  Everything strictly before that
  point in heap order is provably clean and is applied with the same
  vectorized machinery; only the residue from the binding point on is
  replayed.  When the replay drains every FIFO queue the kernel re-tests
  the remaining events and iterates, so a brief contention burst pays
  scalar cost only for the burst, not the whole window.
* **Conveyor regions** (contended, but with enough window events to
  amortize a per-region setup): the FIFO start *order* of a region's
  residue is known up front, so only start *times* remain — computed by
  the classic ordered-workload recursion over a min-heap of server
  release times (:func:`_conveyor`).  Three C-level ``heapq`` calls per
  start instead of a full event replay, with all NumPy bookkeeping pooled
  across regions.
* **Contended regions** (non-empty queue at the window start, or a prefix
  too short to be worth splitting, below the conveyor's event floor):
  their events are replayed through the *classic* heap loop, operation
  for operation identical to the pre-kernel engines (finishes before
  readies at equal times, sequenced pushes, FIFO admission).

Callers can additionally force regions onto the replay path through the
``contended`` mask; the prefix-sum proof itself is already structurally
safe under time-varying capacity (a drained region running over its
shrunken capacity shows up as a negative free count the prefix sum
rejects, and the engines cut windows at every capacity breakpoint so
capacity is constant inside a window), so the engines no longer need it.

The clean path only fires when it is provably equivalent to the replay, and
the replay *is* the original algorithm, so per-job regions, start/finish/
ready times, deferrals and footprints — everything ``BatchResult.digest()``
hashes — are byte-identical either way.  The registry-wide differential
harness enforces this.  The engines therefore run two kernels: the
production ``kernel="vector"`` (clean prefixes, then the conveyor, then a
replay of whatever is left) and the reference ``kernel="scalar"``, which
replays every event (used by differential tests and as the benchmark
baseline).

Sequence numbers keep their engine-level contract: commits assign one
``seq`` per READY push in commit order, starts one ``seq`` per FINISH push.
Sequence *order* only ever breaks ties between same-region events (distinct
regions cannot interact), and within a region every path assigns sequence
numbers in the region's own causal order, so equal-time FIFO tie-breaking
is preserved exactly.

The finished list is canonical across kernels: every path records
``(when, region, seq)`` per finish and the window close sorts once on that
key before extending the caller's list.  ``when`` and ``region`` are job
properties; within a region the *relative* seq order equals the region's
causal start order on every kernel, chunking and checkpoint layout — so
all kernels, chunk sizes and resume points emit the identical flush order.
(Plain ``(when, seq)`` would not be canonical: the absolute seq a start
receives depends on how the kernels interleave *cross-region* work, so a
cross-region tie at an equal float finish time could flip between
kernels.)
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

__all__ = ["EventQueue", "KernelStats", "process_until"]

#: Event kinds, ordered like the legacy heap tuples (finishes pop first at
#: equal times).  Values mirror ``simulator._EVENT_FINISH`` / ``_EVENT_READY``.
KIND_FINISH = 0
KIND_READY = 1

_EMPTY_F = np.zeros(0)
_EMPTY_I = np.zeros(0, dtype=np.int64)

#: Segmentation tunables.  A prefix shorter than ``_MIN_PREFIX_EVENTS`` is
#: not worth the fixed cost of a vectorized apply — the region replays
#: whole.  An early-exit (queues drained mid-replay) only pays off when the
#: residue left is at least ``_MIN_RESIDUE_EVENTS``; and a window never
#: runs more than ``_MAX_SEGMENT_PASSES`` verdict passes before the last
#: residue is replayed to completion.
_MIN_PREFIX_EVENTS = 24
_MIN_RESIDUE_EVENTS = 64
_MAX_SEGMENT_PASSES = 6
#: A region's residue only takes the conveyor path when it holds at least
#: this many window events — below that the pooled heap replay's per-event
#: cost undercuts the conveyor's fixed per-region setup.
_MIN_CONVEYOR_EVENTS = 32


@dataclass
class KernelStats:
    """Per-run event-kernel telemetry.

    Counters are cumulative over every window a run processes; the streaming
    engine checkpoints them on :class:`~repro.cluster.streaming.EngineState`
    so a resumed run keeps counting where it left off.  ``clean_events``
    counts events applied through the vectorized clean/prefix machinery,
    ``conveyor_events`` events through the server-release conveyor (a
    release-time heap instead of a full event replay) and
    ``replayed_events`` events through the Python heap replay.
    """

    windows: int = 0
    clean_events: int = 0
    conveyor_events: int = 0
    replayed_events: int = 0
    prefix_segments: int = 0
    segment_passes: int = 0
    early_exits: int = 0

    @property
    def total_events(self) -> int:
        return self.clean_events + self.conveyor_events + self.replayed_events

    @property
    def vector_fraction(self) -> float:
        """Fraction of events that never touched a per-event Python loop."""
        total = self.total_events
        return self.clean_events / total if total else 0.0

    def as_dict(self) -> dict:
        return {
            "windows": self.windows,
            "clean_events": self.clean_events,
            "conveyor_events": self.conveyor_events,
            "replayed_events": self.replayed_events,
            "prefix_segments": self.prefix_segments,
            "segment_passes": self.segment_passes,
            "early_exits": self.early_exits,
            "vector_fraction": self.vector_fraction,
        }


def _merge_sorted(
    when: np.ndarray, seq: np.ndarray, slot: np.ndarray,
    new_when: np.ndarray, new_seq: np.ndarray, new_slot: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge a push batch into ``(when, seq)``-sorted pending arrays.

    Every push batch the engines produce carries sequence numbers assigned
    from the queue's monotone counter *after* everything already pending —
    so all new seqs exceed all pending seqs, and within the batch seqs
    ascend in batch order.  That invariant reduces the merge to a single
    ``searchsorted`` on ``when`` with ``side="right"`` (equal-time new
    events land after pending ones, which is exactly their seq order): a
    linear scatter instead of the former O(n log n) re-sort of the whole
    queue per push.  The batch itself is verified sorted by ``when`` and
    stably sorted only when it is not (overflow finishes arrive in start
    order, not finish order).
    """
    if len(new_when) == 0:
        return when, seq, slot
    if len(new_when) > 1 and np.any(new_when[1:] < new_when[:-1]):
        order = np.argsort(new_when, kind="stable")
        new_when = new_when[order]
        new_seq = new_seq[order]
        new_slot = new_slot[order]
    if len(when) == 0:
        return new_when, new_seq, new_slot
    if new_when[0] >= when[-1]:
        return (
            np.concatenate([when, new_when]),
            np.concatenate([seq, new_seq]),
            np.concatenate([slot, new_slot]),
        )
    n, m = len(when), len(new_when)
    new_pos = np.searchsorted(when, new_when, side="right") + np.arange(
        m, dtype=np.intp
    )
    old = np.ones(n + m, dtype=bool)
    old[new_pos] = False
    out_when = np.empty(n + m, dtype=when.dtype)
    out_seq = np.empty(n + m, dtype=seq.dtype)
    out_slot = np.empty(n + m, dtype=slot.dtype)
    out_when[old] = when
    out_seq[old] = seq
    out_slot[old] = slot
    out_when[new_pos] = new_when
    out_seq[new_pos] = new_seq
    out_slot[new_pos] = new_slot
    return out_when, out_seq, out_slot


class EventQueue:
    """Pending READY/FINISH events as ``(when, seq)``-sorted NumPy arrays.

    Plain arrays plus an integer sequence counter, so the queue pickles —
    it is part of the streaming engine's checkpointable
    :class:`~repro.cluster.streaming.EngineState`.
    """

    def __init__(self) -> None:
        self.ready_when = _EMPTY_F
        self.ready_seq = _EMPTY_I
        self.ready_slot = _EMPTY_I
        self.finish_when = _EMPTY_F
        self.finish_seq = _EMPTY_I
        self.finish_slot = _EMPTY_I
        self.sequence = 0

    def __len__(self) -> int:
        return len(self.ready_when) + len(self.finish_when)

    def push_ready_batch(self, when: np.ndarray, slots: np.ndarray) -> None:
        """Queue READY events, assigning sequence numbers in the given order.

        The order of ``slots`` is the commit order — it decides equal-time
        FIFO tie-breaking exactly like consecutive ``heappush`` calls did.
        """
        n = len(slots)
        if n == 0:
            return
        seq = np.arange(self.sequence, self.sequence + n, dtype=np.int64)
        self.sequence += n
        self.ready_when, self.ready_seq, self.ready_slot = _merge_sorted(
            self.ready_when, self.ready_seq, self.ready_slot,
            np.asarray(when, dtype=float), seq, np.asarray(slots, dtype=np.int64),
        )

    def _push_finish_arrays(
        self, when: np.ndarray, seq: np.ndarray, slots: np.ndarray
    ) -> None:
        self.finish_when, self.finish_seq, self.finish_slot = _merge_sorted(
            self.finish_when, self.finish_seq, self.finish_slot, when, seq, slots
        )


def process_until(
    queue: EventQueue,
    limit: float,
    *,
    servers: np.ndarray,
    exec_real: np.ndarray,
    region_of: np.ndarray,
    start: np.ndarray,
    finish: np.ndarray,
    free: np.ndarray,
    committed: np.ndarray,
    busy_seconds: np.ndarray,
    queues: list,
    finished: list | None,
    use_fast: bool = True,
    contended: np.ndarray | None = None,
    stats: KernelStats | None = None,
) -> float:
    """Process every event at or before ``limit``; returns the max finish time.

    ``servers`` / ``exec_real`` / ``region_of`` / ``start`` / ``finish`` are
    slot-indexed job columns (mutated in place for started/finished jobs);
    ``free`` / ``committed`` / ``busy_seconds`` / ``queues`` are the
    per-region state.  ``finished`` (when not ``None``) receives the
    finished slots in the canonical ``(when, region, seq)`` order — the same
    order on every kernel, chunk size and checkpoint layout.  ``contended``
    (a per-region bool mask) forces regions onto the replay path regardless
    of the clean proof; the engines no longer need it (capacity is constant
    inside a window) but the hook remains for tests.  ``stats`` (a
    :class:`KernelStats`) accumulates per-path event counters.  Returns
    ``-inf`` when nothing finished.
    """
    nf = int(np.searchsorted(queue.finish_when, limit, side="right"))
    nr = int(np.searchsorted(queue.ready_when, limit, side="right"))
    if nf == 0 and nr == 0:
        return -np.inf

    r_when = queue.ready_when[:nr]
    r_seq = queue.ready_seq[:nr]
    r_slot = queue.ready_slot[:nr]
    f_when = queue.finish_when[:nf]
    f_seq = queue.finish_seq[:nf]
    f_slot = queue.finish_slot[:nf]
    queue.ready_when = queue.ready_when[nr:]
    queue.ready_seq = queue.ready_seq[nr:]
    queue.ready_slot = queue.ready_slot[nr:]
    queue.finish_when = queue.finish_when[nf:]
    queue.finish_seq = queue.finish_seq[nf:]
    queue.finish_slot = queue.finish_slot[nf:]

    r_reg = region_of[r_slot]
    f_reg = region_of[f_slot]

    rec: list | None = [] if finished is not None else None
    makespan = -np.inf
    passes = 0
    if stats is not None:
        stats.windows += 1

    while len(r_when) or len(f_when):
        if use_fast:
            cut_when, cut_seq = _window_cuts(
                limit, r_when, r_seq, r_slot, r_reg, f_when, f_slot, f_reg,
                servers=servers, exec_real=exec_real, free=free, queues=queues,
                allow_split=passes < _MAX_SEGMENT_PASSES,
            )
            if contended is not None:
                cut_when[contended] = -np.inf
            if (cut_when != -np.inf).any():
                r_cut = cut_when[r_reg]
                r_take = (r_when < r_cut) | (
                    (r_when == r_cut) & (r_seq < cut_seq[r_reg])
                )
                f_take = f_when <= cut_when[f_reg]
                if r_take.any() or f_take.any():
                    span, resid = _apply_clean(
                        queue, limit, cut_when,
                        r_when[r_take], r_slot[r_take], r_reg[r_take],
                        f_when[f_take], f_seq[f_take], f_slot[f_take],
                        f_reg[f_take],
                        servers=servers, exec_real=exec_real, start=start,
                        finish=finish, free=free, committed=committed,
                        busy_seconds=busy_seconds, rec=rec,
                    )
                    makespan = max(makespan, span)
                    if stats is not None:
                        stats.clean_events += int(r_take.sum()) + int(
                            f_take.sum()
                        )
                        stats.prefix_segments += int(
                            np.isfinite(cut_when).sum()
                        )
                        stats.segment_passes += 1
                    r_keep = ~r_take
                    f_keep = ~f_take
                    r_when, r_seq, r_slot = (
                        r_when[r_keep], r_seq[r_keep], r_slot[r_keep]
                    )
                    r_reg = r_reg[r_keep]
                    f_when, f_seq, f_slot = (
                        f_when[f_keep], f_seq[f_keep], f_slot[f_keep]
                    )
                    f_reg = f_reg[f_keep]
                    if resid is not None:
                        rs_when, rs_seq, rs_slot, rs_reg = resid
                        f_when = np.concatenate([f_when, rs_when])
                        f_seq = np.concatenate([f_seq, rs_seq])
                        f_slot = np.concatenate([f_slot, rs_slot])
                        f_reg = np.concatenate([f_reg, rs_reg])
            if len(r_when) or len(f_when):
                conv = _conveyor(
                    queue, limit, r_when, r_seq, r_slot, r_reg,
                    f_when, f_seq, f_slot, f_reg,
                    servers=servers, exec_real=exec_real, start=start,
                    finish=finish, free=free, committed=committed,
                    busy_seconds=busy_seconds, queues=queues, rec=rec,
                    skip=contended,
                )
                if conv is not None:
                    span, handled_r, handled_f, n_conv = conv
                    makespan = max(makespan, span)
                    if stats is not None:
                        stats.conveyor_events += n_conv
                    r_keep = ~handled_r
                    f_keep = ~handled_f
                    r_when, r_seq, r_slot = (
                        r_when[r_keep], r_seq[r_keep], r_slot[r_keep]
                    )
                    r_reg = r_reg[r_keep]
                    f_when, f_seq, f_slot = (
                        f_when[f_keep], f_seq[f_keep], f_slot[f_keep]
                    )
                    f_reg = f_reg[f_keep]
        n_events = len(r_when) + len(f_when)
        if n_events == 0:
            break
        passes += 1
        early_ok = (
            use_fast
            and passes < _MAX_SEGMENT_PASSES
            and n_events >= 2 * _MIN_RESIDUE_EVENTS
        )
        span, leftover = _replay(
            queue, limit, r_when, r_seq, r_slot, r_reg,
            f_when, f_seq, f_slot, f_reg,
            servers=servers, exec_real=exec_real,
            start=start, finish=finish, free=free, committed=committed,
            busy_seconds=busy_seconds, queues=queues, rec=rec,
            stop_on_drain=early_ok,
        )
        makespan = max(makespan, span)
        if stats is not None:
            stats.replayed_events += n_events
        if leftover is None:
            break
        r_when, r_seq, r_slot, r_reg, f_when, f_seq, f_slot, f_reg = leftover
        if stats is not None:
            stats.replayed_events -= len(r_when) + len(f_when)
            stats.early_exits += 1

    if rec is not None and rec:
        if len(rec) == 1:
            d_when, d_reg, d_seq, d_slot = rec[0]
        else:
            d_when = np.concatenate([r[0] for r in rec])
            d_reg = np.concatenate([r[1] for r in rec])
            d_seq = np.concatenate([r[2] for r in rec])
            d_slot = np.concatenate([r[3] for r in rec])
        order = np.lexsort((d_seq, d_reg, d_when))
        finished.extend(d_slot[order].tolist())
    return makespan


def _window_cuts(
    limit: float,
    r_when: np.ndarray,
    r_seq: np.ndarray,
    r_slot: np.ndarray,
    r_reg: np.ndarray,
    f_when: np.ndarray,
    f_slot: np.ndarray,
    f_reg: np.ndarray,
    *,
    servers: np.ndarray,
    exec_real: np.ndarray,
    free: np.ndarray,
    queues: list,
    allow_split: bool = True,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-region binding point: how far may this window be applied clean?

    Returns ``(cut_when, cut_seq)`` arrays indexed by region.  ``+inf``
    means the whole window is provably clean for that region; ``-inf``
    means no clean prefix (non-empty FIFO queue, a binding point too early
    to be worth splitting, or splitting disabled); a finite value is the
    ``(when, seq)`` of the region's first binding READY — the earliest
    event, in exact heap order ``(when, finishes-first, seq)``, at which a
    ready would overdraw free capacity.  Events strictly before that point
    (readies by ``(when, seq)``, finishes by ``when <= cut_when``) are
    provably clean: replaying them admits every ready at its ready time.

    The scan walks each region's window events in exact heap order, so the
    first failing ready it sees is exactly the first ready the replay would
    queue.  Negative running capacity at *finish* positions is tolerated —
    finishes apply unconditionally in the replay, and a drained region
    under chaos legitimately starts a window with negative free.
    """
    n_regions = len(free)
    cut_when = np.full(n_regions, -np.inf)
    cut_seq = np.zeros(n_regions, dtype=np.int64)
    eligible = np.array([not queues[r] for r in range(n_regions)])
    cut_when[eligible] = np.inf
    if not eligible.any():
        return cut_when, cut_seq

    # Restrict to eligible regions *before* building the merged event view —
    # at saturated peaks most regions carry a queue, and the window then
    # skips the whole lexsort/cumsum proof.
    r_keep = eligible[r_reg]
    f_keep = eligible[f_reg]
    if not r_keep.all():
        r_when = r_when[r_keep]
        r_seq = r_seq[r_keep]
        r_slot = r_slot[r_keep]
        r_reg = r_reg[r_keep]
    if not f_keep.all():
        f_when = f_when[f_keep]
        f_slot = f_slot[f_keep]
        f_reg = f_reg[f_keep]
    if not (len(r_when) or len(f_when)):
        # No eligible region has events this window; report "no clean
        # prefix" for all of them (vacuously true — nothing to apply).
        cut_when[:] = -np.inf
        return cut_when, cut_seq

    r_srv = servers[r_slot]
    f_srv = servers[f_slot]
    r_exec = exec_real[r_slot]
    if allow_split and len(r_exec) and r_exec.min() <= 0.0:
        # A zero-length job's synthetic finish would sort *before* its own
        # ready at the same instant; for a post-binding ready that phantom
        # would corrupt the prefix proof.  Never occurs with real traces —
        # fall back to the all-or-nothing verdict.
        allow_split = False
    new_when = r_when + r_exec
    in_window = new_when <= limit
    ev_when = np.concatenate([f_when, new_when[in_window], r_when])
    ev_seq = np.concatenate([np.zeros(len(f_when), dtype=np.int64),
                             r_seq[in_window], r_seq])
    n_finish = len(f_when) + int(in_window.sum())
    ev_kind = np.concatenate(
        [np.zeros(n_finish, dtype=np.int8), np.ones(len(r_when), dtype=np.int8)]
    )
    ev_reg = np.concatenate([f_reg, r_reg[in_window], r_reg])
    ev_delta = np.concatenate([f_srv, r_srv[in_window], -r_srv])
    # Region-major sort; within each region the order is the replay pop
    # order.  Seq participates so the scan order among same-time readies
    # *is* the pop order — the binding point must be the first ready the
    # replay would actually queue, not an arbitrary same-time peer.
    # (Finish seqs are zeroed: same-time finishes commute.)
    order = np.lexsort((ev_seq, ev_kind, ev_when, ev_reg))
    s_reg = ev_reg[order]
    s_delta = ev_delta[order]
    s_kind = ev_kind[order]
    s_when = ev_when[order]
    s_seq = ev_seq[order]
    # One global cumsum, re-based per region segment: running free capacity
    # after each event, for every eligible region at once.
    bounds = np.searchsorted(s_reg, np.arange(n_regions + 1))
    cum = np.cumsum(s_delta)
    seg_base = np.concatenate([[0], cum])[bounds[:-1]]
    running = free[s_reg] + cum - np.repeat(seg_base, np.diff(bounds))
    bad_idx = np.flatnonzero((running < 0) & (s_kind == KIND_READY))
    if not len(bad_idx):
        return cut_when, cut_seq
    first_of = np.searchsorted(bad_idx, bounds[:-1])
    for region in np.unique(s_reg[bad_idx]).tolist():
        pos = int(bad_idx[first_of[region]])
        if not allow_split or pos - bounds[region] < _MIN_PREFIX_EVENTS:
            cut_when[region] = -np.inf
        else:
            cut_when[region] = s_when[pos]
            cut_seq[region] = s_seq[pos]
    return cut_when, cut_seq


def _conveyor(
    queue: EventQueue,
    limit: float,
    r_when: np.ndarray,
    r_seq: np.ndarray,
    r_slot: np.ndarray,
    r_reg: np.ndarray,
    f_when: np.ndarray,
    f_seq: np.ndarray,
    f_slot: np.ndarray,
    f_reg: np.ndarray,
    *,
    servers: np.ndarray,
    exec_real: np.ndarray,
    start: np.ndarray,
    finish: np.ndarray,
    free: np.ndarray,
    committed: np.ndarray,
    busy_seconds: np.ndarray,
    queues: list,
    rec: list | None,
    skip: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray, int] | None:
    """Server-release conveyor: contended regions without the event replay.

    Inside one region the FIFO start **order** of a window residue is known
    up front — queued jobs first, then readies in ``(when, seq)`` order —
    so the only question is start *times*.  Those follow the classic
    ordered-workload recursion for a FIFO multi-server queue: keep a
    min-heap of server release times (one entry per server a pending
    finish will free, plus ``free`` spare tokens), and each job in FIFO
    order claims its ``servers_required`` earliest releases, starting at
    ``max(latest claimed release, its ready time)`` and returning that
    many copies of its own finish to the heap.  For the dominant
    one-server case that is three C-level ``heapq`` calls per *start*
    (and nothing at all per job still queued at the window edge) instead
    of the replay's tuple heap, branchy FIFO admission and per-event
    counter updates.

    Equivalence to the replay is exact, case by case:

    * a queued job starts only when a FINISH frees a server — with a
      non-empty initial queue the region's ``free`` tokens activate at the
      window's first finish time (the replay's FIFO drain loop only runs
      in the finish branch), with an empty initial queue they are
      available immediately (a ready with enough free servers starts on
      arrival);
    * negative initial ``free`` (chaos drain) absorbs the deficit's worth
      of earliest releases before anything starts;
    * a release *after* ``limit`` never lands in the heap, so jobs the
      replay would leave queued past the window stay queued here too, and
      a multi-server head the heap cannot cover blocks the queue exactly
      like the replay's head-of-line check.

    The per-region work runs on plain Python lists (the initial FIFO queue
    head-first via ``popleft`` — a saturated queue thousands deep costs
    only its actual starts); all NumPy work — region grouping, start/
    finish scatter, per-region counter deltas, the ``rec`` entry and the
    overflow push — is pooled across every handled region so a window
    touching many lightly-loaded regions pays the fixed cost once, not
    per region.

    Returns ``(makespan, handled_ready_mask, handled_finish_mask,
    n_events)`` or ``None`` when no region qualified.  Regions in ``skip``
    (the forced-contended test hook) and regions with fewer than
    ``_MIN_CONVEYOR_EVENTS`` window events are left for the replay.
    """
    n_regions = len(free)
    cnt_r = np.bincount(r_reg, minlength=n_regions)
    cnt_f = np.bincount(f_reg, minlength=n_regions)
    cand = (cnt_r + cnt_f) >= _MIN_CONVEYOR_EVENTS
    if skip is not None:
        cand &= ~np.asarray(skip, dtype=bool)
    if not cand.any():
        return None
    # Region-major grouping; the stable sort keeps each region's readies in
    # (when, seq) order and its finishes in queue order.
    r_ord = np.argsort(r_reg, kind="stable")
    f_ord = np.argsort(f_reg, kind="stable")
    rs_slot = r_slot[r_ord]
    rs_when_l = r_when[r_ord].tolist()
    rs_slot_l = rs_slot.tolist()
    rs_exec_l = exec_real[rs_slot].tolist()
    rs_srv_l = servers[rs_slot].tolist()
    fs_when_l = f_when[f_ord].tolist()
    fs_srv_l = servers[f_slot[f_ord]].tolist()
    r_off = np.concatenate([[0], np.cumsum(cnt_r)]).tolist()
    f_off = np.concatenate([[0], np.cumsum(cnt_f)]).tolist()
    free_l = free.tolist()

    handled = np.zeros(n_regions, dtype=bool)
    all_slots: list[int] = []
    all_starts: list[float] = []
    all_exec: list[float] = []
    reg_ids: list[int] = []
    reg_counts: list[int] = []
    n_handled = 0
    heapreplace = heapq.heapreplace
    heappop = heapq.heappop
    heappush = heapq.heappush
    append_slot = all_slots.append
    append_start = all_starts.append
    append_exec = all_exec.append
    exec_item = exec_real.item

    for reg in np.flatnonzero(cand).tolist():
        a, b = r_off[reg], r_off[reg + 1]
        c, d = f_off[reg], f_off[reg + 1]
        rexec = rs_exec_l[a:b]
        if rexec and min(rexec) < 0.0:
            # Negative remaining time never occurs with real traces; skip
            # rather than reason about time-travelling releases.
            continue
        fifo = queues[reg]
        fsrv = fs_srv_l[c:d]
        avail = fs_when_l[c:d]
        if fsrv and max(fsrv) > 1:
            avail = np.repeat(
                np.array(avail), np.array(fsrv, dtype=np.int64)
            ).tolist()
        f0 = free_l[reg]
        if f0 > 0:
            if not fifo:
                avail.extend([-np.inf] * f0)
            elif avail:
                avail.extend([min(avail)] * f0)
        elif f0 < 0:
            if -f0 >= len(avail):
                avail = []
            else:
                avail.sort()
                avail = avail[-f0:]
        heapq.heapify(avail)

        k0 = len(all_starts)
        exhausted = not avail
        # Phase 1: head-first through the initial FIFO queue.  Only jobs
        # that actually start are popped; the first blocked job ends the
        # region's window (strict FIFO head-of-line order).
        while fifo and not exhausted:
            slot, srv = fifo[0]
            dur = exec_item(slot)
            if srv == 1:
                begin = avail[0]
                done = begin + dur
                if done <= limit:
                    heapreplace(avail, done)
                else:
                    heappop(avail)
                    exhausted = not avail
            else:
                if len(avail) < srv:
                    break
                begin = -np.inf
                for _ in range(srv):
                    t = heappop(avail)
                    if t > begin:
                        begin = t
                done = begin + dur
                if done <= limit:
                    for _ in range(srv):
                        heappush(avail, done)
                else:
                    exhausted = not avail
            fifo.popleft()
            append_start(begin)
            append_slot(slot)
            append_exec(dur)
        # Phase 2: the window's readies, in (when, seq) order.  Once the
        # heap is exhausted (or a wide job cannot be covered) the rest
        # queue up behind, exactly like the replay's admission branch.
        blocked = bool(fifo)
        ready_pos = a
        if not blocked and not exhausted and a < b and max(rs_srv_l[a:b]) == 1:
            # Branch-free fast path: every residue job wants one server, so
            # each iteration is exactly one heap op and three appends.
            k1 = len(all_starts)
            for ready_at, dur, slot in zip(rs_when_l[a:b], rexec, rs_slot_l[a:b]):
                release = avail[0]
                begin = release if release >= ready_at else ready_at
                done = begin + dur
                append_start(begin)
                append_slot(slot)
                append_exec(dur)
                if done <= limit:
                    heapreplace(avail, done)
                else:
                    heappop(avail)
                    if not avail:
                        break
            ready_pos = a + (len(all_starts) - k1)
        elif not blocked and not exhausted:
            for i in range(a, b):
                ready_at = rs_when_l[i]
                dur = rexec[i - a]
                srv = rs_srv_l[i]
                if srv == 1:
                    release = avail[0]
                    begin = release if release >= ready_at else ready_at
                    done = begin + dur
                    if done <= limit:
                        heapreplace(avail, done)
                    else:
                        heappop(avail)
                        if not avail:
                            ready_pos = i + 1
                            append_start(begin)
                            append_slot(rs_slot_l[i])
                            append_exec(dur)
                            break
                else:
                    if len(avail) < srv:
                        break
                    begin = ready_at
                    for _ in range(srv):
                        t = heappop(avail)
                        if t > begin:
                            begin = t
                    done = begin + dur
                    if done <= limit:
                        for _ in range(srv):
                            heappush(avail, done)
                    elif not avail:
                        ready_pos = i + 1
                        append_start(begin)
                        append_slot(rs_slot_l[i])
                        append_exec(dur)
                        break
                ready_pos = i + 1
                append_start(begin)
                append_slot(rs_slot_l[i])
                append_exec(dur)
        if ready_pos < b:
            fifo.extend(zip(rs_slot_l[ready_pos:b], rs_srv_l[ready_pos:b]))
        handled[reg] = True
        reg_ids.append(reg)
        reg_counts.append(len(all_starts) - k0)
        n_handled += (b - a) + (d - c)
    if not handled.any():
        return None

    # Pooled bookkeeping over every handled region.
    f_handled = handled[f_reg]
    r_handled = handled[r_reg]
    fh_when = f_when[f_handled]
    fh_slot = f_slot[f_handled]
    fh_reg = f_reg[f_handled]
    fh_srv = servers[fh_slot]
    rh_reg = r_reg[r_handled]
    rh_srv = servers[r_slot[r_handled]]
    slots_all = np.array(all_slots, dtype=np.int64)
    s_all = np.array(all_starts)
    fin_all = s_all + np.array(all_exec)
    srv_all = servers[slots_all]
    regs_all = np.repeat(
        np.array(reg_ids, dtype=np.int64), np.array(reg_counts, dtype=np.int64)
    )
    k = len(all_starts)
    seq0 = queue.sequence
    queue.sequence = seq0 + k
    new_seq = np.arange(seq0, seq0 + k, dtype=np.int64)
    in_w = fin_all <= limit
    ap_slot = slots_all[in_w]
    ap_fin = fin_all[in_w]
    ap_reg = regs_all[in_w]
    ap_srv = srv_all[in_w]
    init_busy = fh_srv * (fh_when - start[fh_slot])
    start[slots_all] = s_all
    finish[fh_slot] = fh_when
    finish[ap_slot] = ap_fin
    busy_seconds += np.bincount(fh_reg, weights=init_busy, minlength=n_regions)
    busy_seconds += np.bincount(
        ap_reg, weights=ap_srv * (ap_fin - s_all[in_w]), minlength=n_regions
    )
    freed = np.bincount(fh_reg, weights=fh_srv, minlength=n_regions) + np.bincount(
        ap_reg, weights=ap_srv, minlength=n_regions
    )
    taken = np.bincount(regs_all, weights=srv_all, minlength=n_regions)
    free += (freed - taken).astype(np.int64)
    committed += (
        np.bincount(rh_reg, weights=rh_srv, minlength=n_regions) - freed
    ).astype(np.int64)
    makespan = -np.inf
    if len(fh_when):
        makespan = float(fh_when.max())
    if len(ap_fin):
        makespan = max(makespan, float(ap_fin.max()))
    if rec is not None and (len(fh_when) or len(ap_fin)):
        rec.append((
            np.concatenate([fh_when, ap_fin]),
            np.concatenate([fh_reg, ap_reg]),
            np.concatenate([f_seq[f_handled], new_seq[in_w]]),
            np.concatenate([fh_slot, ap_slot]),
        ))
    out = ~in_w
    if out.any():
        queue._push_finish_arrays(fin_all[out], new_seq[out], slots_all[out])
    return makespan, r_handled, f_handled, n_handled


def _apply_clean(
    queue: EventQueue,
    limit: float,
    cut_when: np.ndarray,
    r_when: np.ndarray,
    r_slot: np.ndarray,
    r_reg: np.ndarray,
    f_when: np.ndarray,
    f_seq: np.ndarray,
    f_slot: np.ndarray,
    f_reg: np.ndarray,
    *,
    servers: np.ndarray,
    exec_real: np.ndarray,
    start: np.ndarray,
    finish: np.ndarray,
    free: np.ndarray,
    committed: np.ndarray,
    busy_seconds: np.ndarray,
    rec: list | None,
) -> tuple[float, tuple | None]:
    """Vectorized apply of the clean prefix (every taken ready starts on time).

    ``cut_when`` is the per-region binding point (``+inf`` for fully clean
    regions): a started job whose synthetic finish lands *past* its
    region's cut but inside the window is not applied here — it is
    returned as ``(when, seq, slot, region)`` residue arrays so the replay
    sees it as a pending FINISH (it frees capacity that admits queued
    jobs mid-residue).  Finishes past ``limit`` go back to the event queue
    as before.
    """
    n_regions = len(free)
    r_srv = servers[r_slot]
    f_srv = servers[f_slot]
    r_exec = exec_real[r_slot]

    start[r_slot] = r_when
    nr = len(r_slot)
    new_seq = np.arange(queue.sequence, queue.sequence + nr, dtype=np.int64)
    queue.sequence += nr
    new_when = r_when + r_exec
    in_window = new_when <= limit
    applied = in_window & (new_when <= cut_when[r_reg])
    residual = in_window & ~applied

    started = np.bincount(r_reg, weights=r_srv, minlength=n_regions)
    done_reg = np.concatenate([f_reg, r_reg[applied]])
    done_srv = np.concatenate([f_srv, r_srv[applied]])
    done_dur = np.concatenate([f_when - start[f_slot], r_exec[applied]])
    done_cnt = np.bincount(done_reg, weights=done_srv, minlength=n_regions)
    free += (done_cnt - started).astype(np.int64)
    committed += (started - done_cnt).astype(np.int64)
    busy_seconds += np.bincount(
        done_reg, weights=done_srv * done_dur, minlength=n_regions
    )

    nw = new_when[applied]
    finish[f_slot] = f_when
    finish[r_slot[applied]] = nw

    makespan = -np.inf
    if len(f_when):
        # Not f_when[-1]: on later segmentation passes the finish arrays mix
        # residual synthetic finishes in and are no longer (when)-sorted.
        makespan = float(f_when.max())
    if len(nw):
        makespan = max(makespan, float(nw.max()))

    if rec is not None and (len(f_when) or len(nw)):
        rec.append((
            np.concatenate([f_when, nw]),
            done_reg,
            np.concatenate([f_seq, new_seq[applied]]),
            np.concatenate([f_slot, r_slot[applied]]),
        ))

    resid = None
    if residual.any():
        resid = (
            new_when[residual], new_seq[residual],
            r_slot[residual], r_reg[residual],
        )
    out = ~in_window
    if out.any():
        queue._push_finish_arrays(new_when[out], new_seq[out], r_slot[out])
    return makespan, resid


def _replay(
    queue: EventQueue,
    limit: float,
    r_when: np.ndarray,
    r_seq: np.ndarray,
    r_slot: np.ndarray,
    r_reg: np.ndarray,
    f_when: np.ndarray,
    f_seq: np.ndarray,
    f_slot: np.ndarray,
    f_reg: np.ndarray,
    *,
    servers: np.ndarray,
    exec_real: np.ndarray,
    start: np.ndarray,
    finish: np.ndarray,
    free: np.ndarray,
    committed: np.ndarray,
    busy_seconds: np.ndarray,
    queues: list,
    rec: list | None,
    stop_on_drain: bool = False,
) -> tuple[float, tuple | None]:
    """The classic heap loop over in-window events (the reference path).

    Event tuples carry ``(when, kind, seq, slot, region, servers, started)``
    — the per-slot payloads are gathered vectorized up front and the
    per-region counters are mirrored into Python lists for the duration of
    the window, so the loop never touches a NumPy scalar on its hot path.
    FIFO queues hold ``(slot, servers)`` pairs for the same reason.

    With ``stop_on_drain`` the loop exits as soon as a FINISH drains the
    last non-empty FIFO queue while enough events remain to be worth
    re-testing — the caller re-runs the clean-prefix verdict on the
    leftover, which this function returns as
    ``(r_when, r_seq, r_slot, r_reg, f_when, f_seq, f_slot, f_reg)``
    (``None`` when the window ran to completion).
    """
    entries: list[tuple] = [
        (when, KIND_FINISH, seq, slot, region, srv, began)
        for when, seq, slot, region, srv, began in zip(
            f_when.tolist(), f_seq.tolist(), f_slot.tolist(), f_reg.tolist(),
            servers[f_slot].tolist(), start[f_slot].tolist(),
        )
    ]
    entries.extend(
        (when, KIND_READY, seq, slot, region, srv, 0.0)
        for when, seq, slot, region, srv in zip(
            r_when.tolist(), r_seq.tolist(), r_slot.tolist(), r_reg.tolist(),
            servers[r_slot].tolist(),
        )
    )
    heapq.heapify(entries)

    free_l = free.tolist()
    committed_l = committed.tolist()
    busy_l = busy_seconds.tolist()
    over_when: list[float] = []
    over_seq: list[int] = []
    over_slot: list[int] = []
    d_when: list[float] = []
    d_reg: list[int] = []
    d_seq: list[int] = []
    d_slot: list[int] = []
    busy_queues = sum(1 for q in queues if q)
    stopped = False
    makespan = -np.inf
    heappush = heapq.heappush
    heappop = heapq.heappop

    def start_job(slot: int, region: int, srv: int, when: float) -> None:
        free_l[region] -= srv
        start[slot] = when
        finish_at = when + float(exec_real[slot])
        seq = queue.sequence
        queue.sequence = seq + 1
        if finish_at <= limit:
            heappush(entries, (finish_at, KIND_FINISH, seq, slot, region, srv, when))
        else:
            over_when.append(finish_at)
            over_seq.append(seq)
            over_slot.append(slot)

    while entries:
        when, kind, seq, slot, region, srv, began = heappop(entries)
        if kind == KIND_READY:
            committed_l[region] += srv
            if free_l[region] >= srv and not queues[region]:
                start_job(slot, region, srv, when)
            else:
                if not queues[region]:
                    busy_queues += 1
                queues[region].append((slot, srv))
        else:  # KIND_FINISH
            free_l[region] += srv
            committed_l[region] -= srv
            busy_l[region] += srv * (when - began)
            finish[slot] = when
            if when > makespan:
                makespan = when
            if rec is not None:
                d_when.append(when)
                d_reg.append(region)
                d_seq.append(seq)
                d_slot.append(slot)
            fifo = queues[region]
            if fifo:
                while fifo and free_l[region] >= fifo[0][1]:
                    queued_slot, queued_srv = fifo.popleft()
                    start_job(queued_slot, region, queued_srv, when)
                if not fifo:
                    busy_queues -= 1
                    if (
                        stop_on_drain
                        and busy_queues == 0
                        and len(entries) >= _MIN_RESIDUE_EVENTS
                    ):
                        stopped = True
                        break

    free[:] = free_l
    committed[:] = committed_l
    busy_seconds[:] = busy_l
    if over_when:
        queue._push_finish_arrays(
            np.array(over_when), np.array(over_seq, dtype=np.int64),
            np.array(over_slot, dtype=np.int64),
        )
    if rec is not None and d_when:
        rec.append((
            np.array(d_when),
            np.array(d_reg, dtype=np.int64),
            np.array(d_seq, dtype=np.int64),
            np.array(d_slot, dtype=np.int64),
        ))

    leftover = None
    if stopped and entries:
        lr_when, lr_seq, lr_slot, lr_reg = [], [], [], []
        lf_when, lf_seq, lf_slot, lf_reg = [], [], [], []
        for when, kind, seq, slot, region, _srv, _began in entries:
            if kind == KIND_READY:
                lr_when.append(when)
                lr_seq.append(seq)
                lr_slot.append(slot)
                lr_reg.append(region)
            else:
                lf_when.append(when)
                lf_seq.append(seq)
                lf_slot.append(slot)
                lf_reg.append(region)
        lr_when = np.array(lr_when)
        lr_seq = np.array(lr_seq, dtype=np.int64)
        lr_slot = np.array(lr_slot, dtype=np.int64)
        lr_reg = np.array(lr_reg, dtype=np.int64)
        order = np.lexsort((lr_seq, lr_when))
        leftover = (
            lr_when[order], lr_seq[order], lr_slot[order], lr_reg[order],
            np.array(lf_when), np.array(lf_seq, dtype=np.int64),
            np.array(lf_slot, dtype=np.int64), np.array(lf_reg, dtype=np.int64),
        )
    return makespan, leftover

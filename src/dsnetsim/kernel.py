"""Simulation kernel: sequential scheduler and the optimistic parallel
engine (speculative execution, rollback by incremental state saving,
anti-messages, global virtual time, fossil collection).

Correctness contract: for a fixed seed the optimistic engine commits
exactly the per-packet records the sequential scheduler produces, for any
partitioning. Events are totally ordered by their key ``(time, target,
sender, seq)``, which is also their identity: an anti-message
carries the key of the event it cancels. The sender sequence counter is
part of each LP's saved state so a rolled-back LP re-emits byte-identical
events.

The sequential scheduler keeps no history: it passes one ``router.Effects``
to every ``dispatch`` of the run (its ``fx``), whose ``records`` collect the
run's records and whose ``emitted`` it moves into its pending set and
empties after each event, and it counts each LP's events in a dict keyed
by every LP, dropping the LPs that ran none at the end. Its pending set is
one bucket per time, a list of that time's events, and a heap of the
distinct bucket times: it opens the earliest bucket, sorts it once by
``Event.key`` and dispatches it in that order. Events tie on time in bulk
(equal link delays, bandwidths and packet sizes, CBR flows that start
together, REFILL chains on one interval), so one sort per time replaces a
heap sift per event. A bucket is complete when it is opened because every
emission is strictly later than its cause: ARRIVE follows a transmission
time of at least 1 ns plus the link delay, GENERATE gaps are at least
1 ns, the REFILL interval is positive, and a SEND is scheduled for a token
deficit above 0. The loop checks this itself and raises
:class:`CausalityError` on an emission at or before its bucket's time.

Before each event the engine saves only what that event can change:
``dispatch(lp, ev, ctx)``, given no ``Effects``, resolves the one port the
event touches and saves its pipeline, as a copy of its flat state list and
of its per-class packet lists, plus a copy of the LP's own numbers
(``RouterLp.st``; ``RouterLp.clone``). The ``router.Effects`` that ``dispatch``
returns for the event is its history entry: the event, that save, and what
the event emitted and recorded. A rollback writes the undone events' saves
back newest first (``RouterLp.restore``), so for every port the earliest
save wins and the LP is back where it was before the first undone event.
The LP objects are the model's own, restored in place, so the model's LPs
hold the run's final state. Both drivers read the generated-packet count
from that state (:func:`_generated`), not from the history.

One driver runs the partitions: a deterministic single-thread stepper.
Each partition keeps one FIFO outbox per destination partition, and that
outbox is the channel: a remote event is appended to it once and popped
once, into its receiver. GVT is a stop-the-world cut: the outboxes are
drained, the antis that drain makes included, until every one is empty,
and the minimum pending event time becomes the new GVT.

A time window bounds the speculation: a partition runs no event later than
GVT + L - 1, where L is the plan's lookahead (``model.lookahead_ns``): 1 ns
plus the smallest delay of a link whose ends lie in different partitions
(a plan that cuts no link runs unbounded). That is safe because only ARRIVE
crosses LPs, always through ``router.transmit``, which schedules it a
transmission time (at least 1 ns, as packets are never empty) plus the link
delay after the event that sends it; GENERATE, SEND and REFILL target their
own LP. Every pending or in-flight event at a cut
is at or after GVT, so any event a partition receives later is at GVT + L
or after, behind nothing it has run: no straggler, so no rollback and no
anti-message. Each GVT epoch is then one round: every partition runs in one
step up to its limit (or ``Knobs.gvt_interval`` events, which bounds the
history when no link is cut), and the round ends in a cut. The per-event
saves, rollback and fossil collection run unchanged, so a wrong lookahead
costs rollbacks, never records. ``run_optimistic(..., unbounded=True)``
lifts the window, so that every partition runs as far ahead as its pending
events go, one ``batch_size`` batch per round in an optionally shuffled
order with seeded transport jitter; the tests and demos use it to exercise
rollback and anti-messages.

The partition, not the LP, is the rollback unit, as a kernel process is
in ROSS: it keeps one history of its processed events in key order, and a
straggler or an anti-message for a processed event undoes every later
event of the partition, whatever its LP. So every pending key is above
every processed key. Hence a local emission, always later than the event
that makes it, is never a straggler; a cancelled key at or below the last
processed key is a processed event, any other a pending one; and fossil
collection commits one prefix of the history. Each partition's pending
set is one heap whose keys are unique: a cancellation takes its victim out
of the heap, and outboxes are FIFO, so an anti-message reaches its
positive before a re-sent event with the same key does.

Every partition's pending heap holds flat entries
``(time, target, sender, seq, Event)``. Their first four fields are the
key's fields, so they pop in key order, and as pending keys are unique two
entries always differ before the Event, which defines no order, is
reached. The entry is flat because a nested key tuple would be walked
twice per heap comparison, once to test equality and once to order it.
Partitions keep this heap, not the sequential loop's buckets: under the
lookahead window a partition's step runs about one distinct time of a
dozen events, where a small heap costs no more than a sort, and rollback,
cancellation and the drop filter work on one flat list.
"""

from __future__ import annotations

import bisect
import heapq
import math
import random
import time as _time
from collections import deque
from dataclasses import dataclass
from operator import attrgetter

from . import events
from .metrics import RunReport, finalize
from .model import Model, lookahead_ns
from .partition import PartitionPlan
from .router import FLOW_SEQS, Effects, dispatch

INF = math.inf
_event_key = attrgetter("key")
RUNTIMES = ("stepped",)  # valid values of Knobs.runtime


class KernelError(Exception):
    pass


class CausalityError(KernelError):
    """A kernel invariant was violated (an emission not later than its
    cause, GVT bug, fossil bug)."""


class WatchdogError(KernelError):
    """No GVT progress within the configured wall-clock budget."""


@dataclass
class Knobs:
    """Runtime tuning for the optimistic engine."""

    gvt_interval: int = 1024  # processed events per partition between cuts
    # batch_size, schedule_seed and jitter act only on unbounded runs: under
    # the window every round ends in a cut that drains every outbox
    batch_size: int = 16  # events per scheduling quantum
    runtime: str = "stepped"  # one of RUNTIMES
    schedule_seed: int | None = None  # shuffle the partition order per round
    jitter: int = 0  # max delivery calls a message waits at its outbox's head
    watchdog_s: float = 60.0

    def __post_init__(self):
        for name, bad, need in (
                ("gvt_interval", self.gvt_interval < 1, ">= 1"),
                ("batch_size", self.batch_size < 1, ">= 1"),
                ("jitter", self.jitter < 0, ">= 0"),
                ("watchdog_s", self.watchdog_s <= 0, "> 0"),
                ("runtime", self.runtime not in RUNTIMES, f"one of {RUNTIMES}")):
            if bad:
                raise KernelError(f"Knobs.{name}: {getattr(self, name)!r} is not {need}")


# --------------------------------------------------------------------------
# sequential scheduler


def run_sequential(model: Model) -> RunReport:
    """Process every event in global key order; the correctness gold
    standard the optimistic engine is diffed against.

    The pending set is one bucket per time, a list of its Events, and a
    heap of the distinct bucket times. The loop opens the earliest bucket,
    stops if its time is past the horizon, sorts it by ``Event.key`` (one
    comparison per event when it is already in key order) and dispatches
    it in that order; each emission joins the bucket of its time. Every
    emission is strictly later than its cause (module docstring), so a
    bucket is complete when it is opened; an emission at or before the open
    bucket's time raises :class:`CausalityError`."""
    ctx = model.ctx
    end = ctx.end_time_ns
    t0 = _time.perf_counter()
    buckets: dict[int, list] = {}
    for ev in model.bootstrap:
        buckets.setdefault(ev.time, []).append(ev)
    times = list(buckets)
    heapq.heapify(times)
    heappop = heapq.heappop
    heappush = heapq.heappush
    lps = model.lps
    per_lp = dict.fromkeys(lps, 0)
    fx = Effects()  # the whole run's: its records, and each event's emissions
    emitted = fx.emitted
    while times:
        now = heappop(times)
        if now > end:
            break
        bucket = buckets.pop(now)
        if len(bucket) > 1:
            bucket.sort(key=_event_key)
        for ev in bucket:
            target = ev.target
            dispatch(lps[target], ev, ctx, fx)
            per_lp[target] += 1
            for em in emitted:
                t = em.time
                if t <= now:
                    raise CausalityError(f"{em} is not later than its cause {ev}")
                later = buckets.get(t)
                if later is None:
                    buckets[t] = [em]
                    heappush(times, t)
                else:
                    later.append(em)
            emitted.clear()
    return finalize(model.scenario_id, fx.records, _generated(model), {
        "committed_events": sum(per_lp.values()),
        "per_lp_events": {n: count for n, count in per_lp.items() if count},
        "port_audit": _port_audit(model.lps),
    }, _time.perf_counter() - t0)


def _port_audit(lps: dict) -> dict:
    return {(nid, pipe.port): {
        "arrive": pipe.arrive_count,
        "send": pipe.send_count,
        "blocked": pipe.blocked_episodes,
        "stale": pipe.stale_sends,
        "redundant": pipe.redundant_sends,
    } for nid, lp in sorted(lps.items()) for pipe in lp.pipelines if pipe is not None}


def _generated(model: Model) -> int:
    """Packets generated: the flows' counters in each ``RouterLp.st``, part
    of every save (``RouterLp.clone``). At the end of a run every LP holds its
    committed state, so this counts exactly the committed GENERATE events."""
    return sum(sum(lp.st[FLOW_SEQS:]) for lp in model.lps.values())


# --------------------------------------------------------------------------
# optimistic engine: per-partition core


class Partition:
    """One worker's share of the model: its LPs, its pending heap, one
    history of its processed events, and outboxes toward other partitions.
    The partition is the rollback unit: every pending key is above every
    processed key (module docstring)."""

    def __init__(self, pid: int, lps: dict, lp_pid: dict[int, int], k: int, ctx,
                 window: float = INF):
        self.pid = pid
        self.lps = lps
        self.lp_pid = lp_pid  # node -> owning partition, shared read-only
        self.ctx = ctx
        self.window = window  # run no event later than gvt + window

        self.pending: list = []  # heap of (time, target, sender, seq, Event)
        self.history: list[Effects] = []  # of the processed events, in key order
        # per destination partition, the FIFO channel toward it
        self.outboxes = [deque() for _ in range(k)]

        self.gvt = 0
        # history grows by one entry per event and shrinks only in _rollback
        # and fossil_collect, which record its size here first
        self._peak = 0
        self.rolled_back = 0
        self.committed_events = 0
        self.committed_records: list = []
        self.per_lp_committed = dict.fromkeys(lps, 0)

    @property
    def peak_history(self) -> int:
        return max(self._peak, len(self.history))

    # -- message intake ----------------------------------------------------

    def receive_remote(self, ev):
        if ev.sign == events.ANTI:
            self._cancel(ev)
            return
        if ev.time < self.gvt:
            raise CausalityError(f"positive event below GVT {self.gvt}: {ev}")
        if self.history and self.history[-1].event.key > ev.key:
            self._rollback(ev.key)
        heapq.heappush(self.pending, (ev.time, ev.target, ev.sender, ev.seq, ev))

    def _cancel(self, anti):
        """Annihilate the event with the key of ``anti``: a processed one
        when the key is at or below the last processed key, else a pending
        one."""
        key = anti.key
        if self.history and key <= self.history[-1].event.key:
            self._rollback(key, annihilate=True)
            return
        time = key[0]
        pending = self.pending
        for i, entry in enumerate(pending):
            # the time field first: most entries differ there, and it needs
            # no attribute load
            if entry[0] == time and entry[4].key == key:
                # move the entries above it down one slot each, over it;
                # the slots below the root stay in heap order, and heappop
                # drops the root's stale copy
                while i:
                    pending[i] = pending[(i - 1) // 2]
                    i = (i - 1) // 2
                heapq.heappop(pending)
                return
        # outboxes are FIFO, so an anti reaches its positive before a
        # re-sent event with the same key does; one that matches
        # nothing targets fossil-collected state
        raise CausalityError(f"anti-message {anti} matches no pending or processed event")

    # -- rollback ----------------------------------------------------------

    def _rollback(self, to_key, annihilate: bool = False):
        """Undo the partition's events from key ``to_key`` on, newest first,
        each restoring its own LP, and pend them again, except the event at
        ``to_key`` itself when ``annihilate`` and the local emissions of
        undone events, which their re-run sends again."""
        history = self.history
        idx = len(history)
        while idx > 0 and history[idx - 1].event.key >= to_key:
            idx -= 1
        undone = history[idx:]
        if annihilate and undone[0].event.key != to_key:
            raise CausalityError(
                f"anti-message for {to_key} matches no pending or processed event")
        self._peak = self.peak_history
        del history[idx:]
        lps = self.lps
        for entry in reversed(undone):
            lps[entry.event.target].restore(entry.saved)
        self.rolled_back += len(undone)
        # every local emission of an undone event is pending or undone
        drop = {to_key} if annihilate else set()
        pending = self.pending
        for entry in undone:
            ev = entry.event
            pending.append((ev.time, ev.target, ev.sender, ev.seq, ev))
            for em in entry.emitted:
                tgt = self.lp_pid[em.target]
                if tgt == self.pid:
                    drop.add(em.key)
                else:
                    self.outboxes[tgt].append(em.as_anti())
        pending[:] = [entry for entry in pending if entry[4].key not in drop]
        heapq.heapify(pending)

    # -- forward progress --------------------------------------------------

    def step(self, max_events: int) -> int:
        """Process up to ``max_events`` pending events in key order, none
        later than the horizon or ``gvt + window``."""
        pending = self.pending
        lps = self.lps
        history = self.history
        lp_pid = self.lp_pid
        outboxes = self.outboxes
        heappop = heapq.heappop
        heappush = heapq.heappush
        pid = self.pid
        ctx = self.ctx
        done = 0
        limit = min(ctx.end_time_ns, self.gvt + self.window)
        while done < max_events and pending:
            ev = pending[0][4]
            if ev.time > limit:
                break
            heappop(pending)
            fx = dispatch(lps[ev.target], ev, ctx)
            fx.event = ev
            history.append(fx)
            for em in fx.emitted:
                tgt = lp_pid[em.target]
                if tgt == pid:
                    # later than ev, so above every processed key
                    heappush(pending, (em.time, em.target, em.sender, em.seq, em))
                else:
                    outboxes[tgt].append(em)
            done += 1
        return done

    def min_pending_time(self) -> float:
        return self.pending[0][0] if self.pending else INF

    # -- commitment ----------------------------------------------------------

    def fossil_collect(self, gvt) -> int:
        """Commit and discard the history's prefix below ``gvt``."""
        self._peak = self.peak_history
        history = self.history
        i = bisect.bisect_left(history, gvt, key=lambda entry: entry.event.time)
        records = self.committed_records
        per_lp = self.per_lp_committed
        for entry in history[:i]:
            per_lp[entry.event.target] += 1
            if entry.records:
                records.extend(entry.records)
        del history[:i]
        self.committed_events += i
        if gvt is not INF:
            self.gvt = gvt
        return i


# --------------------------------------------------------------------------
# drivers


def _make_partitions(model: Model, assignment: dict[int, int], k: int,
                     window: float) -> list[Partition]:
    parts = []
    for pid in range(k):
        lps = {n: lp for n, lp in model.lps.items() if assignment[n] == pid}
        parts.append(Partition(pid, lps, assignment, k, model.ctx, window))
    for ev in model.bootstrap:
        parts[assignment[ev.target]].pending.append((ev.time, ev.target, ev.sender, ev.seq, ev))
    for p in parts:
        heapq.heapify(p.pending)
    return parts


def _merge_reports(model: Model, parts: list[Partition], messages: int,
                   gvt_series: list, wall_clock_s: float) -> RunReport:
    records = []
    per_lp: dict[int, int] = {}
    for p in parts:
        records.extend(p.committed_records)
        per_lp.update((n, count) for n, count in p.per_lp_committed.items() if count)
    return finalize(model.scenario_id, records, _generated(model), {
        "committed_events": sum(p.committed_events for p in parts),
        "rolled_back_events": sum(p.rolled_back for p in parts),
        "inter_partition_messages": messages,
        "gvt_rounds": len(gvt_series),
        "peak_history_entries": sum(p.peak_history for p in parts),
        "per_lp_events": per_lp,
        "port_audit": _port_audit(model.lps),
        "gvt_series": gvt_series,
    }, wall_clock_s)


def _compute_gvt(parts: list[Partition]):
    return min(p.min_pending_time() for p in parts)


def run_optimistic(model: Model, plan: PartitionPlan, knobs: Knobs | None = None, *,
                   unbounded: bool = False) -> RunReport:
    """Speculative parallel run over a partition plan, by a deterministic
    cooperative driver. Per-packet records are identical to
    :func:`run_sequential` for the same model and seed.

    A partition runs no event later than GVT + L - 1 (L from
    :func:`model.lookahead_ns`), so each round steps every partition once,
    up to that limit or ``gvt_interval`` events, and ends in a GVT cut.
    ``unbounded`` lifts that limit, so partitions speculate and roll back:
    each receives what the outboxes hold for it, then runs one batch, in
    (optionally shuffled) order; with ``jitter`` each outbox's head waits a
    seeded number of deliveries, and what is behind it waits too, so FIFO
    order holds. A cut follows every ``gvt_interval`` events per partition
    or a round in which nothing moved."""
    knobs = knobs or Knobs()
    assignment, k = plan.assignment, plan.k
    missing = set(model.lps) - set(assignment)
    if missing:
        raise KernelError(f"partition plan misses LPs {sorted(missing)[:5]}")
    t0 = _time.perf_counter()
    window = INF if unbounded else lookahead_ns(model.topology, assignment) - 1
    parts = _make_partitions(model, assignment, k, window)
    quantum = knobs.batch_size if unbounded else knobs.gvt_interval
    rnd = random.Random(knobs.schedule_seed)
    holds = [[None] * k for _ in range(k)]  # [src][dst]: the head's wait left
    messages = 0
    gvt = 0
    gvt_series: list = []  # (round, gvt, committed, rolled back, messages)
    since_gvt = 0
    last_progress = _time.perf_counter()

    def deliver(p: Partition, held: bool) -> int:
        """Pop every outbox toward ``p`` into it, in FIFO order; when
        ``held``, each outbox's head first waits out its jitter."""
        nonlocal messages
        dst = p.pid
        got = 0
        for src in parts:
            box = src.outboxes[dst]
            waits = holds[src.pid]
            while box:
                if held and knobs.jitter:
                    wait = waits[dst]
                    if wait is None:
                        wait = rnd.randint(0, knobs.jitter)
                    if wait:
                        waits[dst] = wait - 1
                        break
                waits[dst] = None
                p.receive_remote(box.popleft())
                got += 1
        messages += got
        return got

    while True:
        order = parts
        if unbounded and knobs.schedule_seed is not None:
            order = parts.copy()
            rnd.shuffle(order)
        moved = False
        for p in order:
            # under the window whatever a partition receives in an epoch is
            # at GVT + L or later, past its limit: it waits for the cut
            got = unbounded and deliver(p, True)
            n = p.step(quantum)
            since_gvt += n
            moved = moved or n or got
        if unbounded and since_gvt < knobs.gvt_interval * k and moved:
            continue
        since_gvt = 0
        # GVT cut: drain the outboxes, including the antis a drain-triggered
        # rollback produces, until nothing is in flight
        while any([deliver(p, False) for p in parts]):
            pass
        new_gvt = _compute_gvt(parts)
        done = new_gvt is INF or new_gvt > model.ctx.end_time_ns
        if done:
            new_gvt = INF
        elif new_gvt > gvt:
            gvt = new_gvt
            last_progress = _time.perf_counter()
        else:
            assert new_gvt == gvt, "GVT regressed"
        for p in parts:
            p.fossil_collect(new_gvt)
        gvt_series.append((
            len(gvt_series) + 1,
            -1 if done else new_gvt,
            sum(p.committed_events for p in parts),
            sum(p.rolled_back for p in parts),
            messages,
        ))
        if done:
            break
        if _time.perf_counter() - last_progress > knobs.watchdog_s:
            raise WatchdogError(
                f"no GVT progress past {gvt} ns for {knobs.watchdog_s}s")
    return _merge_reports(model, parts, messages, gvt_series,
                          _time.perf_counter() - t0)

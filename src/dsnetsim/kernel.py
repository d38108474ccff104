"""Simulation kernel: sequential scheduler and the optimistic parallel
engine (speculative execution, rollback by incremental state saving,
anti-messages, global virtual time, fossil collection).

Correctness contract: for a fixed seed the optimistic engine commits
exactly the per-packet records the sequential scheduler produces, for any
partitioning. Events are totally ordered by ``(recv_time, target, sender,
seq)``; the sender sequence counter is part of each LP's saved state so a
rolled-back LP re-emits byte-identical events.

Before each event the engine saves only what that event can change: the
pipeline of the one port it touches (``router.touched_port``), as a copy
of its flat state list and of its per-class packet lists, plus the RNG
cursors, ``seq`` and the flows' ``pkt_seq`` (``RouterLp.clone``). A
rollback writes the undone events' saves back newest first
(``RouterLp.restore``), so for every port the earliest save wins and the
LP is back where it was before the first undone event.

One driver runs the partitions: a deterministic single-thread stepper that
gives each partition one batch per round, over per-channel FIFO queues
with optional seeded transport jitter and a shuffled schedule. GVT is a
stop-the-world cut: every channel is drained until nothing is in flight
(global sent == received), and the minimum pending event time becomes the
new GVT.
"""

from __future__ import annotations

import heapq
import math
import random
import time as _time
from collections import deque
from dataclasses import dataclass

from . import events
from .metrics import RunReport, finalize
from .model import Model
from .router import dispatch, touched_port

INF = math.inf
RUNTIMES = ("stepped",)  # valid values of Knobs.runtime


class KernelError(Exception):
    pass


class CausalityError(KernelError):
    """A kernel invariant was violated (GVT bug, fossil bug)."""


class WatchdogError(KernelError):
    """No GVT progress within the configured wall-clock budget."""


@dataclass
class Knobs:
    """Runtime tuning for the optimistic engine."""

    gvt_interval: int = 1024  # processed events per partition between cuts
    batch_size: int = 16  # events per scheduling quantum
    runtime: str = "stepped"  # one of RUNTIMES
    schedule_seed: int | None = None  # shuffle the partition order per round
    jitter: int = 0  # max extra hold per channel message, in rounds
    watchdog_s: float = 60.0
    debug_audit: bool = False


# --------------------------------------------------------------------------
# sequential scheduler


def run_sequential(model: Model, end_time_ns: int | None = None) -> RunReport:
    """Process every event in global key order; the correctness gold
    standard the optimistic engine is diffed against."""
    end = model.end_time_ns if end_time_ns is None else end_time_ns
    t0 = _time.perf_counter()
    heap = [(ev.key, ev) for ev in model.bootstrap]
    heapq.heapify(heap)
    records = []
    generated = 0
    processed = 0
    per_lp: dict[int, int] = {}
    ctx = model.ctx
    lps = model.lps
    while heap:
        key, ev = heap[0]
        if ev.time > end:
            break
        heapq.heappop(heap)
        lp = lps[ev.target]
        fx = dispatch(lp, ev, ctx)
        processed += 1
        per_lp[ev.target] = per_lp.get(ev.target, 0) + 1
        if fx.records:
            records.extend(fx.records)
        generated += fx.generated
        for em in fx.emitted:
            assert em.time >= ev.time, f"event scheduled in the past: {em} from {ev}"
            heapq.heappush(heap, (em.key, em))
    counters = _state_counters(model.lps)
    counters["committed_events"] = processed
    counters["per_lp_events"] = per_lp
    return finalize(model.scenario_id, records, generated, counters,
                    _time.perf_counter() - t0)


def _state_counters(lps: dict) -> dict:
    port_audit = {}
    stale = 0
    for nid, lp in sorted(lps.items()):
        for pipe in lp.pipelines:
            if pipe is None:
                continue
            port_audit[(nid, pipe.port)] = {
                "arrive": pipe.arrive_count,
                "send": pipe.send_count,
                "blocked": pipe.blocked_episodes,
                "stale": pipe.stale_sends,
                "redundant": pipe.redundant_sends,
            }
            stale += pipe.stale_sends
    return {"port_audit": port_audit, "stale_sends": stale}


# --------------------------------------------------------------------------
# optimistic engine: per-partition core


class _Entry:
    """One processed event with everything needed to undo it."""

    __slots__ = ("event", "saved", "emitted", "records", "generated")

    def __init__(self, event, saved, emitted, records, generated):
        self.event = event
        self.saved = saved
        self.emitted = emitted
        self.records = records
        self.generated = generated


class Partition:
    """One worker's share of the model: its LPs, pending queue, processed
    histories, and outboxes toward other partitions."""

    def __init__(self, pid: int, lps: dict, lp_pid: dict[int, int], ctx,
                 end_time_ns: int, debug_audit: bool = False):
        self.pid = pid
        self.lps = lps
        self.lp_pid = lp_pid  # node -> owning partition, shared read-only
        self.ctx = ctx
        self.end = end_time_ns
        self.debug_audit = debug_audit

        self.pending: list = []  # heap of (key, serial, Event)
        self._serial = 0  # heap tiebreaker: a dead copy can share its key
        self.live: dict = {}  # eid -> the live pending Event with that identity
        self.orphan_antis: set = set()
        self.histories: dict[int, list[_Entry]] = {n: [] for n in lps}
        self.outboxes: dict[int, list] = {}

        self.sent = 0
        self.recv = 0
        self.gvt = 0
        self.hist_size = 0
        self.peak_history = 0
        self.rolled_back = 0
        self.committed_events = 0
        self.committed_generated = 0
        self.committed_records: list = []
        self.per_lp_committed: dict[int, int] = {}

    # -- message intake ----------------------------------------------------

    def seed_events(self, evs):
        for ev in evs:
            self._push(ev)

    def receive_remote(self, ev):
        self.recv += 1
        if ev.sign == events.ANTI:
            self._cancel(ev.target, ev.eid, ev.time)
        else:
            self._insert_positive(ev)

    def _push(self, ev):
        self._serial += 1
        heapq.heappush(self.pending, (ev.key, self._serial, ev))
        self.live[ev.eid] = ev

    def _insert_positive(self, ev):
        if ev.eid in self.orphan_antis:
            # an anti overtook its positive (non-FIFO transport); annihilate
            self.orphan_antis.discard(ev.eid)
            return
        if self.debug_audit and ev.time < self.gvt:
            raise CausalityError(
                f"positive event below GVT {self.gvt}: {ev}")
        hist = self.histories[ev.target]
        if hist and hist[-1].event.key > ev.key:
            self._rollback(ev.target, ev.key, annihilate_eid=None)
        self._push(ev)

    def _cancel(self, target: int, eid, time_ns: int):
        victim = self.live.pop(eid, None)
        if victim is not None:
            # still queued: flag it dead, the scheduler drops it lazily.
            # Matching by object (not id) matters: after a rollback the
            # sender legitimately re-emits the same id for a new event.
            victim.dead = True
            return
        hist = self.histories[target]
        for i in range(len(hist) - 1, -1, -1):
            if hist[i].event.eid == eid:
                self._rollback(target, hist[i].event.key, annihilate_eid=eid)
                return
        self.orphan_antis.add(eid)

    # -- rollback ----------------------------------------------------------

    def _rollback(self, lp_id: int, to_key, annihilate_eid):
        hist = self.histories[lp_id]
        idx = len(hist)
        while idx > 0 and hist[idx - 1].event.key >= to_key:
            idx -= 1
        undone = hist[idx:]
        if not undone:
            return
        if undone[0].event.time < self.gvt:
            raise CausalityError(
                f"rollback of LP {lp_id} targets time {undone[0].event.time} "
                f"below GVT {self.gvt} (fossil-collected state)")
        del hist[idx:]
        self.hist_size -= len(undone)
        lp = self.lps[lp_id]
        for entry in reversed(undone):
            lp.restore(entry.saved)
        self.rolled_back += len(undone)
        local_cancels = deque()
        for entry in undone:
            ev = entry.event
            if ev.eid != annihilate_eid:
                self._push(ev)
            for em in entry.emitted:
                tgt = self.lp_pid[em.target]
                if tgt == self.pid:
                    local_cancels.append(em)
                else:
                    self.outboxes.setdefault(tgt, []).append(em.as_anti())
        while local_cancels:
            em = local_cancels.popleft()
            self._cancel(em.target, em.eid, em.time)

    # -- forward progress --------------------------------------------------

    def _clean_top(self):
        while self.pending:
            ev = self.pending[0][2]
            if ev.dead:
                heapq.heappop(self.pending)
            else:
                return ev
        return None

    def step(self, max_events: int) -> int:
        """Process up to ``max_events`` pending events in key order."""
        done = 0
        while done < max_events:
            ev = self._clean_top()
            if ev is None or ev.time > self.end:
                break
            heapq.heappop(self.pending)
            if self.live.get(ev.eid) is ev:
                del self.live[ev.eid]
            lp = self.lps[ev.target]
            saved = lp.clone(touched_port(lp, ev))
            fx = dispatch(lp, ev, self.ctx)
            self.histories[ev.target].append(
                _Entry(ev, saved, fx.emitted, fx.records, fx.generated))
            self.hist_size += 1
            if self.hist_size > self.peak_history:
                self.peak_history = self.hist_size
            for em in fx.emitted:
                tgt = self.lp_pid[em.target]
                if tgt == self.pid:
                    # local delivery still needs the straggler check: after a
                    # rollback this LP re-executes old events and its
                    # emissions can land behind a local neighbour's progress
                    self._insert_positive(em)
                else:
                    self.outboxes.setdefault(tgt, []).append(em)
            done += 1
        return done

    def min_pending_time(self) -> float:
        ev = self._clean_top()
        return ev.time if ev is not None else INF

    def take_outboxes(self) -> dict[int, list]:
        out = self.outboxes
        self.outboxes = {}
        for msgs in out.values():
            self.sent += len(msgs)
        return out

    # -- commitment ----------------------------------------------------------

    def fossil_collect(self, gvt) -> int:
        """Commit and discard history strictly below ``gvt``."""
        reclaimed = 0
        for lp_id, hist in self.histories.items():
            i = 0
            while i < len(hist) and hist[i].event.time < gvt:
                i += 1
            if i:
                for entry in hist[:i]:
                    self.committed_events += 1
                    self.committed_generated += entry.generated
                    if entry.records:
                        self.committed_records.extend(entry.records)
                    self.per_lp_committed[lp_id] = (
                        self.per_lp_committed.get(lp_id, 0) + 1)
                del hist[:i]
                reclaimed += i
        self.hist_size -= reclaimed
        if gvt is not INF:
            self.gvt = gvt
        return reclaimed


# --------------------------------------------------------------------------
# drivers


def _make_partitions(model: Model, assignment: dict[int, int], k: int,
                     debug_audit: bool) -> list[Partition]:
    parts = []
    for pid in range(k):
        lps = {n: lp for n, lp in model.lps.items() if assignment[n] == pid}
        parts.append(Partition(pid, lps, assignment, model.ctx,
                               model.end_time_ns, debug_audit))
    for ev in model.bootstrap:
        parts[assignment[ev.target]].seed_events([ev])
    return parts


def _merge_reports(model: Model, parts: list[Partition], gvt_rounds: int,
                   gvt_series: list, wall_clock_s: float) -> RunReport:
    records = []
    generated = 0
    per_lp: dict[int, int] = {}
    rolled_back = 0
    msgs = 0
    peak = 0
    final_lps: dict = {}
    for p in parts:
        records.extend(p.committed_records)
        generated += p.committed_generated
        rolled_back += p.rolled_back
        msgs += p.sent
        peak += p.peak_history
        per_lp.update(p.per_lp_committed)
        final_lps.update(p.lps)
    counters = _state_counters(final_lps)
    counters.update({
        "committed_events": sum(p.committed_events for p in parts),
        "rolled_back_events": rolled_back,
        "inter_partition_messages": msgs,
        "gvt_rounds": gvt_rounds,
        "peak_history_entries": peak,
        "per_lp_events": per_lp,
        "gvt_series": gvt_series,
    })
    return finalize(model.scenario_id, records, generated, counters, wall_clock_s)


def _compute_gvt(parts: list[Partition]):
    return min(p.min_pending_time() for p in parts)


def run_stepped(model: Model, assignment: dict[int, int], k: int,
                knobs: Knobs) -> RunReport:
    """Deterministic cooperative driver: partitions are stepped one batch at
    a time in (optionally shuffled) order, with optional per-channel message
    holds that preserve per-sender FIFO order."""
    t0 = _time.perf_counter()
    parts = _make_partitions(model, assignment, k, knobs.debug_audit)
    channels: dict[tuple[int, int], deque] = {}
    rnd = random.Random(knobs.schedule_seed)
    gvt = 0
    gvt_series: list = []  # (round, gvt, committed, rolled back, sent)
    since_gvt = 0
    last_progress = _time.perf_counter()

    def flush(p: Partition, with_jitter: bool):
        for dst, msgs in p.take_outboxes().items():
            ch = channels.setdefault((p.pid, dst), deque())
            for m in msgs:
                hold = rnd.randint(0, knobs.jitter) if (with_jitter and knobs.jitter) else 0
                ch.append([hold, m])

    def deliver_due(p: Partition) -> bool:
        got = False
        for src in range(k):
            ch = channels.get((src, p.pid))
            if not ch:
                continue
            if ch[0][0] > 0:
                ch[0][0] -= 1
            while ch and ch[0][0] <= 0:
                p.receive_remote(ch.popleft()[1])
                got = True
        return got

    def deliver_all() -> bool:
        moved = False
        for (src, dst), ch in channels.items():
            while ch:
                parts[dst].receive_remote(ch.popleft()[1])
                moved = True
        for p in parts:
            if p.outboxes:
                flush(p, with_jitter=False)
                moved = True
        return moved

    while True:
        order = list(range(k))
        if knobs.schedule_seed is not None:
            rnd.shuffle(order)
        any_work = False
        for pid in order:
            p = parts[pid]
            got = deliver_due(p)
            n = p.step(knobs.batch_size)
            flush(p, with_jitter=True)
            since_gvt += n
            if n or got:
                any_work = True
        if since_gvt >= knobs.gvt_interval * k or not any_work:
            # GVT cut: bounce messages (including the antis a drain-triggered
            # rollback produces) until nothing is in flight
            for p in parts:
                flush(p, with_jitter=False)
            while deliver_all():
                pass
            new_gvt = _compute_gvt(parts)
            done = new_gvt is INF or new_gvt > model.end_time_ns
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
                sum(p.sent for p in parts),
            ))
            if done:
                break
            since_gvt = 0
            if _time.perf_counter() - last_progress > knobs.watchdog_s:
                raise WatchdogError(
                    f"no GVT progress past {gvt} ns for {knobs.watchdog_s}s")
    return _merge_reports(model, parts, len(gvt_series), gvt_series,
                          _time.perf_counter() - t0)


def run_optimistic(model: Model, plan, knobs: Knobs | None = None) -> RunReport:
    """Speculative parallel run over a partition plan. Per-packet records
    are identical to :func:`run_sequential` for the same model and seed."""
    knobs = knobs or Knobs()
    assignment = plan.assignment if hasattr(plan, "assignment") else dict(plan)
    k = (plan.k if hasattr(plan, "k") else max(assignment.values()) + 1)
    missing = set(model.lps) - set(assignment)
    if missing:
        raise KernelError(f"partition plan misses LPs {sorted(missing)[:5]}")
    if knobs.runtime not in RUNTIMES:
        raise KernelError(f"unknown runtime {knobs.runtime!r}")
    return run_stepped(model, assignment, k, knobs)

"""Per-router logical-process behaviour.

Only two event kinds drive a router: ARRIVE (a packet reached this node) and
SEND (a previously blocked egress port should retry). A per-port flag marks
whether a try-to-send is pending or in progress, so queued packets never
schedule redundant retries; one SEND may drain several packets.

All handler effects are appended to an :class:`Effects` value and all state
mutation stays inside this LP. One event changes at most one egress
pipeline, the one :func:`touched_port` names before the event runs, plus
the RNG cursors, the ``seq`` counter and a flow's ``pkt_seq``. The
optimistic kernel saves only that state before each event
(:meth:`RouterLp.clone`) and puts it back on rollback
(:meth:`RouterLp.restore`).
"""

from __future__ import annotations

import math

from . import events, rng
from .metrics import PacketRecord
from .qos import TOKEN_SCALE, QosProfile, ClassQueue, RedState, SrtcmMeter, TokenBucket, \
    strict_priority_select, ENQUEUE, periodic_refill_amount_scaled

PKT_ID_STRIDE = 10**7

DROP_ROUTING = "routing"
DROP_RED = "red"
DROP_QUEUE = "queue"


class Packet:
    __slots__ = (
        "pid", "src", "dst", "size", "ds", "class_index", "color", "created_ns",
    )

    def __init__(self, pid, src, dst, size, ds, created_ns,
                 class_index=-1, color=-1):
        self.pid = pid
        self.src = src
        self.dst = dst
        self.size = size
        self.ds = ds
        self.class_index = class_index
        self.color = color
        self.created_ns = created_ns

    def copy(self) -> "Packet":
        return Packet(self.pid, self.src, self.dst, self.size, self.ds,
                      self.created_ns, self.class_index, self.color)

    def __repr__(self):
        return f"Packet({self.pid} {self.src}->{self.dst} {self.size}B ds={self.ds})"


class Effects:
    """What one event handler produced: emissions, terminal packet records,
    and the number of packets generated."""

    __slots__ = ("emitted", "records", "generated")

    def __init__(self):
        self.emitted: list[events.Event] = []
        self.records: list[PacketRecord] = []
        self.generated = 0


class EgressPipeline:
    """QoS pipeline and shaper of one egress port, plus audit counters."""

    __slots__ = (
        "port", "link", "profile", "srtcm", "red", "queues", "shaper",
        "send_flag", "arrive_count", "send_count", "blocked_episodes",
        "stale_sends", "redundant_sends",
    )

    def __init__(self, port: int, link, profile: QosProfile):
        self.port = port
        self.link = link
        self.profile = profile
        self.srtcm = [SrtcmMeter(p) for p in profile.srtcm]
        self.red = [
            [RedState(p) for p in per_class] for per_class in profile.red
        ]
        self.queues = [
            ClassQueue(i, profile.queue_capacity_bytes)
            for i in range(profile.num_classes)
        ]
        self.shaper = TokenBucket(profile.shaper_burst_bytes, profile.shaper_rate_bps)
        self.send_flag = False
        self.arrive_count = 0
        self.send_count = 0
        self.blocked_episodes = 0
        self.stale_sends = 0
        self.redundant_sends = 0

    def clone(self) -> "EgressPipeline":
        p = EgressPipeline.__new__(EgressPipeline)
        p.port = self.port
        p.link = self.link
        p.profile = self.profile
        p.srtcm = [m.clone() for m in self.srtcm]
        p.red = [[r.clone() for r in per_class] for per_class in self.red]
        p.queues = [q.clone() for q in self.queues]
        p.shaper = self.shaper.clone()
        p.send_flag = self.send_flag
        p.arrive_count = self.arrive_count
        p.send_count = self.send_count
        p.blocked_episodes = self.blocked_episodes
        p.stale_sends = self.stale_sends
        p.redundant_sends = self.redundant_sends
        return p


class FlowGen:
    """Self-scheduling packet source for one flow rooted at this LP."""

    __slots__ = ("dst", "interarrival_ns", "size", "ds", "poisson", "pkt_seq",
                 "pid_base")

    def __init__(self, dst, interarrival_ns, size, ds=None, poisson=False,
                 pid_base=0):
        self.dst = dst
        self.interarrival_ns = interarrival_ns
        self.size = size
        self.pid_base = pid_base
        self.ds = ds  # None -> draw from the scenario DS distribution
        self.poisson = poisson
        self.pkt_seq = 0


class RouterLp:
    """Full mutable state of one node: egress pipelines, routing row, RNG
    cursors, event sequence counter, and any traffic sources."""

    __slots__ = ("node", "tier", "pipelines", "route_row", "rng", "seq", "flows")

    def __init__(self, node, tier, pipelines, route_row, seed):
        self.node = node
        self.tier = tier
        self.pipelines: list[EgressPipeline] = pipelines
        self.route_row: dict[int, int] = route_row
        self.rng = rng.CursorRng(seed, node)
        self.seq = 0
        self.flows: list[FlowGen] = []

    def clone(self, port: int | None) -> tuple:
        """Save the state one event can change: the pipeline of ``port``
        (the event's :func:`touched_port`; None saves no pipeline), the
        RNG cursors, ``seq`` and every flow's ``pkt_seq``."""
        pipe = self.pipelines[port].clone() if port is not None else None
        return (port, pipe, self.rng.clone(), self.seq,
                [f.pkt_seq for f in self.flows])

    def restore(self, saved: tuple):
        """Put back a save from :meth:`clone`. The saved objects become
        live state, so each save is restored at most once."""
        port, pipe, cursor_rng, seq, pkt_seqs = saved
        if pipe is not None:
            self.pipelines[port] = pipe
        self.rng = cursor_rng
        self.seq = seq
        for flow, pkt_seq in zip(self.flows, pkt_seqs):
            flow.pkt_seq = pkt_seq

    def emit(self, fx: Effects, time, target, kind, payload):
        fx.emitted.append(events.Event(time, target, kind, payload, self.node, self.seq))
        self.seq += 1


def transmission_ns(size_bytes: int, bandwidth_bps: int) -> int:
    return -(-(size_bytes * 8 * 10**9) // bandwidth_bps)


# --------------------------------------------------------------------------
# handlers


def handle_arrive(lp: RouterLp, pkt: Packet, now: int, fx: Effects, ctx):
    if pkt.dst == lp.node:
        fx.records.append(PacketRecord(
            pkt.pid, pkt.src, pkt.dst, pkt.class_index, pkt.color,
            pkt.created_ns, now, None, None))
        return
    port = lp.route_row.get(pkt.dst)
    if port is None:
        fx.records.append(PacketRecord(
            pkt.pid, pkt.src, pkt.dst, pkt.class_index, pkt.color,
            pkt.created_ns, None, lp.node, DROP_ROUTING))
        return
    pipe = lp.pipelines[port]
    pipe.arrive_count += 1
    cls = pipe.profile.classifier.classify(pkt.ds)
    pkt.class_index = cls
    pkt.color = int(pipe.srtcm[cls].mark(pkt.size, now))
    queue = pipe.queues[cls]
    full = not queue.fits(pkt.size)
    rand = lp.rng.uniform(rng.PURPOSE_RED)
    decision = pipe.red[cls][pkt.color].decide(queue, pkt.size, now, rand)
    if decision != ENQUEUE:
        fx.records.append(PacketRecord(
            pkt.pid, pkt.src, pkt.dst, pkt.class_index, pkt.color,
            pkt.created_ns, None, lp.node, DROP_QUEUE if full else DROP_RED))
        return
    queue.push(pkt)
    if not pipe.send_flag:
        pipe.send_flag = True
        try_to_send(lp, pipe, now, fx, ctx)


def handle_send(lp: RouterLp, port: int, now: int, fx: Effects, ctx):
    pipe = lp.pipelines[port]
    if not pipe.send_flag:
        # a SEND whose cause was undone by a rollback; ignore it
        pipe.stale_sends += 1
        return
    pipe.send_count += 1
    if strict_priority_select(pipe.queues) is None:
        pipe.redundant_sends += 1
    try_to_send(lp, pipe, now, fx, ctx)


def try_to_send(lp: RouterLp, pipe: EgressPipeline, now: int, fx: Effects, ctx):
    """Drain the port while the shaper permits; on a token shortfall,
    schedule one retry at the earliest sufficiency time (lazy mode) or wait
    for the next periodic refill (baseline mode). The send flag stays set
    until the port goes idle."""
    while True:
        cls = strict_priority_select(pipe.queues)
        if cls is None:
            pipe.send_flag = False
            return
        if ctx.lazy_shaper:
            pipe.shaper.refill(now)
        head = pipe.queues[cls].head()
        if pipe.shaper.tokens_scaled >= head.size * TOKEN_SCALE:
            pipe.shaper.take(head.size)
            pkt = pipe.queues[cls].pop(now)
            link = pipe.link
            t_arrive = now + transmission_ns(pkt.size, link.bandwidth_bps) + link.delay_ns
            lp.emit(fx, t_arrive, link.dst, events.ARRIVE, pkt.copy())
            continue
        if ctx.lazy_shaper:
            retry = pipe.shaper.earliest_ready_ns(head.size, now)
            pipe.blocked_episodes += 1
            lp.emit(fx, retry, lp.node, events.SEND, pipe.port)
        # baseline mode: the next REFILL tick re-runs try_to_send
        return


def handle_refill(lp: RouterLp, port: int, now: int, fx: Effects, ctx):
    pipe = lp.pipelines[port]
    pipe.shaper.add_scaled(
        periodic_refill_amount_scaled(pipe.shaper.rate_bps, ctx.token_interval_ns))
    nxt = now + ctx.token_interval_ns
    if nxt <= ctx.end_time_ns:
        lp.emit(fx, nxt, lp.node, events.REFILL, port)
    if pipe.send_flag:
        try_to_send(lp, pipe, now, fx, ctx)


def handle_generate(lp: RouterLp, flow_idx: int, now: int, fx: Effects, ctx):
    flow = lp.flows[flow_idx]
    pid = flow.pid_base + flow.pkt_seq
    flow.pkt_seq += 1
    if flow.ds is not None:
        ds = flow.ds
    else:
        u = lp.rng.uniform(rng.PURPOSE_DS)
        ds = ctx.sample_ds(u)
    pkt = Packet(pid, lp.node, flow.dst, flow.size, ds, created_ns=now)
    fx.generated += 1
    handle_arrive(lp, pkt, now, fx, ctx)
    if flow.poisson:
        u = lp.rng.uniform(rng.PURPOSE_GEN)
        gap = max(1, round(-math.log(1.0 - u) * flow.interarrival_ns))
    else:
        gap = flow.interarrival_ns
    nxt = now + gap
    if nxt <= ctx.end_time_ns:
        lp.emit(fx, nxt, lp.node, events.GENERATE, flow_idx)


def touched_port(lp: RouterLp, ev) -> int | None:
    """The egress port whose pipeline ``dispatch(lp, ev, ...)`` can change,
    or None when the event changes no pipeline (the packet is for this node
    or has no route)."""
    kind = ev.kind
    if kind == events.ARRIVE:
        dst = ev.payload.dst
    elif kind == events.GENERATE:
        dst = lp.flows[ev.payload].dst
    else:
        return ev.payload  # SEND and REFILL carry their port
    if dst == lp.node:
        return None
    return lp.route_row.get(dst)


def dispatch(lp: RouterLp, ev, ctx) -> Effects:
    """Run the handler for one positive event; returns its effects."""
    fx = Effects()
    if ev.kind == events.ARRIVE:
        handle_arrive(lp, ev.payload, ev.time, fx, ctx)
    elif ev.kind == events.SEND:
        handle_send(lp, ev.payload, ev.time, fx, ctx)
    elif ev.kind == events.GENERATE:
        handle_generate(lp, ev.payload, ev.time, fx, ctx)
    elif ev.kind == events.REFILL:
        handle_refill(lp, ev.payload, ev.time, fx, ctx)
    else:
        raise AssertionError(f"unknown event kind {ev.kind}")
    return fx

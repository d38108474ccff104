"""Per-router logical-process behaviour.

Only two event kinds drive a router: ARRIVE (a packet reached this node) and
SEND (a previously blocked egress port should retry). A per-port flag marks
whether a try-to-send is pending or in progress, so queued packets never
schedule redundant retries; one SEND may drain several packets.

A routed packet makes one pass through its egress port: classify, srTCM
mark, RED decision, then the port. The flag is set when a packet is
queued on an idle port and cleared only when the port's queues are empty,
so a clear flag means every class queue is empty. A packet that finds the
flag clear is therefore the next to leave: if the shaper holds its tokens
it goes on the wire at once (:func:`transmit`), leaving the queue as a
push and pop at the same time would; otherwise it is queued and
:func:`try_to_send` schedules the retry (lazy mode) or waits for the next
REFILL (periodic mode). A packet that finds the flag set is queued for the
pending try-to-send.

All handler effects are appended to an :class:`Effects` value and all state
mutation stays inside this LP. One event changes at most one egress
pipeline, the one :func:`touched_port` names before the event runs, plus
the RNG cursors, the ``seq`` counter and a flow's ``pkt_seq``. A
pipeline's mutable state is one flat list of numbers and one packet list
per class (:class:`EgressPipeline`), so the optimistic kernel's save before
each event (:meth:`RouterLp.clone`) is a few list copies, and a rollback
writes them back (:meth:`RouterLp.restore`).
"""

from __future__ import annotations

import math

from . import events, rng
from .metrics import PacketRecord
from .qos import QosProfile, ClassQueue, RedState, SrtcmMeter, TokenBucket, \
    strict_priority_select, st_field, ENQUEUE
# not called here, but kept importable under this name: the benchmark's
# tracer patches router.periodic_refill_amount_scaled
from .qos import periodic_refill_amount_scaled  # noqa: F401

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


# offsets into EgressPipeline.st; the QoS elements' numbers follow
SEND_FLAG, ARRIVE_COUNT, SEND_COUNT, BLOCKED_EPISODES, STALE_SENDS, REDUNDANT_SENDS = range(6)


class EgressPipeline:
    """QoS pipeline and shaper of one egress port, plus audit counters.

    All mutable state is ``st``, one flat list of numbers (the send flag,
    the five audit counters, then the shaper's, and per class the queue's,
    the meter's and each colour's RED numbers), and ``pkts``, the packet
    list of each class queue. The QoS element objects are views into them
    at fixed offsets and hold only configuration, so a copy of ``st`` and
    of each list in ``pkts`` is a complete save of the pipeline.
    """

    __slots__ = ("port", "link", "profile", "shaper", "queues", "srtcm", "red",
                 "st", "pkts")

    i = 0  # the pipeline's own numbers start st, ahead of its elements'

    send_flag = st_field(SEND_FLAG, "a try-to-send is pending or in progress")
    arrive_count = st_field(ARRIVE_COUNT, "packets routed to this port")
    send_count = st_field(SEND_COUNT, "SEND events acted on")
    blocked_episodes = st_field(BLOCKED_EPISODES, "shaper shortfalls that scheduled a retry")
    stale_sends = st_field(STALE_SENDS, "SEND events found with the flag clear")
    redundant_sends = st_field(REDUNDANT_SENDS, "SEND events found with empty queues")

    def __init__(self, port: int, link, profile: QosProfile):
        self.port = port
        self.link = link
        self.profile = profile
        st = self.st = [False, 0, 0, 0, 0, 0]
        self.shaper = TokenBucket(profile.shaper_burst_bytes, profile.shaper_rate_bps, st=st)
        self.queues = [
            ClassQueue(i, profile.queue_capacity_bytes, st)
            for i in range(profile.num_classes)
        ]
        self.srtcm = [SrtcmMeter(p, st) for p in profile.srtcm]
        self.red = [
            [RedState(p, st) for p in per_class] for per_class in profile.red
        ]
        self.pkts = [q.packets for q in self.queues]


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
        (the event's :func:`touched_port`; None saves no pipeline) as a
        copy of its ``st`` and of its packet lists, the RNG cursors,
        ``seq`` and every flow's ``pkt_seq``."""
        if port is None:
            st = pkts = None
        else:
            pipe = self.pipelines[port]
            st = pipe.st[:]
            pkts = [packets[:] for packets in pipe.pkts]
        return (port, st, pkts, dict(self.rng.cursors), self.seq,
                [f.pkt_seq for f in self.flows])

    def restore(self, saved: tuple):
        """Write a save from :meth:`clone` back into the live state. The
        save itself is left as it was."""
        port, st, pkts, cursors, seq, pkt_seqs = saved
        if port is not None:
            pipe = self.pipelines[port]
            pipe.st[:] = st
            for packets, saved_packets in zip(pipe.pkts, pkts):
                packets[:] = saved_packets
        self.rng.cursors = dict(cursors)
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
    st = pipe.st
    st[ARRIVE_COUNT] += 1
    size = pkt.size
    cls = pkt.class_index = pipe.profile.classifier.classify(pkt.ds)
    color = pkt.color = pipe.srtcm[cls].mark(size, now)
    queue = pipe.queues[cls]
    fits = queue.fits(size)
    # every routed arrival takes one RED cursor, but the value at it is
    # computed only if RED decides by chance
    lp_rng = lp.rng
    cursor = lp_rng.advance(rng.PURPOSE_RED)
    if pipe.red[cls][color].decide(
            queue, fits, now, lambda: lp_rng.uniform_at(rng.PURPOSE_RED, cursor)) != ENQUEUE:
        fx.records.append(PacketRecord(
            pkt.pid, pkt.src, pkt.dst, cls, color,
            pkt.created_ns, None, lp.node, DROP_RED if fits else DROP_QUEUE))
        return
    if st[SEND_FLAG]:
        queue.push(pkt)  # the pending try-to-send reaches it
        return
    # flag clear: every class queue is empty, so this packet goes next
    shaper = pipe.shaper
    if ctx.lazy_shaper:
        shaper.refill(now)
    if shaper.take(size):
        queue.empty_since_ns = now  # as a push and pop at ``now`` leave it
        transmit(lp, pipe, pkt, now, fx)
        return
    queue.push(pkt)
    st[SEND_FLAG] = True
    try_to_send(lp, pipe, now, fx, ctx)


def handle_send(lp: RouterLp, port: int, now: int, fx: Effects, ctx):
    pipe = lp.pipelines[port]
    st = pipe.st
    if not st[SEND_FLAG]:
        # a SEND whose cause was undone by a rollback; ignore it
        st[STALE_SENDS] += 1
        return
    st[SEND_COUNT] += 1
    if strict_priority_select(pipe.queues) is None:
        st[REDUNDANT_SENDS] += 1
    try_to_send(lp, pipe, now, fx, ctx)


def transmit(lp: RouterLp, pipe: EgressPipeline, pkt: Packet, now: int, fx: Effects):
    """Put ``pkt`` on the port's link at ``now``: a copy of it arrives at
    the far end after its transmission time plus the link's delay."""
    link = pipe.link
    lp.emit(fx, now + transmission_ns(pkt.size, link.bandwidth_bps) + link.delay_ns,
            link.dst, events.ARRIVE, pkt.copy())


def try_to_send(lp: RouterLp, pipe: EgressPipeline, now: int, fx: Effects, ctx):
    """Drain the port while the shaper permits; on a token shortfall,
    schedule one retry at the earliest sufficiency time (lazy mode) or wait
    for the next periodic refill (baseline mode). The send flag stays set
    until the port goes idle."""
    shaper = pipe.shaper
    queues = pipe.queues
    while True:
        cls = strict_priority_select(queues)
        if cls is None:
            pipe.st[SEND_FLAG] = False
            return
        if ctx.lazy_shaper:
            shaper.refill(now)
        queue = queues[cls]
        head = queue.head()
        if shaper.take(head.size):
            transmit(lp, pipe, queue.pop(now), now, fx)
            continue
        if ctx.lazy_shaper:
            retry = shaper.earliest_ready_ns(head.size, now)
            pipe.st[BLOCKED_EPISODES] += 1
            lp.emit(fx, retry, lp.node, events.SEND, pipe.port)
        # baseline mode: the next REFILL tick re-runs try_to_send
        return


def handle_refill(lp: RouterLp, port: int, now: int, fx: Effects, ctx):
    pipe = lp.pipelines[port]
    shaper = pipe.shaper
    shaper.add_scaled(shaper.rate_bps * ctx.token_interval_ns)
    nxt = now + ctx.token_interval_ns
    if nxt <= ctx.end_time_ns:
        lp.emit(fx, nxt, lp.node, events.REFILL, port)
    if pipe.st[SEND_FLAG]:
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


# the handler of each event kind, indexed by the kind; built from a mapping
# so that it fails at import if the kinds stop being 0..3
_HANDLERS = tuple({
    events.ARRIVE: handle_arrive, events.SEND: handle_send,
    events.GENERATE: handle_generate, events.REFILL: handle_refill,
}[kind] for kind in range(4))


def dispatch(lp: RouterLp, ev, ctx) -> Effects:
    """Run the handler for one positive event; returns its effects."""
    fx = Effects()
    _HANDLERS[ev.kind](lp, ev.payload, ev.time, fx, ctx)
    return fx

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
it goes on the wire at once, leaving the queue as a push and pop at the
same time would; otherwise it is queued, and the retry is scheduled (lazy
mode) or waits for the next REFILL (periodic mode) as on any token
shortfall of :func:`try_to_send`, without consulting the shaper again. A
packet that finds the flag set is queued for the pending try-to-send.

That cut-through hop is the path nearly every routed packet takes, so
:func:`handle_arrive` emits its ARRIVE in place, with the arithmetic of
:func:`transmit` and :meth:`RouterLp.emit` written out, and classifies
through the tier's table (``QosProfile.classes``). :func:`handle_generate`
and :func:`handle_refill` emit their next GENERATE or REFILL in place the
same way. RED costs little there too: the arrival's RED cursor is advanced
in place in ``RouterLp.st``, and a queue that has never held a byte
enqueues without the EWMA arithmetic or the draw at that cursor
(:meth:`qos.RedState.decide`). Records are built with ``tuple.__new__``,
which skips the named tuple's Python constructor.

All handler effects are appended to an :class:`Effects` value and all state
mutation stays inside this LP; the optimistic kernel keeps one value per
event as the event's history entry, and the sequential loop passes one
value for the whole run. One event changes at most one egress pipeline,
the event's port, plus the LP's own numbers (``RouterLp.st``).
:func:`dispatch` resolves that port once, from the packet's route for
ARRIVE and GENERATE or the payload for SEND and REFILL, and hands it to
the handler; given no :class:`Effects` of the caller's, it makes the
event's own and first takes the save of exactly that state
(:meth:`RouterLp.clone`). A pipeline's QoS elements are its tier's, shared
and immutable (:class:`qos.QosProfile`); its mutable state is one flat
list of numbers and one packet list per class (:class:`EgressPipeline`),
so a save is a few list copies, and a rollback writes them back
(:meth:`RouterLp.restore`).

A hop forwards the :class:`Packet` object it received, not a copy, and a
save holds the queued packets' objects. That is safe because a hop writes
only ``class_index`` and ``color``, and writes both before it reads them;
routes are static and loop-free; the only reader across hops is the record
at the destination (or at a node with no route), which reads the last
router's write. In an optimistic run, every re-execution of a hop for a
packet comes after the anti-message that annihilates the packet's
downstream chain (channels are FIFO and local cancels run at once), so
a record that read the write of a re-executed hop belongs to that chain
and never commits.
"""

from __future__ import annotations

import math

from . import events, rng
from .metrics import PacketRecord
from .qos import (ARRIVE_COUNT, BLOCKED_EPISODES, REDUNDANT_SENDS, SEND_COUNT, SEND_FLAG,
                  STALE_SENDS, QosProfile, strict_priority_select)

PKT_ID_STRIDE = 10**7

# offsets of an LP's own numbers in ``RouterLp.st``: the sequence number of
# its next emission, then its RNG cursors, each at its purpose number, then
# each flow's count of generated packets
SEQ = 0
FLOW_SEQS = 1 + max(rng.PURPOSE_RED, rng.PURPOSE_DS, rng.PURPOSE_GEN)

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

    def __repr__(self):
        return f"Packet({self.pid} {self.src}->{self.dst} {self.size}B ds={self.ds})"


class Effects:
    """What event handlers produced: emissions and terminal packet records.
    The optimistic kernel gives each event its own and keeps it as the
    event's history entry: ``dispatch`` without one makes it and sets
    ``saved``, the LP's save from before the event (:meth:`RouterLp.clone`),
    which undoes it, and the kernel sets ``event``. A sequential run passes
    one to every ``dispatch``: ``records`` collects the run's records and
    ``emitted`` is emptied after each event; nothing sets the other two."""

    __slots__ = ("event", "saved", "emitted", "records")

    def __init__(self):
        self.emitted: list[events.Event] = []
        self.records: list[PacketRecord] = []


def st_field(offset: int, doc: str) -> property:
    """Read/write view of the number at ``st[offset]`` of a pipeline."""

    def get(self):
        return self.st[offset]

    def set(self, value):
        self.st[offset] = value

    return property(get, set, doc=doc)


class EgressPipeline:
    """QoS pipeline and shaper of one egress port, plus audit counters.

    The QoS elements are its ``tier``'s profile (:class:`qos.QosProfile`),
    shared with every other port of the tier, and hold only configuration.
    The port owns all its mutable state: ``st``, its copy of the tier's
    ``initial`` (the send flag and the five audit counters at offsets 0..5,
    then the elements' numbers), and ``pkts``, the packet list of each
    class queue. Every element method takes ``st`` (a queue's also its
    packet list), so a copy of ``st`` and of each list in ``pkts`` is a
    complete save of the pipeline.
    """

    __slots__ = ("port", "link", "tier", "st", "pkts")

    send_flag = st_field(SEND_FLAG, "a try-to-send is pending or in progress")
    arrive_count = st_field(ARRIVE_COUNT, "packets routed to this port")
    send_count = st_field(SEND_COUNT, "SEND events acted on")
    blocked_episodes = st_field(BLOCKED_EPISODES, "shaper shortfalls that scheduled a retry")
    stale_sends = st_field(STALE_SENDS, "SEND events found with the flag clear")
    redundant_sends = st_field(REDUNDANT_SENDS, "SEND events found with empty queues")

    def __init__(self, port: int, link, tier: QosProfile):
        self.port = port
        self.link = link
        self.tier = tier
        self.st = tier.initial.copy()
        self.pkts = [[] for _ in tier.queues]


class FlowGen:
    """Fixed settings of one flow's packet source at this LP; its packet
    count is one of the LP's own numbers (``RouterLp.st``). The packet size
    and the gap draw are the run's (:class:`model.ModelContext`)."""

    __slots__ = ("dst", "interarrival_ns", "ds", "pid_base")

    def __init__(self, dst, interarrival_ns, ds=None, pid_base=0):
        self.dst = dst
        self.interarrival_ns = interarrival_ns
        self.pid_base = pid_base
        self.ds = ds  # None -> draw from the scenario DS distribution


class RouterLp:
    """One node: egress pipelines, routing row, traffic sources and the
    LP's own numbers, ``st`` (laid out at :data:`SEQ` and :data:`FLOW_SEQS`,
    the RNG cursors between), which ``rng`` draws through."""

    __slots__ = ("node", "pipelines", "route_row", "flows", "st", "rng")

    def __init__(self, node, pipelines, route_row, seed, flows):
        self.node = node
        self.pipelines: list[EgressPipeline] = pipelines
        self.route_row: dict[int, int] = route_row
        self.flows: list[FlowGen] = flows
        self.st = [0] * (FLOW_SEQS + len(flows))
        self.rng = rng.CursorRng(seed, node, self.st)

    def clone(self, port: int | None) -> tuple:
        """Save the state one event can change: the pipeline of ``port``
        (the event's port, see :func:`dispatch`; None saves no pipeline) as a
        copy of its ``st`` and of its packet lists (None when every class
        queue is empty, as nearly always), and a copy of the LP's ``st``."""
        if port is None:
            return None, None, None, self.st[:]
        pipe = self.pipelines[port]
        pkts = pipe.pkts
        return (port, pipe.st[:], [packets[:] for packets in pkts] if any(pkts) else None,
                self.st[:])

    def restore(self, saved: tuple):
        """Write a save from :meth:`clone` back into the live state, in
        place, since ``rng`` holds the LP's ``st``. The save itself is left
        as it was."""
        port, st, pkts, own = saved
        if port is not None:
            pipe = self.pipelines[port]
            pipe.st[:] = st
            if pkts is None:
                for packets in pipe.pkts:
                    packets.clear()
            else:
                for packets, saved_packets in zip(pipe.pkts, pkts):
                    packets[:] = saved_packets
        self.st[:] = own

    def emit(self, fx: Effects, time, target, kind, payload):
        st = self.st
        seq = st[SEQ]
        st[SEQ] = seq + 1
        fx.emitted.append(events.Event(time, target, kind, payload, self.node, seq))


def transmission_ns(size_bytes: int, bandwidth_bps: int) -> int:
    return -(-(size_bytes * 8 * 10**9) // bandwidth_bps)


# --------------------------------------------------------------------------
# handlers


def handle_arrive(lp: RouterLp, pkt: Packet, port: int | None, now: int, fx: Effects, ctx):
    if pkt.dst == lp.node:
        fx.records.append(tuple.__new__(PacketRecord, (
            pkt.pid, pkt.src, pkt.dst, pkt.class_index, pkt.color,
            pkt.created_ns, now, None, None)))
        return
    if port is None:
        fx.records.append(tuple.__new__(PacketRecord, (
            pkt.pid, pkt.src, pkt.dst, pkt.class_index, pkt.color,
            pkt.created_ns, None, lp.node, DROP_ROUTING)))
        return
    pipe = lp.pipelines[port]
    tier = pipe.tier
    st = pipe.st
    st[ARRIVE_COUNT] += 1
    size = pkt.size
    cls = pkt.class_index = tier.classes[pkt.ds]
    color = pkt.color = tier.srtcm[cls].mark(st, size, now)
    queue = tier.queues[cls]
    fits = queue.fits(st, size)
    # every routed arrival takes one RED cursor, but the value at it is
    # computed only if RED decides by chance
    lp_st = lp.st
    cursor = lp_st[rng.PURPOSE_RED]
    lp_st[rng.PURPOSE_RED] = cursor + 1
    if not tier.red[cls][color].decide(st, queue, fits, now, lp.rng, cursor):
        fx.records.append(tuple.__new__(PacketRecord, (
            pkt.pid, pkt.src, pkt.dst, cls, color,
            pkt.created_ns, None, lp.node, DROP_RED if fits else DROP_QUEUE)))
        return
    if st[SEND_FLAG]:
        queue.push(st, pipe.pkts[cls], pkt)  # the pending try-to-send reaches it
        return
    # flag clear: every class queue is empty, so this packet goes next
    shaper = tier.shaper
    if not ctx.token_interval_ns:
        shaper.refill(st, now)
    if shaper.take(st, size):
        # on the wire in place, as transmit() would put it: the queue is
        # left as a push and pop at ``now`` leave it (empty_since_ns), and
        # the packet arrives at the far end after its transmission time
        # (transmission_ns) plus the link's delay
        st[queue.i + 1] = now
        link = pipe.link
        seq = lp_st[SEQ]
        lp_st[SEQ] = seq + 1
        fx.emitted.append(events.Event(
            now + -(-size * 8_000_000_000 // link.bandwidth_bps) + link.delay_ns,
            link.dst, events.ARRIVE, pkt, lp.node, seq))
        return
    queue.push(st, pipe.pkts[cls], pkt)
    st[SEND_FLAG] = True
    _blocked(lp, pipe, size, now, fx, ctx)


def handle_send(lp: RouterLp, _payload, port: int, now: int, fx: Effects, ctx):
    pipe = lp.pipelines[port]
    st = pipe.st
    if not st[SEND_FLAG]:
        # a SEND whose cause was undone by a rollback; ignore it
        st[STALE_SENDS] += 1
        return
    st[SEND_COUNT] += 1
    cls = strict_priority_select(pipe.pkts)
    if cls is None:
        st[REDUNDANT_SENDS] += 1
    try_to_send(lp, pipe, cls, now, fx, ctx)


def transmit(lp: RouterLp, pipe: EgressPipeline, pkt: Packet, now: int, fx: Effects):
    """Put ``pkt`` on the port's link at ``now``: it arrives at the far end
    after its transmission time plus the link's delay. The cut-through hop
    of :func:`handle_arrive` does the same in place."""
    link = pipe.link
    lp.emit(fx, now + transmission_ns(pkt.size, link.bandwidth_bps) + link.delay_ns,
            link.dst, events.ARRIVE, pkt)


def try_to_send(lp: RouterLp, pipe: EgressPipeline, cls: int | None, now: int,
                fx: Effects, ctx):
    """Drain the port while the shaper permits, from class ``cls`` on (the
    port's :func:`strict_priority_select`, None when every queue is
    empty); on a token shortfall, schedule one retry at the earliest
    sufficiency time (lazy mode) or wait for the next periodic refill
    (baseline mode). The send flag stays set until the port goes idle."""
    shaper = pipe.tier.shaper
    queues = pipe.tier.queues
    st = pipe.st
    pkts = pipe.pkts
    while cls is not None:
        if not ctx.token_interval_ns:
            shaper.refill(st, now)
        queue = queues[cls]
        packets = pkts[cls]
        head = queue.head(packets)
        if not shaper.take(st, head.size):
            _blocked(lp, pipe, head.size, now, fx, ctx)
            return
        transmit(lp, pipe, queue.pop(st, packets, now), now, fx)
        cls = strict_priority_select(pkts)
    st[SEND_FLAG] = False


def _blocked(lp: RouterLp, pipe: EgressPipeline, size: int, now: int, fx: Effects, ctx):
    """The shaper is short of tokens for the ``size``-byte head packet:
    lazy mode schedules one retry at the earliest sufficiency time; in
    baseline mode the next REFILL tick re-runs :func:`try_to_send`."""
    if not ctx.token_interval_ns:
        st = pipe.st
        st[BLOCKED_EPISODES] += 1
        lp.emit(fx, pipe.tier.shaper.earliest_ready_ns(st, size, now), lp.node,
                events.SEND, pipe.port)


def handle_refill(lp: RouterLp, _payload, port: int, now: int, fx: Effects, ctx):
    pipe = lp.pipelines[port]
    shaper = pipe.tier.shaper
    shaper.add_scaled(pipe.st, shaper.rate_Bps * ctx.token_interval_ns)
    nxt = now + ctx.token_interval_ns
    if nxt <= ctx.end_time_ns:
        # the next tick, emitted in place as the cut-through hop emits
        st = lp.st
        seq = st[SEQ]
        st[SEQ] = seq + 1
        fx.emitted.append(events.Event(nxt, lp.node, events.REFILL, port, lp.node, seq))
    if pipe.st[SEND_FLAG]:
        try_to_send(lp, pipe, strict_priority_select(pipe.pkts), now, fx, ctx)


def handle_generate(lp: RouterLp, flow_idx: int, port: int | None, now: int,
                    fx: Effects, ctx):
    flow = lp.flows[flow_idx]
    st = lp.st
    pkt_seq = st[FLOW_SEQS + flow_idx]
    st[FLOW_SEQS + flow_idx] = pkt_seq + 1
    pid = flow.pid_base + pkt_seq
    if flow.ds is not None:
        ds = flow.ds
    else:
        u = lp.rng.uniform(rng.PURPOSE_DS)
        ds = ctx.sample_ds(u)
    handle_arrive(lp, Packet(pid, lp.node, flow.dst, ctx.packet_size, ds, now),
                  port, now, fx, ctx)
    if ctx.poisson:
        u = lp.rng.uniform(rng.PURPOSE_GEN)
        gap = max(1, round(-math.log(1.0 - u) * flow.interarrival_ns))
    else:
        gap = flow.interarrival_ns
    nxt = now + gap
    if nxt <= ctx.end_time_ns:
        # the flow's next packet, emitted in place as the cut-through hop
        # emits; ``st[SEQ]`` is read after handle_arrive, whose hop may
        # have taken a number
        seq = st[SEQ]
        st[SEQ] = seq + 1
        fx.emitted.append(events.Event(nxt, lp.node, events.GENERATE, flow_idx, lp.node, seq))


# the handler of each event kind, indexed by the kind; built from a mapping
# so that it fails at import if the kinds stop being 0..3
_HANDLERS = tuple({
    events.ARRIVE: handle_arrive, events.SEND: handle_send,
    events.GENERATE: handle_generate, events.REFILL: handle_refill,
}[kind] for kind in range(4))


def dispatch(lp: RouterLp, ev, ctx, fx: Effects | None = None) -> Effects:
    """Run the handler for one positive event; returns its effects.

    Given ``fx`` (a sequential run passes one for the whole run), it
    appends to it and saves nothing. Without one, it makes the event's own
    :class:`Effects`, whose ``saved`` is :meth:`RouterLp.clone` of the
    event's port, taken before the handler runs. That port is the only
    pipeline the event can change: the route of its packet's destination
    for ARRIVE and GENERATE (None when the packet is for this node or has
    no route), the payload for SEND and REFILL."""
    kind = ev.kind
    payload = ev.payload
    if kind == events.ARRIVE:
        port = lp.route_row.get(payload.dst)
    elif kind == events.GENERATE:
        port = lp.route_row.get(lp.flows[payload].dst)
    else:
        port = payload  # SEND and REFILL carry their port
    if fx is None:
        fx = Effects()
        fx.saved = lp.clone(port)
    _HANDLERS[kind](lp, payload, port, ev.time, fx, ctx)
    return fx

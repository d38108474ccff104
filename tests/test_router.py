"""Router handler behaviour: two-event model, send-flag economy, timing,
and the one-port rule that incremental state saving relies on."""

import heapq

import pytest

from dsnetsim import events, rng
from dsnetsim.kernel import run_sequential
from dsnetsim.model import MODE_LAZY, MODE_PERIODIC, build_model
from dsnetsim.router import EgressPipeline, Packet, dispatch, touched_port, transmission_ns
from dsnetsim.routing import compute_routes
from dsnetsim.qos import TOKEN_SCALE, ClassQueue, RedParams, RedState, SrtcmMeter, TokenBucket
from dsnetsim.topology import generate_synthetic_topology
from dsnetsim.traffic import TrafficSpec, Flow
from conftest import line_topology, single_flow_model, tier_profiles, tight_shaper_profiles


def _arrive(pkt, target, t=0, sender=99, seq=0):
    return events.Event(t, target, events.ARRIVE, pkt, sender, seq)


def _send(port, target, t=0, sender=99, seq=0):
    return events.Event(t, target, events.SEND, port, sender, seq)


def test_transmission_delay_matches_paper_rate():
    # 1400 B back-to-back at 15 Gbps -> one packet every 0.747 us
    assert transmission_ns(1400, 15_000_000_000) == 747


def test_delivery_at_sink_emits_nothing():
    model = single_flow_model(line_topology(2), 0, 1)
    pkt = Packet(7, 0, 1, 1400, 0, created_ns=5)
    fx = dispatch(model.lps[1], _arrive(pkt, 1, t=2000), model.ctx)
    assert len(fx.records) == 1
    assert fx.records[0].delivered_ns == 2000
    assert fx.records[0].pid == 7
    assert fx.emitted == []


@pytest.mark.parametrize("mode", [MODE_LAZY, MODE_PERIODIC])
def test_forward_on_idle_port_schedules_neighbor_arrival(mode):
    model = single_flow_model(line_topology(2), 0, 1, mode=mode,
                              token_interval_ns=1_000 if mode == MODE_PERIODIC else 0)
    pipe = model.lps[0].pipelines[0]
    pkt = Packet(7, 0, 1, 1400, 0, created_ns=0)
    fx = dispatch(model.lps[0], _arrive(pkt, 0, t=100), model.ctx)
    assert len(fx.emitted) == 1
    em = fx.emitted[0]
    # 1400 B at 25 Gbps = ceil(448.0) ns transmission + 1000 ns propagation
    assert em.kind == events.ARRIVE
    assert em.target == 1
    assert em.time == 100 + transmission_ns(1400, 25_000_000_000) + 1_000
    assert em.time == 100 + 448 + 1_000
    # the forwarded packet is a copy, not the arriving object
    assert em.payload is not pkt
    # the port is left as a push and pop at t=100 leave it
    queue = pipe.queues[2]
    assert queue.byte_length == 0 and queue.packets == []
    assert queue.empty_since_ns == 100
    assert not pipe.send_flag


def test_arrive_with_flag_set_queues_without_new_events():
    model = single_flow_model(line_topology(2), 0, 1)
    lp = model.lps[0]
    pipe = lp.pipelines[0]
    pipe.send_flag = True  # a try-to-send is already pending
    pkt = Packet(7, 0, 1, 1400, 0, created_ns=0)
    fx = dispatch(lp, _arrive(pkt, 0, t=100), model.ctx)
    assert fx.emitted == []
    assert sum(len(q.packets) for q in pipe.queues) == 1


def test_no_route_drops_with_routing_stage():
    model = single_flow_model(line_topology(2), 0, 1)
    lp = model.lps[0]
    pkt = Packet(7, 0, 55, 1400, 0, created_ns=0)  # unknown destination
    fx = dispatch(lp, _arrive(pkt, 0, t=100), model.ctx)
    assert fx.emitted == []
    assert fx.records[0].drop_stage == "routing"
    assert fx.records[0].drop_node == 0


def test_drop_stage_tells_a_full_queue_from_red():
    model = single_flow_model(line_topology(2), 0, 1,
                              profiles=tier_profiles(queue_capacity_bytes=2_000))
    lp = model.lps[0]
    pipe = lp.pipelines[0]
    pipe.send_flag = True  # keep arrivals queued
    stages = []
    for pid, size in enumerate((1400, 1400, 500)):
        if pid == 2:  # the 500 B packet fits, but RED's average is far above max_th
            for red in pipe.red[2]:
                red.avg = 1e9
        fx = dispatch(lp, _arrive(Packet(pid, 0, 1, size, 0, created_ns=0), 0, t=100 + pid),
                      model.ctx)
        stages.append(fx.records[0].drop_stage if fx.records else None)
    assert stages == [None, "queue", "red"]


@pytest.mark.parametrize("nudge", [1 + 1e-9, 1 - 1e-9], ids=["drop", "enqueue"])
def test_red_decides_on_the_draw_at_its_arrivals_cursor(nudge):
    """Every routed arrival takes one RED cursor, although RED computes the
    random value only when it decides by chance; so that value is the draw
    at the arrival's cursor, also when the arrival re-runs after a restore."""
    n = 5
    u = rng.draw_uniform(42, 0, rng.PURPOSE_RED, n)
    assert u < 0.5  # so that max_p = 2u is a probability
    # weight 1 makes the average the queue length; 2,000 B queued is halfway
    # from min_th to max_th, where the drop probability is max_p / 2, just
    # above or below u
    red = RedParams(1_000, 3_000, 2 * u * nudge, weight=1.0)
    model = single_flow_model(line_topology(2), 0, 1, seed=42,
                              profiles=tier_profiles(red=[[red] * 3] * 3))
    lp = model.lps[0]
    pipe = lp.pipelines[0]
    for pid in range(n):
        fx = dispatch(lp, _arrive(Packet(pid, 0, 1, 1400, 0, created_ns=0), 0, t=100 + pid),
                      model.ctx)
        assert fx.records == [] and len(fx.emitted) == 1
    assert all(r.avg < red.min_th_bytes for row in pipe.red for r in row)
    assert lp.rng.cursors[rng.PURPOSE_RED] == n
    pipe.queues[2].push(Packet(99, 0, 1, 2_000, 0, created_ns=0))
    pipe.send_flag = True
    saved = lp.clone(0)
    for _ in range(2):
        fx = dispatch(lp, _arrive(Packet(n, 0, 1, 1400, 0, created_ns=0), 0, t=200),
                      model.ctx)
        assert [r.drop_stage for r in fx.records] == (["red"] if nudge > 1 else [])
        assert lp.rng.cursors[rng.PURPOSE_RED] == n + 1
        lp.restore(saved)
    assert lp.rng.cursors[rng.PURPOSE_RED] == n
    assert lp.rng.uniform(rng.PURPOSE_RED) == u


def test_one_send_drains_multiple_packets():
    model = single_flow_model(line_topology(2), 0, 1)
    lp = model.lps[0]
    pipe = lp.pipelines[0]
    for i in range(3):
        q = pipe.queues[2]
        pkt = Packet(i, 0, 1, 1400, 0, created_ns=0, class_index=2, color=0)
        q.push(pkt)
    pipe.send_flag = True
    fx = dispatch(lp, _send(0, 0, t=500), model.ctx)
    kinds = [em.kind for em in fx.emitted]
    assert kinds == [events.ARRIVE] * 3
    assert not pipe.send_flag
    assert pipe.send_count == 1


@pytest.mark.parametrize("mode", [MODE_LAZY, MODE_PERIODIC])
@pytest.mark.parametrize("cause", ["send", "idle-arrival"])
def test_tokens_for_first_packet_only_blocks_with_retry(cause, mode):
    """A shaper shortfall leaves the packet queued and the flag set. Lazy
    mode schedules one retry at the earliest sufficiency time; periodic
    mode emits nothing and waits for the next REFILL. On a SEND, the
    packet the tokens cover leaves first; a packet arriving at an idle
    port that the tokens do not cover is queued, not passed through."""
    model = single_flow_model(line_topology(2), 0, 1, mode=mode,
                              token_interval_ns=1_000 if mode == MODE_PERIODIC else 0)
    lp = model.lps[0]
    pipe = lp.pipelines[0]
    pipe.shaper.last_update_ns = 500
    pipe.shaper.rate_bps = 1000  # slow refill so the retry is in the future
    if cause == "send":
        for i in range(2):
            pkt = Packet(i, 0, 1, 1400, 0, created_ns=0, class_index=2, color=0)
            pipe.queues[2].push(pkt)
        pipe.send_flag = True
        pipe.shaper.tokens_scaled = 1400 * TOKEN_SCALE
        fx = dispatch(lp, _send(0, 0, t=500), model.ctx)
        sent = [events.ARRIVE]
    else:
        pipe.shaper.tokens_scaled = 700 * TOKEN_SCALE
        fx = dispatch(lp, _arrive(Packet(0, 0, 1, 1400, 0, created_ns=0), 0, t=500),
                      model.ctx)
        sent = []
    kinds = [em.kind for em in fx.emitted]
    assert [p.pid for p in pipe.queues[2].packets] == [1 if cause == "send" else 0]
    assert pipe.queues[2].byte_length == 1400
    assert pipe.send_flag  # stays set while the packet waits for tokens
    if mode == MODE_PERIODIC:
        assert kinds == sent
        assert pipe.blocked_episodes == 0
        return
    assert kinds == sent + [events.SEND]
    retry = fx.emitted[-1]
    assert retry.target == 0 and retry.payload == 0
    assert retry.time == pipe.shaper.earliest_ready_ns(1400, 500)
    assert pipe.blocked_episodes == 1


def test_stale_send_is_ignored_and_counted():
    model = single_flow_model(line_topology(2), 0, 1)
    lp = model.lps[0]
    pipe = lp.pipelines[0]
    fx = dispatch(lp, _send(0, 0, t=500), model.ctx)
    assert fx.emitted == [] and fx.records == []
    assert pipe.stale_sends == 1
    assert pipe.send_count == 0


def test_late_high_priority_packet_jumps_the_retry():
    model = single_flow_model(line_topology(2), 0, 1)
    lp = model.lps[0]
    pipe = lp.pipelines[0]
    # a best-effort packet is blocked behind an empty shaper, retry pending
    low = Packet(1, 0, 1, 1400, 0, created_ns=0, class_index=2, color=0)
    pipe.queues[2].push(low)
    pipe.send_flag = True
    pipe.shaper.tokens_scaled = 0
    pipe.shaper.last_update_ns = 100
    # an EF packet arrives while the retry is outstanding: queued, no events
    high = Packet(2, 0, 1, 1400, 46, created_ns=0)
    fx = dispatch(lp, _arrive(high, 0, t=200), model.ctx)
    assert fx.emitted == []
    # when the retry fires with tokens, the high-priority packet leaves first
    pipe.shaper.tokens_scaled = 2 * 1400 * TOKEN_SCALE
    pipe.shaper.last_update_ns = 5000
    fx = dispatch(lp, _send(0, 0, t=5000), model.ctx)
    sent = [em.payload.pid for em in fx.emitted if em.kind == events.ARRIVE]
    assert sent == [2, 1]


def test_empty_queue_send_clears_flag():
    model = single_flow_model(line_topology(2), 0, 1)
    lp = model.lps[0]
    pipe = lp.pipelines[0]
    pipe.send_flag = True
    fx = dispatch(lp, _send(0, 0, t=500), model.ctx)
    assert fx.emitted == []
    assert not pipe.send_flag
    assert pipe.redundant_sends == 1


def test_generate_chains_and_stamps_packet_ids():
    model = single_flow_model(line_topology(2), 0, 1, rate_pps=10**6,
                              end_ns=10_000)
    lp = model.lps[0]
    gen = events.Event(0, 0, events.GENERATE, 0, 0, 0)
    fx = dispatch(lp, gen, model.ctx)
    assert fx.generated == 1
    kinds = sorted(em.kind for em in fx.emitted)
    assert kinds == [events.ARRIVE, events.GENERATE]
    nxt = [em for em in fx.emitted if em.kind == events.GENERATE][0]
    assert nxt.time == 1_000  # 10^6 pps -> 1000 ns interarrival
    arr = [em for em in fx.emitted if em.kind == events.ARRIVE][0]
    assert arr.payload.pid == 0 * 10**7 + 0


def test_refill_chains_one_tick():
    topo = line_topology(2)
    model = single_flow_model(topo, 0, 1, end_ns=10_000,
                              mode=MODE_PERIODIC, token_interval_ns=1_000)
    lp = model.lps[0]
    refill = events.Event(1_000, 0, events.REFILL, 0, 0, 0)
    fx = dispatch(lp, refill, model.ctx)
    chained = [em for em in fx.emitted if em.kind == events.REFILL]
    assert len(chained) == 1
    assert chained[0].time == 2_000 and chained[0].target == 0


def test_refill_tick_count_doubles_when_interval_halves():
    topo = line_topology(3)
    spec = TrafficSpec(pattern="explicit", flows=(Flow(0, 2, 10_000),))
    routes = compute_routes(topo)

    def events_at(interval):
        model = build_model(topo, routes, spec, end_time_ns=1_000_000, seed=1,
                            mode=MODE_PERIODIC, token_interval_ns=interval)
        return run_sequential(model).committed_events

    lazy_events = run_sequential(
        build_model(topo, routes, spec, end_time_ns=1_000_000, seed=1)
    ).committed_events
    # 4 connected directed ports in a 3-node line
    ticks = lambda interval: 4 * (1_000_000 // interval)
    assert events_at(10_000) == lazy_events + ticks(10_000)
    assert events_at(5_000) == lazy_events + ticks(5_000)
    assert ticks(5_000) == 2 * ticks(10_000)


# left out of _state: shared immutable configuration, the RNG's prefix cache
# (derived from the seed and the LP id) and the QoS element views, whose
# numbers and packets are the pipeline's st and pkts
_NOT_STATE = ("link", "profile", "params", "prefixes", "shaper", "queues", "srtcm", "red")


def _state(obj):
    """Copy of an object's mutable state as nested tuples and dicts, for
    equality checks."""
    if isinstance(obj, (list, tuple)):
        return tuple(_state(x) for x in obj)
    if isinstance(obj, dict):
        return {k: _state(v) for k, v in obj.items()}
    slots = getattr(type(obj), "__slots__", None)
    if slots is None:
        return obj
    return tuple(_state(getattr(obj, name)) for name in slots
                 if name not in _NOT_STATE)


@pytest.mark.parametrize("model_kwargs", [
    dict(),
    dict(mode=MODE_PERIODIC, token_interval_ns=5_000),
], ids=["tight-shaper", "periodic-refill"])
def test_event_changes_only_its_touched_port_and_restore_undoes_it(model_kwargs):
    """The incremental save is complete and isolated: an event leaves every
    pipeline but its touched port alone and shares no live object with its
    save, and restoring the save gives back the whole LP state."""
    topo = generate_synthetic_topology(10, 3, 2, seed=1)
    model = build_model(topo, compute_routes(topo),
                        TrafficSpec(rate_pps=100_000, seed=5),
                        end_time_ns=300_000, seed=42,
                        profiles=tight_shaper_profiles(), **model_kwargs)
    heap = [(ev.key, ev) for ev in model.bootstrap]
    heapq.heapify(heap)
    kinds = set()
    while heap:
        _, ev = heapq.heappop(heap)
        if ev.time > model.end_time_ns:
            break
        lp = model.lps[ev.target]
        port = touched_port(lp, ev)
        before = _state(lp)
        others = {p.port: _state(p) for p in lp.pipelines
                  if p is not None and p.port != port}
        saved = lp.clone(port)
        saved_state = _state(saved)
        dispatch(lp, ev, model.ctx)
        assert _state(saved) == saved_state, f"{ev} changed its own save"
        assert others == {p.port: _state(p) for p in lp.pipelines
                          if p is not None and p.port != port}, \
            f"{ev} changed a port other than {port}"
        lp.restore(saved)
        assert _state(lp) == before, f"restore did not undo {ev}"
        fx = dispatch(lp, ev, model.ctx)
        kinds.add(ev.kind)
        for em in fx.emitted:
            heapq.heappush(heap, (em.key, em))
    expected = {events.ARRIVE, events.GENERATE,
                events.REFILL if "mode" in model_kwargs else events.SEND}
    assert expected <= kinds


# EgressPipeline fields that never change after construction: the port's
# identity and configuration, and the QoS element views into st and pkts
PIPELINE_CONFIG = {"port", "link", "profile", "shaper", "queues", "srtcm", "red"}
# what RouterLp.clone copies of a pipeline
PIPELINE_SAVED = {"st", "pkts"}


def test_pipeline_state_is_what_the_save_copies():
    """A pipeline field is either configuration or in the save, and the QoS
    elements keep their numbers in the pipeline's st, so a new mutable
    field cannot escape the save."""
    assert set(EgressPipeline.__slots__) == PIPELINE_CONFIG | PIPELINE_SAVED
    config = {"params", "capacity_bytes", "rate_bps", "class_index"}
    for cls in (TokenBucket, SrtcmMeter, ClassQueue, RedState):
        # st and i place the element's numbers; packets is one of pkts
        assert set(cls.__slots__) <= config | {"st", "i", "packets"}, cls
    model = single_flow_model(line_topology(2), 0, 1)
    lp = model.lps[0]
    pipe = lp.pipelines[0]
    views = [pipe.shaper, *pipe.queues, *pipe.srtcm, *(r for row in pipe.red for r in row)]
    assert all(v.st is pipe.st for v in views)
    assert [id(q.packets) for q in pipe.queues] == [id(p) for p in pipe.pkts]
    port, st, pkts, *_ = lp.clone(0)
    assert port == 0
    assert st == pipe.st and st is not pipe.st
    assert pkts == pipe.pkts and all(a is not b for a, b in zip(pkts, pipe.pkts))

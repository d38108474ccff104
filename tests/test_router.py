"""Router handler behaviour: two-event model, send-flag economy, timing,
and the one-port rule that incremental state saving relies on."""

import heapq

import pytest

from dsnetsim import events, rng
from dsnetsim.kernel import run_sequential
from dsnetsim.model import ModelError, build_model
from dsnetsim.router import (
    FLOW_SEQS, SEQ, Effects, EgressPipeline, Packet, dispatch, transmission_ns,
)
from dsnetsim.routing import compute_routes
from dsnetsim.scenario import MODE_SEQUENTIAL, build_scenario_model, load_scenario
from dsnetsim.qos import (
    BLOCKED_EPISODES, PORT_INITIAL, REDUNDANT_SENDS, SEND_COUNT, SEND_FLAG, STALE_SENDS,
    TOKEN_SCALE, ClassQueue, Color, QosProfile, RedParams, RedState, SrtcmMeter, TokenBucket,
)
from dsnetsim.topology import NodeTier, generate_synthetic_topology
from dsnetsim.traffic import Flow, TrafficSpec, resolve_flows
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


@pytest.mark.parametrize("token_interval_ns", [0, 1_000], ids=["lazy", "periodic"])
def test_forward_on_idle_port_schedules_neighbor_arrival(token_interval_ns):
    model = single_flow_model(line_topology(2), 0, 1, token_interval_ns=token_interval_ns)
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
    # the forwarded packet is the arriving object (see the router module)
    assert em.payload is pkt
    # the port is left as a push and pop at t=100 leave it
    queue = pipe.tier.queues[2]
    assert pipe.st[queue.i] == 0 and pipe.pkts[2] == []
    assert pipe.st[queue.i + 1] == 100
    assert not pipe.st[SEND_FLAG]


def test_dispatch_appends_into_the_effects_it_is_given():
    # run_sequential passes one Effects for the whole run
    model = single_flow_model(line_topology(2), 0, 1)
    fx = Effects()
    delivered = _arrive(Packet(7, 0, 1, 1400, 0, created_ns=5), 1, t=2000)
    forwarded = _arrive(Packet(8, 0, 1, 1400, 0, created_ns=0), 0, t=100)
    assert dispatch(model.lps[1], delivered, model.ctx, fx=fx) is fx
    assert dispatch(model.lps[0], forwarded, model.ctx, fx=fx) is fx
    assert [r.pid for r in fx.records] == [7]
    assert [em.payload.pid for em in fx.emitted] == [8]
    assert not hasattr(fx, "event") and not hasattr(fx, "saved")


def test_dispatch_without_effects_returns_the_event_s_own_with_its_save():
    # the optimistic kernel passes none: the event's Effects is its history
    # entry, and its save undoes the event
    model = single_flow_model(line_topology(2), 0, 1)
    lp = model.lps[0]
    before = _state(lp)
    fx = dispatch(lp, _arrive(Packet(8, 0, 1, 1400, 0, created_ns=0), 0, t=100), model.ctx)
    assert [em.payload.pid for em in fx.emitted] == [8] and fx.records == []
    assert fx.saved[0] == 0  # the event's port
    assert _state(lp) != before
    lp.restore(fx.saved)
    assert _state(lp) == before
    assert not hasattr(fx, "event")  # the kernel sets it


def test_arrive_with_flag_set_queues_without_new_events():
    model = single_flow_model(line_topology(2), 0, 1)
    lp = model.lps[0]
    pipe = lp.pipelines[0]
    pipe.st[SEND_FLAG] = True  # a try-to-send is already pending
    pkt = Packet(7, 0, 1, 1400, 0, created_ns=0)
    fx = dispatch(lp, _arrive(pkt, 0, t=100), model.ctx)
    assert fx.emitted == []
    assert sum(len(packets) for packets in pipe.pkts) == 1


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
    pipe.st[SEND_FLAG] = True  # keep arrivals queued
    stages = []
    for pid, size in enumerate((1400, 1400, 500)):
        if pid == 2:  # the 500 B packet fits, but RED's average is far above max_th
            for red in pipe.tier.red[2]:
                pipe.st[red.i] = 1e9
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
                              profiles=tier_profiles(red=dict.fromkeys(Color, red)))
    lp = model.lps[0]
    pipe = lp.pipelines[0]
    for pid in range(n):
        fx = dispatch(lp, _arrive(Packet(pid, 0, 1, 1400, 0, created_ns=0), 0, t=100 + pid),
                      model.ctx)
        assert fx.records == [] and len(fx.emitted) == 1
    assert all(pipe.st[r.i] < red.min_th_bytes for row in pipe.tier.red for r in row)
    assert lp.rng.cursors[rng.PURPOSE_RED] == n
    pipe.tier.queues[2].push(pipe.st, pipe.pkts[2], Packet(99, 0, 1, 2_000, 0, created_ns=0))
    pipe.st[SEND_FLAG] = True
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
        q = pipe.tier.queues[2]
        pkt = Packet(i, 0, 1, 1400, 0, created_ns=0, class_index=2, color=0)
        q.push(pipe.st, pipe.pkts[2], pkt)
    pipe.st[SEND_FLAG] = True
    fx = dispatch(lp, _send(0, 0, t=500), model.ctx)
    kinds = [em.kind for em in fx.emitted]
    assert kinds == [events.ARRIVE] * 3
    assert not pipe.st[SEND_FLAG]
    assert pipe.st[SEND_COUNT] == 1


@pytest.mark.parametrize("token_interval_ns", [0, 1_000], ids=["lazy", "periodic"])
@pytest.mark.parametrize("cause", ["send", "idle-arrival"])
def test_tokens_for_first_packet_only_blocks_with_retry(cause, token_interval_ns, monkeypatch):
    """A shaper shortfall leaves the packet queued and the flag set. Lazy
    mode schedules one retry at the earliest sufficiency time; periodic
    mode emits nothing and waits for the next REFILL. On a SEND, the
    packet the tokens cover leaves first; a packet arriving at an idle
    port that the tokens do not cover is queued, not passed through, and
    the shaper is asked once."""
    calls = {"refill": 0, "take": 0}
    for name in calls:
        def counting(self, *args, _name=name, _call=getattr(TokenBucket, name)):
            calls[_name] += 1
            return _call(self, *args)
        monkeypatch.setattr(TokenBucket, name, counting)
    # slow refill so the retry is in the future
    model = single_flow_model(line_topology(2), 0, 1, token_interval_ns=token_interval_ns,
                              profiles=tier_profiles(shaper_rate_Bps=1000))
    lp = model.lps[0]
    pipe = lp.pipelines[0]
    st, shaper = pipe.st, pipe.tier.shaper
    st[shaper.i + 1] = 500
    if cause == "send":
        for i in range(2):
            pkt = Packet(i, 0, 1, 1400, 0, created_ns=0, class_index=2, color=0)
            pipe.tier.queues[2].push(st, pipe.pkts[2], pkt)
        pipe.st[SEND_FLAG] = True
        st[shaper.i] = 1400 * TOKEN_SCALE
        fx = dispatch(lp, _send(0, 0, t=500), model.ctx)
        sent = [events.ARRIVE]
    else:
        st[shaper.i] = 700 * TOKEN_SCALE
        fx = dispatch(lp, _arrive(Packet(0, 0, 1, 1400, 0, created_ns=0), 0, t=500),
                      model.ctx)
        sent = []
    kinds = [em.kind for em in fx.emitted]
    if cause == "idle-arrival":
        assert calls == {"refill": 0 if token_interval_ns else 1, "take": 1}
    assert [p.pid for p in pipe.pkts[2]] == [1 if cause == "send" else 0]
    assert st[pipe.tier.queues[2].i] == 1400
    assert pipe.st[SEND_FLAG]  # stays set while the packet waits for tokens
    if token_interval_ns:
        assert kinds == sent
        assert pipe.st[BLOCKED_EPISODES] == 0
        return
    assert kinds == sent + [events.SEND]
    retry = fx.emitted[-1]
    assert retry.target == 0 and retry.payload == 0
    assert retry.time == shaper.earliest_ready_ns(st, 1400, 500)
    assert pipe.st[BLOCKED_EPISODES] == 1


def test_stale_send_is_ignored_and_counted():
    model = single_flow_model(line_topology(2), 0, 1)
    lp = model.lps[0]
    pipe = lp.pipelines[0]
    fx = dispatch(lp, _send(0, 0, t=500), model.ctx)
    assert fx.emitted == [] and fx.records == []
    assert pipe.st[STALE_SENDS] == 1
    assert pipe.st[SEND_COUNT] == 0


def test_late_high_priority_packet_jumps_the_retry():
    model = single_flow_model(line_topology(2), 0, 1)
    lp = model.lps[0]
    pipe = lp.pipelines[0]
    # a best-effort packet is blocked behind an empty shaper, retry pending
    low = Packet(1, 0, 1, 1400, 0, created_ns=0, class_index=2, color=0)
    st, shaper = pipe.st, pipe.tier.shaper
    pipe.tier.queues[2].push(st, pipe.pkts[2], low)
    pipe.st[SEND_FLAG] = True
    st[shaper.i] = 0
    st[shaper.i + 1] = 100
    # an EF packet arrives while the retry is outstanding: queued, no events
    high = Packet(2, 0, 1, 1400, 46, created_ns=0)
    fx = dispatch(lp, _arrive(high, 0, t=200), model.ctx)
    assert fx.emitted == []
    # when the retry fires with tokens, the high-priority packet leaves first
    st[shaper.i] = 2 * 1400 * TOKEN_SCALE
    st[shaper.i + 1] = 5000
    fx = dispatch(lp, _send(0, 0, t=5000), model.ctx)
    sent = [em.payload.pid for em in fx.emitted if em.kind == events.ARRIVE]
    assert sent == [2, 1]


def test_empty_queue_send_clears_flag():
    model = single_flow_model(line_topology(2), 0, 1)
    lp = model.lps[0]
    pipe = lp.pipelines[0]
    pipe.st[SEND_FLAG] = True
    fx = dispatch(lp, _send(0, 0, t=500), model.ctx)
    assert fx.emitted == []
    assert not pipe.st[SEND_FLAG]
    assert pipe.st[REDUNDANT_SENDS] == 1


def test_generate_chains_and_stamps_packet_ids():
    model = single_flow_model(line_topology(2), 0, 1, rate_pps=10**6,
                              end_ns=10_000)
    lp = model.lps[0]
    gen = events.Event(0, 0, events.GENERATE, 0, 0, 0)
    fx = dispatch(lp, gen, model.ctx)
    assert lp.st[FLOW_SEQS] == 1
    kinds = sorted(em.kind for em in fx.emitted)
    assert kinds == [events.ARRIVE, events.GENERATE]
    nxt = [em for em in fx.emitted if em.kind == events.GENERATE][0]
    assert nxt.time == 1_000  # 10^6 pps -> 1000 ns interarrival
    arr = [em for em in fx.emitted if em.kind == events.ARRIVE][0]
    assert arr.payload.pid == 0 * 10**7 + 0


def test_refill_chains_one_tick():
    topo = line_topology(2)
    model = single_flow_model(topo, 0, 1, end_ns=10_000, token_interval_ns=1_000)
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
        model = build_model(topo, routes, spec, resolve_flows(spec, topo),
                            end_time_ns=1_000_000, seed=1, token_interval_ns=interval)
        return run_sequential(model).committed_events

    lazy_events = run_sequential(
        build_model(topo, routes, spec, resolve_flows(spec, topo), end_time_ns=1_000_000, seed=1)
    ).committed_events
    # 4 connected directed ports in a 3-node line
    ticks = lambda interval: 4 * (1_000_000 // interval)
    assert events_at(10_000) == lazy_events + ticks(10_000)
    assert events_at(5_000) == lazy_events + ticks(5_000)
    assert ticks(5_000) == 2 * ticks(10_000)


def test_negative_token_interval_is_a_model_error():
    with pytest.raises(ModelError, match="token_interval_ns"):
        single_flow_model(line_topology(2), 0, 1, token_interval_ns=-1)


@pytest.mark.parametrize("token_interval_ns", (0, 1_000), ids=("lazy", "periodic"))
def test_packet_larger_than_a_used_tiers_burst_is_a_model_error(token_interval_ns):
    # no such packet could pass the shaper: a lazy run would fail mid-run,
    # and a periodic one would end with its packets stuck in the queues
    topo = generate_synthetic_topology(40, 8, 2, seed=1)
    spec = TrafficSpec(packet_size=20_000)
    with pytest.raises(ModelError, match="packet_size 20000 B exceeds the access tier's "
                                         "shaper burst of 16384 B"):
        build_model(topo, compute_routes(topo), spec, resolve_flows(spec, topo),
                    end_time_ns=200_000, seed=1,
                    token_interval_ns=token_interval_ns)
    # a tier no node of the topology has is not checked
    profiles = {**tier_profiles(), NodeTier.KERNEL: QosProfile(shaper_burst_bytes=1_000)}
    single_flow_model(line_topology(2), 0, 1, profiles=profiles,
                      token_interval_ns=token_interval_ns)


# left out of _state: shared immutable configuration, the RNG's prefix cache
# (derived from the seed and the LP id) and the tier's QoS elements, which
# hold only configuration and the offsets of their numbers in a port's st
_NOT_STATE = ("link", "tier", "prefixes")


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
    dict(token_interval_ns=5_000),
], ids=["tight-shaper", "periodic-refill"])
def test_event_changes_only_its_touched_port_and_restore_undoes_it(model_kwargs):
    """The incremental save is complete and isolated: an event leaves every
    pipeline but the port ``dispatch`` saved alone and shares no live object
    with its save, and restoring the save gives back the whole LP state."""
    topo = generate_synthetic_topology(10, 3, 2, seed=1)
    spec = TrafficSpec(rate_pps=100_000, seed=5)
    model = build_model(topo, compute_routes(topo), spec, resolve_flows(spec, topo),
                        end_time_ns=300_000, seed=42,
                        profiles=tight_shaper_profiles(), **model_kwargs)
    heap = [(ev.key, ev) for ev in model.bootstrap]
    heapq.heapify(heap)
    kinds = set()
    while heap:
        _, ev = heapq.heappop(heap)
        if ev.time > model.ctx.end_time_ns:
            break
        lp = model.lps[ev.target]
        before = _state(lp)
        pipes = {p.port: _state(p) for p in lp.pipelines if p is not None}
        saved = dispatch(lp, ev, model.ctx).saved
        port = saved[0]
        pipes.pop(port, None)
        assert pipes == {p.port: _state(p) for p in lp.pipelines
                         if p is not None and p.port != port}, \
            f"{ev} changed a port other than {port}"
        lp.restore(saved)
        assert _state(lp) == before, f"restore did not undo {ev}"
        assert _state(saved) == _state(lp.clone(port)), f"{ev} changed its own save"
        fx = dispatch(lp, ev, model.ctx)
        kinds.add(ev.kind)
        for em in fx.emitted:
            heapq.heappush(heap, (em.key, em))
    expected = {events.ARRIVE, events.GENERATE,
                events.REFILL if "token_interval_ns" in model_kwargs else events.SEND}
    assert expected <= kinds


# EgressPipeline fields that never change after construction: the port's
# identity and link, and its tier's shared QoS elements
PIPELINE_CONFIG = {"port", "link", "tier"}
# what RouterLp.clone copies of a pipeline
PIPELINE_SAVED = {"st", "pkts"}


def _elements(tier):
    return [tier.shaper, *tier.queues, *tier.srtcm, *(r for row in tier.red for r in row)]


def test_pipeline_state_is_what_the_save_copies():
    """A pipeline field is either configuration or in the save, and a QoS
    element holds only its configuration and the offset ``i`` of its
    numbers in the pipeline's st, so a new mutable field cannot escape the
    save."""
    assert set(EgressPipeline.__slots__) == PIPELINE_CONFIG | PIPELINE_SAVED
    config = {"params", "capacity_bytes", "rate_Bps",
              "capacity_scaled", "cir_Bps", "cbs_scaled", "ebs_scaled"}
    for cls in (TokenBucket, SrtcmMeter, ClassQueue, RedState):
        # no st and no packets: those are each port's own
        assert "i" in cls.__slots__ and set(cls.__slots__) <= config | {"i"}, cls
    model = single_flow_model(line_topology(2), 0, 1)
    lp = model.lps[0]
    pipe = lp.pipelines[0]
    pipe.tier.queues[1].push(pipe.st, pipe.pkts[1], Packet(7, 0, 1, 1400, 26, created_ns=0))
    port, st, pkts, *_ = lp.clone(0)
    assert port == 0
    assert st == pipe.st and st is not pipe.st
    assert pkts == pipe.pkts and all(a is not b for a, b in zip(pkts, pipe.pkts))
    # with every class queue empty the save holds None for the packet lists
    pipe.tier.queues[1].pop(pipe.st, pipe.pkts[1], 0)
    assert lp.clone(0)[2] is None


def test_port_audit_counts_every_routed_arrival():
    """The sending port's ``arrive`` counts each generated packet once, the
    audit's side of a packet's conservation."""
    rep = run_sequential(single_flow_model(line_topology(2), 0, 1))
    assert rep.generated > 0
    assert rep.port_audit[(0, 0)]["arrive"] == rep.generated


def test_pipelines_of_one_tier_share_a_layout_but_no_state():
    """Every pipeline of a tier holds its tier's profile, the one element
    set, and starts from a copy of the profile's initial numbers, which lay
    out the port's own at offsets 0..5 and the elements' after them; it
    shares no mutable list with another pipeline or with the profile."""
    model = single_flow_model(line_topology(3), 0, 2)
    pipes = [p for lp in model.lps.values() for p in lp.pipelines]
    assert len({model.topology.tiers[n] for n in model.lps}) == 1 and len(pipes) == 4
    tier = pipes[0].tier
    fresh = QosProfile()  # the profile single_flow_model builds
    assert [e.i for e in _elements(tier)] == [e.i for e in _elements(fresh)]
    for pipe in pipes:
        assert pipe.tier is tier
        assert pipe.st == fresh.initial == tier.initial
        assert pipe.st[:6] == list(PORT_INITIAL)
        assert min(e.i for e in _elements(tier)) == len(PORT_INITIAL)
        assert pipe.pkts == [[], [], []]
    lists = [id(tier.initial)] + [id(p.st) for p in pipes] + [id(q) for p in pipes for q in p.pkts]
    assert len(set(lists)) == len(lists)


def test_restore_empties_queues_that_were_empty_at_the_save():
    model = single_flow_model(line_topology(2), 0, 1)
    lp = model.lps[0]
    pipe = lp.pipelines[0]
    saved = lp.clone(0)
    before = _state(lp)
    pipe.st[SEND_FLAG] = True  # so the arrival is queued
    dispatch(lp, _arrive(Packet(7, 0, 1, 1400, 0, created_ns=0), 0, t=100), model.ctx)
    assert any(pipe.pkts)
    lp.restore(saved)
    assert pipe.pkts == [[], [], []]
    assert [pipe.st[q.i] for q in pipe.tier.queues] == [0, 0, 0]
    assert _state(lp) == before


def test_restore_gives_back_the_packets_queued_at_the_save():
    model = single_flow_model(line_topology(2), 0, 1)
    lp = model.lps[0]
    pipe = lp.pipelines[0]
    pipe.st[SEND_FLAG] = True
    ctx = model.ctx
    dispatch(lp, _arrive(Packet(7, 0, 1, 1400, 0, created_ns=0), 0, t=100), ctx)
    queued = [list(p) for p in pipe.pkts]
    saved = lp.clone(0)
    before = _state(lp)
    dispatch(lp, _arrive(Packet(8, 0, 1, 1400, 46, created_ns=0), 0, t=200), ctx)
    dispatch(lp, _send(0, 0, t=300), ctx)
    assert [list(p) for p in pipe.pkts] != queued
    lp.restore(saved)
    assert [list(p) for p in pipe.pkts] == queued
    assert _state(lp) == before


def test_save_of_an_lp_without_flows_restores_its_counters():
    model = single_flow_model(line_topology(3), 0, 2)
    relay, source = model.lps[1], model.lps[0]
    assert relay.flows == [] and source.flows
    for lp in (relay, source):
        saved = lp.clone(None)
        before = _state(lp)
        lp.st[SEQ] += 3
        lp.rng.uniform(rng.PURPOSE_RED)
        for i in range(len(lp.flows)):
            lp.st[FLOW_SEQS + i] += 5
        lp.restore(saved)
        assert _state(lp) == before


# what a run may change in place: an LP's own numbers (also its RNG's
# cursors), a pipeline's numbers and packet lists, and the RNG's prefix cache
_CHANGES_IN_PLACE = {"st", "pkts", "cursors", "prefixes"}


def _shallow(value):
    """A value with every slotted object in it replaced by its identity."""
    if isinstance(value, (list, tuple)):
        return tuple(_shallow(x) for x in value)
    if isinstance(value, dict):
        return {k: _shallow(x) for k, x in value.items()}
    if hasattr(type(value), "__slots__"):
        return ("object", id(value))
    return value


def _attributes(lp):
    """Identity, and value unless it may change in place, of every attribute
    of the LP, its pipelines, its flows and its RNG."""
    objects = [lp, *(p for p in lp.pipelines if p is not None), *lp.flows, lp.rng]
    return [{name: (id(getattr(obj, name)),
                    None if name in _CHANGES_IN_PLACE else _shallow(getattr(obj, name)))
             for name in type(obj).__slots__} for obj in objects]


def test_an_lp_s_numbers_are_its_whole_state():
    """A run changes an LP only inside its own numbers (``RouterLp.st``) and
    its pipelines' numbers and packet lists, which is why a save of those
    lists is complete; a restore writes the LP's numbers in place, so its
    RNG keeps drawing through them."""
    cfg = load_scenario(None, {
        "name": "tight",
        "qos": {"default": {"shaper_rate_Bps": 40_000_000, "shaper_burst_bytes": 4_096}},
        "traffic": {"poisson": True},
        "run": {"end_ns": 2_000_000},
    })
    model = build_scenario_model(cfg, mode=MODE_SEQUENTIAL)
    lps = model.lps.values()
    before = [_attributes(lp) for lp in lps]
    rep = run_sequential(model)
    for lp in lps:
        lp.restore(lp.clone(None))
    assert [_attributes(lp) for lp in lps] == before
    assert all(lp.rng.cursors is lp.st for lp in lps)
    # the run queued packets, sent SENDs and moved every RNG cursor
    assert sum(audit["blocked"] for audit in rep.port_audit.values()) > 0
    assert sum(audit["send"] for audit in rep.port_audit.values()) > 0
    for purpose in (rng.PURPOSE_RED, rng.PURPOSE_DS, rng.PURPOSE_GEN):
        assert sum(lp.st[purpose] for lp in lps) > 0

"""Kernel behaviour: sequential gold standard, rollback mechanics,
anti-message annihilation, GVT/fossil bookkeeping, serial equivalence."""

import collections
import heapq
import math

import pytest
from hypothesis import given, settings, strategies as st

from dsnetsim import events, kernel, scenario
from dsnetsim.kernel import (
    INF, CausalityError, KernelError, Knobs, Partition, _compute_gvt, run_optimistic,
    run_sequential,
)
from dsnetsim.metrics import compare_reports, write_records_csv
from dsnetsim.partition import PartitionPlan, WeightModel, partition_balanced
from dsnetsim.router import Effects, Packet, dispatch
from dsnetsim.routing import compute_routes
from dsnetsim.model import build_model, lookahead_ns
from dsnetsim.qos import QosProfile, SrtcmParams
from dsnetsim.rng import PURPOSE_RED, CursorRng
from dsnetsim.topology import NodeTier, Topology, generate_synthetic_topology
from dsnetsim.traffic import Flow, TrafficSpec, resolve_flows
from conftest import WINDOWS, bidirectional, line_topology, single_flow_model, tight_shaper_profiles


def _fresh_model(end_ns=1_000_000, seed=42, **model_kwargs):
    topo = generate_synthetic_topology(10, 3, 2, seed=1)
    spec = TrafficSpec(rate_pps=100_000, seed=5)
    return build_model(topo, compute_routes(topo), spec, resolve_flows(spec, topo), end_ns, seed,
                       **model_kwargs), topo


# --------------------------------------------------------------------------
# sequential scheduler

def test_sequential_is_deterministic():
    a = run_sequential(_fresh_model()[0])
    b = run_sequential(_fresh_model()[0])
    assert a.records == b.records
    assert a.committed_events == b.committed_events


def test_zero_horizon_delivers_nothing():
    model = single_flow_model(line_topology(2), 0, 1, end_ns=0)
    rep = run_sequential(model)
    assert rep.delivered == 0


def test_two_node_delivery_time_is_analytic():
    model = single_flow_model(line_topology(2), 0, 1, rate_pps=1_000,
                              end_ns=10_000)
    rep = run_sequential(model)
    assert rep.delivered >= 1
    first = min(rep.records, key=lambda r: r.pid)
    # ceil(1400 * 8 / 25 Gbps) = 448 ns transmission + 1000 ns propagation
    assert first.created_ns == 0
    assert first.delivered_ns == 448 + 1_000


def test_every_record_is_delivered_or_dropped():
    rep = run_sequential(_fresh_model()[0])
    assert rep.delivered + rep.dropped == len(rep.records)
    # packets generated close to the horizon can still be in flight at the
    # cut, so records can lag the generated count but never exceed it
    assert rep.delivered + rep.dropped <= rep.generated
    in_flight = rep.generated - rep.delivered - rep.dropped
    assert in_flight < rep.generated * 0.05


def _flat(ev):
    """A pending heap entry, as both kernels build it."""
    return (ev.time, ev.target, ev.sender, ev.seq, ev)


# few distinct values per field, so most keys tie on time, target and sender
_KEYS = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(0, 2),
                           st.integers(0, 40)), unique=True, max_size=60)


@given(keys=_KEYS, split=st.integers(0, 60))
@settings(max_examples=200, deadline=None)
def test_flat_heap_entries_pop_in_event_key_order(keys, split):
    """Flat entries, some heapified and the rest pushed one by one, pop in
    ``Event.key`` order; unique keys mean the Event itself is never
    compared."""
    evs = [events.Event(t, tgt, events.REFILL, None, snd, seq) for t, tgt, snd, seq in keys]
    heap = [_flat(ev) for ev in evs[:split]]
    heapq.heapify(heap)
    for ev in evs[split:]:
        heapq.heappush(heap, _flat(ev))
    popped = [heapq.heappop(heap)[-1] for _ in range(len(evs))]
    assert popped == sorted(evs, key=lambda ev: ev.key)


def _share_tied(per_time):
    return sum(n for n in per_time.values() if n > 1) / sum(per_time.values())


# (traffic, model keywords, horizon, what the regime must show): the event
# regimes the sequential loop's pending set sees, from every event tied on
# its time to almost none
_REGIMES = {
    # each port's REFILL chain ties with the others' on every tick
    "refill-1us": ({}, {"token_interval_ns": 1_000}, 100_000,
                   lambda kinds, per_time, draws: max(per_time.values()) >= 100),
    # lazy shaper: ARRIVEs and GENERATEs tie on the lattice of equal links
    "lazy": ({}, {}, 100_000,
             lambda kinds, per_time, draws: _share_tied(per_time) > 0.9),
    # the shaper blocks: queueing, SEND retries, and RED's probabilistic draw
    "tight-shaper": ({"rate_pps": 1_000_000}, {"profiles": tight_shaper_profiles()}, 1_000_000,
                     lambda kinds, per_time, draws: kinds[events.SEND] > 100
                     and draws[PURPOSE_RED] > 100),
    # Poisson gaps: almost nothing ties
    "poisson": ({"poisson": True}, {}, 1_000_000,
                lambda kinds, per_time, draws: _share_tied(per_time) < 0.05),
}


@pytest.mark.parametrize("regime", list(_REGIMES))
def test_sequential_records_match_a_key_ordered_reference_loop(regime, synthetic50, tmp_path,
                                                               monkeypatch):
    """In every regime, from all events tied on their time to almost none,
    run_sequential commits the records of an independent loop whose heap
    orders ``(ev.key, ev)``, in the same order and byte for byte in
    records.csv, after the same number of events."""
    traffic, model_kwargs, end_ns, shows = _REGIMES[regime]

    def model():
        spec = TrafficSpec(**{"rate_pps": 100_000, "seed": 5, **traffic})
        return build_model(synthetic50, compute_routes(synthetic50), spec,
                           resolve_flows(spec, synthetic50), end_ns, 42, **model_kwargs)

    draws = collections.Counter()
    uniform_at = CursorRng.uniform_at

    def counted(rng, purpose, cursor):
        draws[purpose] += 1
        return uniform_at(rng, purpose, cursor)

    monkeypatch.setattr(CursorRng, "uniform_at", counted)
    ref = model()
    heap = [(ev.key, ev) for ev in ref.bootstrap]
    heapq.heapify(heap)
    fx = Effects()
    kinds = collections.Counter()
    per_time = collections.Counter()
    while heap and heap[0][0][0] <= ref.ctx.end_time_ns:
        _, ev = heapq.heappop(heap)
        kinds[ev.kind] += 1
        per_time[ev.time] += 1
        dispatch(ref.lps[ev.target], ev, ref.ctx, fx)
        for em in fx.emitted:
            # as in run_sequential: an emission at its cause's time would
            # keep this loop at one time for ever
            assert em.time > ev.time, f"{em} is not later than its cause {ev}"
            heapq.heappush(heap, (em.key, em))
        fx.emitted.clear()
    assert shows(kinds, per_time, draws)

    rep = run_sequential(model())
    assert rep.committed_events == sum(kinds.values())
    assert rep.records == fx.records
    paths = tmp_path / "kernel.csv", tmp_path / "reference.csv"
    write_records_csv(str(paths[0]), rep.records)
    write_records_csv(str(paths[1]), fx.records)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_an_emission_not_later_than_its_cause_is_a_causality_error(monkeypatch):
    """An event emitted at its cause's own time could not join the bucket
    already being dispatched, so the loop refuses it, also under
    ``python -O``."""
    echoed = []

    def echo(lp, ev, ctx, fx):
        # one echo, so a loop that let it through would still end
        if not echoed:
            echoed.append(events.Event(ev.time, ev.target, ev.kind, None, ev.target, 10**6))
            fx.emitted.extend(echoed)

    monkeypatch.setattr(kernel, "dispatch", echo)
    with pytest.raises(CausalityError, match="not later than its cause"):
        run_sequential(_fresh_model()[0])


# --------------------------------------------------------------------------
# scripted partition mechanics

def _middle_partition(end_ns=10_000_000):
    """Partition owning only node 1 of a 0-1-2 line; 0 and 2 are remote."""
    model = single_flow_model(line_topology(3), 0, 2, end_ns=end_ns)
    assignment = {0: 0, 1: 1, 2: 0}
    part = Partition(1, {1: model.lps[1]}, assignment, 2, model.ctx)
    return part, model


def _arrive_at_1(t, seq, pid=0):
    pkt = Packet(pid, 0, 2, 1400, 0, created_ns=0)
    return events.Event(t, 1, events.ARRIVE, pkt, 0, seq)


def test_straggler_rolls_back_exactly_the_later_events():
    part, _ = _middle_partition()
    for i, t in enumerate((1_000, 2_000, 3_000)):
        part.receive_remote(_arrive_at_1(t, seq=i, pid=i))
    assert part.step(10) == 3
    forwarded = list(part.outboxes[0])
    assert len(forwarded) == 3  # three ARRIVEs toward node 2
    part.outboxes[0].clear()
    # straggler older than all three processed events
    part.receive_remote(_arrive_at_1(500, seq=3, pid=3))
    assert part.rolled_back == 3
    assert part.history == []
    # anti-messages for the union of the undone emissions
    antis = list(part.outboxes[0])
    assert sorted(a.key for a in antis) == sorted(f.key for f in forwarded)
    assert all(a.sign == events.ANTI for a in antis)
    # the straggler plus the three re-pended events are pending again
    assert part.step(10) == 4


def test_a_straggler_rolls_back_the_later_events_of_every_lp_of_its_partition():
    # one partition owns nodes 1 and 2 of a 0-1-2 line; node 2 has run its
    # 5,000 ns event, so an ARRIVE for node 1 at 1,000 ns undoes it on
    # receipt, although it targets the other LP
    model = single_flow_model(line_topology(3), 0, 2)
    part = Partition(1, {1: model.lps[1], 2: model.lps[2]}, {0: 0, 1: 1, 2: 1}, 2,
                     model.ctx)
    part.receive_remote(events.Event(5_000, 2, events.ARRIVE,
                                     Packet(0, 0, 2, 1400, 0, created_ns=0), 0, 0))
    assert part.step(10) == 1
    part.receive_remote(_arrive_at_1(1_000, seq=1, pid=1))
    assert part.rolled_back == 1 and part.history == []
    # node 1's hop, then node 2 runs the forwarded packet (at 1,000 + 448 ns
    # transmission + 1,000 ns delay) and re-runs the undone 5,000 ns event
    assert part.step(10) == 3
    assert [e.event.time for e in part.history] == [1_000, 2_448, 5_000]
    assert part.peak_history == 3


def test_event_at_frontier_boundary_causes_no_rollback():
    part, _ = _middle_partition()
    part.receive_remote(_arrive_at_1(1_000, seq=0))
    part.step(10)
    part.receive_remote(_arrive_at_1(1_001, seq=1, pid=1))
    assert part.rolled_back == 0


def test_anti_for_pending_event_annihilates_without_rollback():
    part, _ = _middle_partition()
    pos = _arrive_at_1(1_000, seq=0)
    part.receive_remote(pos)
    part.receive_remote(pos.as_anti())
    assert part.rolled_back == 0
    assert part.step(10) == 0  # the annihilated event is never processed
    assert not any(part.outboxes)


def test_anti_for_pending_event_below_the_top_removes_it_and_a_resend_runs_once():
    part, _ = _middle_partition()
    sent = [_arrive_at_1(t, seq=i, pid=i) for i, t in enumerate((1_000, 2_000, 3_000))]
    for ev in sent:
        part.receive_remote(ev)
    part.receive_remote(sent[1].as_anti())
    assert sent[1].key not in [entry[-1].key for entry in part.pending]
    # the sender re-executes and sends an event with the same key
    part.receive_remote(_arrive_at_1(2_000, seq=1, pid=1))
    assert part.step(10) == 3
    assert part.rolled_back == 0
    assert [e.event.key for e in part.history] == [ev.key for ev in sent]


def test_anti_for_processed_event_rolls_back_and_discards_it():
    part, _ = _middle_partition()
    part.receive_remote(_arrive_at_1(1_000, seq=0))
    part.receive_remote(_arrive_at_1(2_000, seq=1, pid=1))
    part.step(10)
    part.receive_remote(_arrive_at_1(1_000, seq=0).as_anti())
    assert part.rolled_back == 2
    # only the later event is re-pended; the annihilated one is gone
    assert part.step(10) == 1
    assert part.history[0].event.key == (2_000, 1, 0, 1)


def test_unmatched_anti_is_a_causality_error():
    part, _ = _middle_partition()
    pos = _arrive_at_1(1_000, seq=0)
    with pytest.raises(CausalityError, match="matches no pending or processed event"):
        part.receive_remote(pos.as_anti())


def test_fossil_collect_commits_and_reclaims():
    part, _ = _middle_partition()
    for i, t in enumerate((1_000, 2_000, 3_000)):
        part.receive_remote(_arrive_at_1(t, seq=i, pid=i))
    part.step(10)
    assert part.fossil_collect(0) == 0  # gvt 0 -> nothing reclaimed
    assert part.committed_events == 0
    assert part.fossil_collect(2_500) == 2
    assert part.committed_events == 2
    assert part.fossil_collect(INF) == 1  # end of run -> everything
    assert part.committed_events == 3
    assert len(part.history) == 0


def test_rollback_below_gvt_is_a_causality_error():
    part, _ = _middle_partition()
    part.receive_remote(_arrive_at_1(1_000, seq=0))
    part.step(10)
    part.fossil_collect(5_000)
    part.gvt = 5_000
    with pytest.raises(CausalityError):
        part.receive_remote(_arrive_at_1(500, seq=1, pid=1))


def test_gvt_is_min_over_pending():
    a, _ = _middle_partition()
    b, _ = _middle_partition()
    first = _arrive_at_1(100, seq=0)
    a.receive_remote(first)
    a.receive_remote(_arrive_at_1(150, seq=2, pid=2))
    b.receive_remote(_arrive_at_1(200, seq=1, pid=1))
    assert _compute_gvt([a, b]) == 100
    assert a.min_pending_time() == 100
    # cancelling the earliest pending event leaves the next one's time
    a.receive_remote(first.as_anti())
    assert a.min_pending_time() == 150
    assert _compute_gvt([a, b]) == 150


def test_gvt_sentinel_when_everything_drained():
    a, _ = _middle_partition()
    assert _compute_gvt([a]) is INF


# --------------------------------------------------------------------------
# full optimistic runs

def test_k1_matches_sequential_exactly():
    model, topo = _fresh_model()
    seq = run_sequential(_fresh_model()[0])
    plan = partition_balanced(topo, 1)
    rep = run_optimistic(_fresh_model()[0], plan, Knobs())
    assert compare_reports(seq, rep)["record_diff_count"] == 0
    assert rep.committed_events == seq.committed_events
    assert rep.rolled_back_events == 0


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("runtime", ["stepped"])
def test_serial_equivalence_small(k, runtime, window):
    seq = run_sequential(_fresh_model()[0])
    _, topo = _fresh_model()
    plan = partition_balanced(topo, k)
    knobs = Knobs(runtime=runtime, gvt_interval=128, batch_size=8,
                  schedule_seed=3, jitter=2, watchdog_s=60)
    rep = run_optimistic(_fresh_model()[0], plan, knobs, unbounded=window == "unbounded")
    assert compare_reports(seq, rep)["record_diff_count"] == 0
    # committed event counts are identical across partition counts
    assert rep.committed_events == seq.committed_events


# a tight shaper blocks, so lazy mode runs SEND events and periodic mode
# runs REFILL events that release queued packets: rollbacks must restore the
# shaper and queue state these events change
SHAPER_SCENARIOS = {
    "tight-shaper": dict(profiles=tight_shaper_profiles()),
    "periodic-refill": dict(profiles=tight_shaper_profiles(), token_interval_ns=5_000),
}


@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("scenario", sorted(SHAPER_SCENARIOS))
def test_serial_equivalence_with_send_and_refill(scenario, k):
    kwargs = SHAPER_SCENARIOS[scenario]
    seq = run_sequential(_fresh_model(**kwargs)[0])
    model, topo = _fresh_model(**kwargs)
    knobs = Knobs(gvt_interval=128, batch_size=8, schedule_seed=3, jitter=2,
                  watchdog_s=60)
    rep = run_optimistic(model, partition_balanced(topo, k), knobs, unbounded=True)
    assert compare_reports(seq, rep)["record_diff_count"] == 0
    assert rep.committed_events == seq.committed_events
    assert rep.rolled_back_events > 0


def _count_antis(monkeypatch) -> list:
    """Patch Partition.receive_remote to count the anti-messages received."""
    antis = []
    receive = Partition.receive_remote

    def counting(self, ev):
        if ev.sign == events.ANTI:
            antis.append(ev)
        return receive(self, ev)

    monkeypatch.setattr(Partition, "receive_remote", counting)
    return antis


@pytest.mark.parametrize("jitter, schedule_seed", [(0, None), (5, 3)])
def test_an_anti_reaches_its_positive_before_a_resent_one(jitter, schedule_seed, monkeypatch):
    # Partition._cancel relies on it: per key, the receiver sees +, -, +, ...
    log = []
    receive = Partition.receive_remote

    def logging(self, ev):
        log.append((ev.key, ev.sign))
        return receive(self, ev)

    monkeypatch.setattr(Partition, "receive_remote", logging)
    model, topo = _fresh_model()
    knobs = Knobs(gvt_interval=128, batch_size=8, schedule_seed=schedule_seed, jitter=jitter)
    run_optimistic(model, partition_balanced(topo, 4), knobs, unbounded=True)
    signs: dict = {}
    for key, sign in log:
        signs.setdefault(key, []).append(sign)
    assert all(set(seq[::2]) == {events.POSITIVE} and set(seq[1::2]) <= {events.ANTI}
               for seq in signs.values())
    assert any(seq.count(events.POSITIVE) > 1 for seq in signs.values())


def test_every_pending_key_stays_above_every_processed_key(monkeypatch):
    """The partition is the rollback unit: after every step and every
    message a partition receives, its last processed key is below its
    smallest pending key, on an unbounded run that rolls back."""
    checked = []

    def check(part):
        if part.history and part.pending:
            assert part.history[-1].event.key < min(entry[-1].key for entry in part.pending)
            checked.append(part.pid)

    for name in ("step", "receive_remote"):
        def wrapped(self, *args, _call=getattr(Partition, name)):
            out = _call(self, *args)
            check(self)
            return out
        monkeypatch.setattr(Partition, name, wrapped)
    model, topo = _fresh_model()
    knobs = Knobs(gvt_interval=128, batch_size=8, schedule_seed=3, jitter=2)
    rep = run_optimistic(model, partition_balanced(topo, 4), knobs, unbounded=True)
    assert rep.rolled_back_events > 0
    assert set(checked) == {0, 1, 2, 3}


def _two_way_line_model():
    """0 - 1 - 2 - 3 with flows 0 -> 3 and 3 -> 0. The middle nodes' tiers
    put DS 0 in classes 1 and 0, and their meters mark at a third of the
    offered rate, so consecutive hops write different classes and colours
    into a packet."""
    tiers = (NodeTier.ACCESS, NodeTier.MIXED, NodeTier.KERNEL, NodeTier.ACCESS)
    topo = Topology([(n, tier, 1 if n in (0, 3) else 2) for n, tier in enumerate(tiers)],
                    [bidirectional(0, 1, 0, 0), bidirectional(1, 2, 1, 0),
                     bidirectional(2, 3, 1, 0)])
    srtcm = [SrtcmParams(cir_Bps=500_000_000, cbs_bytes=3_000, ebs_bytes=6_000)] * 3
    profiles = {tier: QosProfile(classifier_map=ds_map, srtcm=srtcm) for tier, ds_map in (
        (NodeTier.ACCESS, None), (NodeTier.MIXED, {0: 1}), (NodeTier.KERNEL, {0: 0}))}
    spec = TrafficSpec(pattern="explicit", packet_size=1400, flows=(
        Flow(0, 3, 1_000_000, 0), Flow(3, 0, 1_000_000, 0)))
    return build_model(topo, compute_routes(topo), spec, resolve_flows(spec, topo),
                       end_time_ns=50_000, seed=42,
                       profiles=profiles)


def test_a_hop_rerun_after_the_next_hop_ran_on_the_same_packet(monkeypatch):
    """A hop forwards the packet object it received, no copy. Unbounded,
    with one node per partition, a middle hop rolls back and runs again on
    a packet the next hop has already processed, and overwrites the class
    and colour that hop wrote; the committed records are still the
    sequential loop's."""
    hops = []  # (node, packet) of every ARRIVE dispatched
    dispatch = kernel.dispatch

    def logging(lp, ev, ctx, *args):
        if ev.kind == events.ARRIVE:
            hops.append((lp.node, ev.payload))
        return dispatch(lp, ev, ctx, *args)

    monkeypatch.setattr(kernel, "dispatch", logging)
    plan = PartitionPlan(4, {n: n for n in range(4)}, WeightModel.NO_WEIGHTS)
    rep = run_optimistic(_two_way_line_model(), plan,
                         Knobs(gvt_interval=64, batch_size=4, schedule_seed=3, jitter=2),
                         unbounded=True)
    monkeypatch.undo()
    visits: dict = {}  # packet object -> the nodes that ran it, in order
    reruns = 0
    for node, pkt in hops:
        seen = visits.setdefault(pkt, [])
        if node in (1, 2) and node in seen:
            last = len(seen) - 1 - seen[::-1].index(node)
            next_hop = node + 1 if pkt.dst > node else node - 1
            reruns += next_hop in seen[last + 1:]
        seen.append(node)
    assert reruns > 0
    seq = run_sequential(_two_way_line_model())
    assert {(r.class_index, r.color) for r in seq.records} >= {(0, 0), (1, 0), (0, 2), (1, 2)}
    assert len(rep.records) == len(seq.records)
    assert compare_reports(seq, rep)["record_diff_count"] == 0


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("k, relabel", [(4, {}), (3, {1: 2})])
def test_a_plan_with_empty_partitions_runs_them_idle(k, relabel, window):
    # k=4 over a 2-way assignment leaves 2 and 3 empty; k=3 with 1 moved to
    # 2 leaves the middle one empty
    seq = run_sequential(_fresh_model()[0])
    model, topo = _fresh_model()
    two = partition_balanced(topo, 2)
    plan = PartitionPlan(k, {n: relabel.get(p, p) for n, p in two.assignment.items()},
                         two.strategy)
    rep = run_optimistic(model, plan, Knobs(gvt_interval=128, batch_size=8),
                         unbounded=window == "unbounded")
    assert compare_reports(seq, rep)["record_diff_count"] == 0


@pytest.mark.parametrize("k", [2, 4, 8])
@pytest.mark.parametrize("scenario", ["default"] + sorted(SHAPER_SCENARIOS))
def test_lookahead_window_never_rolls_back(scenario, k, monkeypatch):
    kwargs = SHAPER_SCENARIOS.get(scenario, {})
    seq = run_sequential(_fresh_model(**kwargs)[0])
    model, topo = _fresh_model(**kwargs)
    antis = _count_antis(monkeypatch)
    rep = run_optimistic(model, partition_balanced(topo, k),
                         Knobs(gvt_interval=128, batch_size=8, schedule_seed=3, jitter=2))
    assert compare_reports(seq, rep)["record_diff_count"] == 0
    assert rep.rolled_back_events == 0
    assert antis == []


def test_spare_ports_hold_no_pipeline_and_no_audit_row():
    # node 1 declares 4 ports and links only ports 0 and 2, so build_model
    # leaves a placeholder at port 1 and nothing at port 3
    topo = Topology([(0, NodeTier.ACCESS, 1), (1, NodeTier.ACCESS, 4),
                     (2, NodeTier.ACCESS, 1)],
                    [bidirectional(0, 1, 0, 0), bidirectional(1, 2, 2, 0)])

    def model():
        spec = TrafficSpec(pattern="explicit",
                           flows=(Flow(0, 2, 1_000_000), Flow(2, 0, 500_000)))
        return build_model(topo, compute_routes(topo), spec, resolve_flows(spec, topo), 200_000, 42,
                           profiles=tight_shaper_profiles())

    assert [None if p is None else p.port for p in model().lps[1].pipelines] == [0, None, 2]
    seq = run_sequential(model())
    assert seq.delivered > 0
    assert sorted(seq.port_audit) == [(0, 0), (1, 0), (1, 2), (2, 0)]
    for window in WINDOWS:
        for plan in (PartitionPlan(2, {0: 0, 1: 1, 2: 0}, WeightModel.NO_WEIGHTS),
                     PartitionPlan(3, {0: 0, 1: 1, 2: 2}, WeightModel.NO_WEIGHTS)):
            rep = run_optimistic(model(), plan, Knobs(gvt_interval=64, batch_size=4),
                                 unbounded=window == "unbounded")
            assert compare_reports(seq, rep)["record_diff_count"] == 0
            assert rep.port_audit == seq.port_audit


def test_port_audit_file_is_the_same_for_every_run_of_a_model(tmp_path):
    """write_outputs writes port_audit.csv, one row per connected port in
    (node, port) order; a windowed and an unbounded k=4 run, which rolls
    back, write the file of the sequential run."""
    cfg = scenario.load_scenario(None)
    model, topo = _fresh_model(profiles=tight_shaper_profiles())
    reports = {"sequential": run_sequential(model)}
    knobs = Knobs(gvt_interval=128, batch_size=8, schedule_seed=3, jitter=2, watchdog_s=60)
    for window in WINDOWS:
        reports[window] = run_optimistic(_fresh_model(profiles=tight_shaper_profiles())[0],
                                         partition_balanced(topo, 4), knobs,
                                         unbounded=window == "unbounded")
    assert reports["unbounded"].rolled_back_events > 0
    files = {}
    for name, rep in reports.items():
        scenario.write_outputs(cfg, rep, str(tmp_path / name))
        files[name] = (tmp_path / name / "port_audit.csv").read_bytes()
    assert files["lookahead"] == files["sequential"] == files["unbounded"]
    lines = files["sequential"].decode().splitlines()
    assert lines[0] == "node,port,arrive,send,blocked,stale,redundant"
    rows = [[int(x) for x in line.split(",")] for line in lines[1:]]
    assert [tuple(row[:2]) for row in rows] == sorted(topo.port_link)
    assert sum(row[4] for row in rows) > 0  # the tight shaper blocked


def test_lookahead_counts_only_cut_links():
    topo = Topology([(i, NodeTier.ACCESS, 2) for i in range(4)],
                    [bidirectional(0, 1, 0, 0, delay=30), bidirectional(1, 2, 1, 0, delay=700),
                     bidirectional(2, 3, 1, 0, delay=500), bidirectional(3, 0, 1, 1, delay=80)])
    # 0-1 (30 ns) and 3-0 (80 ns) stay inside a partition
    assert lookahead_ns(topo, {0: 0, 1: 0, 2: 1, 3: 0}) == 1 + 500
    # every link cut: the smallest delay wins
    assert lookahead_ns(topo, {0: 0, 1: 1, 2: 0, 3: 1}) == 1 + 30
    assert lookahead_ns(topo, {n: 0 for n in range(4)}) == INF


def test_lookahead_window_stops_one_ns_short_of_the_lookahead():
    # a 1 B packet takes 1 ns on a 25 Gb/s link, so node 0's packet sent at
    # t reaches node 1 at t + 999 + 1 = t + L, the time of node 1's next
    # GENERATE; node 1's partition steps first, and a window of L instead
    # of L - 1 would run that GENERATE before the ARRIVE that precedes it
    topo = line_topology(2, delay=999)

    def model():
        spec = TrafficSpec(pattern="explicit", packet_size=1,
                           flows=(Flow(0, 1, 1_000_000), Flow(1, 0, 1_000_000)))
        return build_model(topo, compute_routes(topo), spec, resolve_flows(spec, topo), 20_000, 42)

    seq = run_sequential(model())
    rep = run_optimistic(model(), PartitionPlan(2, {0: 1, 1: 0}, WeightModel.NO_WEIGHTS), Knobs())
    assert seq.delivered > 0
    assert compare_reports(seq, rep)["record_diff_count"] == 0
    assert rep.rolled_back_events == 0


def test_zero_delay_cut_link_gives_window_zero():
    # 0 -1000 ns- 1 -0 ns- 2 -1000 ns- 3, cut at the zero-delay link
    topo = Topology([(0, NodeTier.ACCESS, 1), (1, NodeTier.ACCESS, 2),
                     (2, NodeTier.ACCESS, 2), (3, NodeTier.ACCESS, 1)],
                    [bidirectional(0, 1, 0, 0), bidirectional(1, 2, 1, 0, delay=0),
                     bidirectional(2, 3, 1, 0)])
    assignment = {0: 0, 1: 0, 2: 1, 3: 1}
    assert lookahead_ns(topo, assignment) - 1 == 0

    def model():
        spec = TrafficSpec(pattern="explicit", packet_size=1400,
                           flows=(Flow(0, 3, 200_000), Flow(3, 0, 150_000), Flow(2, 1, 100_000)))
        return build_model(topo, compute_routes(topo), spec, resolve_flows(spec, topo), 200_000, 42,
                           profiles=tight_shaper_profiles())

    seq = run_sequential(model())
    rep = run_optimistic(model(), PartitionPlan(2, assignment, WeightModel.NO_WEIGHTS),
                         Knobs(batch_size=4, schedule_seed=1, jitter=1))
    assert seq.delivered > 0
    assert compare_reports(seq, rep)["record_diff_count"] == 0
    assert rep.committed_events == seq.committed_events
    assert rep.rolled_back_events == 0


def test_records_invariant_under_transport_jitter():
    _, topo = _fresh_model()
    plan = partition_balanced(topo, 4)
    base = None
    # unbounded, the heavy jitter makes stragglers and reorders anti-messages
    for window in WINDOWS:
        for schedule_seed, jitter in ((0, 0), (1, 3), (7, 9)):
            knobs = Knobs(runtime="stepped", gvt_interval=128, batch_size=4,
                          schedule_seed=schedule_seed, jitter=jitter, watchdog_s=60)
            rep = run_optimistic(_fresh_model()[0], plan, knobs,
                                 unbounded=window == "unbounded")
            rec = sorted(rep.records, key=lambda r: r.pid)
            if base is None:
                base = rec
            else:
                assert rec == base


def test_fossil_collection_bounds_history_memory():
    _, topo = _fresh_model()
    plan = partition_balanced(topo, 2)
    frequent = run_optimistic(
        _fresh_model()[0], plan,
        Knobs(runtime="stepped", gvt_interval=32, batch_size=8, watchdog_s=60),
        unbounded=True)
    rare = run_optimistic(
        _fresh_model()[0], plan,
        Knobs(runtime="stepped", gvt_interval=100_000, batch_size=8, watchdog_s=60),
        unbounded=True)
    assert frequent.peak_history_entries < rare.peak_history_entries
    assert sorted(frequent.records, key=lambda r: r.pid) == \
        sorted(rare.records, key=lambda r: r.pid)


def test_gvt_series_is_monotone():
    _, topo = _fresh_model()
    plan = partition_balanced(topo, 2)
    for window in WINDOWS:
        rep = run_optimistic(
            _fresh_model()[0], plan,
            Knobs(runtime="stepped", gvt_interval=64, batch_size=8, watchdog_s=60),
            unbounded=window == "unbounded")
        gvts = [row[1] for row in rep.gvt_series if row[1] >= 0]
        assert gvts == sorted(gvts)
        assert rep.gvt_rounds == len(rep.gvt_series)


def _count_steps(monkeypatch) -> list:
    """Patch Partition.step to log each call's (max_events, events run)."""
    calls = []
    step = Partition.step

    def counting(self, max_events):
        n = step(self, max_events)
        calls.append((max_events, n))
        return n

    monkeypatch.setattr(Partition, "step", counting)
    return calls


@pytest.mark.parametrize("k", [2, 4])
def test_window_runs_each_epoch_in_one_step_per_partition(k, monkeypatch):
    model, topo = _fresh_model()
    calls = _count_steps(monkeypatch)
    knobs = Knobs(gvt_interval=128, batch_size=8)
    rep = run_optimistic(model, partition_balanced(topo, k), knobs)
    # every round ends in a cut, and no round is idle
    assert len(calls) == k * rep.gvt_rounds
    assert {m for m, _ in calls} == {knobs.gvt_interval}
    for r in range(rep.gvt_rounds):
        assert sum(n for _, n in calls[r * k:(r + 1) * k]) > 0


@pytest.mark.parametrize("k", [2, 4])
def test_unbounded_runs_one_batch_per_step(k, monkeypatch):
    model, topo = _fresh_model()
    calls = _count_steps(monkeypatch)
    knobs = Knobs(gvt_interval=128, batch_size=8)
    run_optimistic(model, partition_balanced(topo, k), knobs, unbounded=True)
    assert calls
    assert {m for m, _ in calls} == {knobs.batch_size}


def test_gvt_interval_bounds_history_when_no_link_is_cut():
    # a k=1 plan cuts no link, so L is infinite and only gvt_interval ends
    # an epoch
    model, topo = _fresh_model()
    assert lookahead_ns(topo, {n: 0 for n in topo.node_ids()}) == INF
    knobs = Knobs(gvt_interval=64)
    seq = run_sequential(_fresh_model()[0])
    rep = run_optimistic(model, partition_balanced(topo, 1), knobs)
    assert rep.committed_events >= 10 * knobs.gvt_interval
    assert rep.peak_history_entries <= 2 * knobs.gvt_interval
    assert compare_reports(seq, rep)["record_diff_count"] == 0


@pytest.mark.parametrize("window", WINDOWS)
@pytest.mark.parametrize("k", [2, 4])
def test_commit_counts_match_sequential(k, window):
    seq = run_sequential(_fresh_model()[0])
    model, topo = _fresh_model()
    rep = run_optimistic(model, partition_balanced(topo, k),
                         Knobs(gvt_interval=128, batch_size=8),
                         unbounded=window == "unbounded")
    assert rep.per_lp_events == seq.per_lp_events
    assert rep.generated == seq.generated
    assert rep.committed_events == seq.committed_events


@pytest.mark.parametrize("window", WINDOWS)
def test_per_lp_events_list_only_the_lps_that_ran(window):
    # on a 0-1-2-3 line a flow 0 -> 1 gives nodes 2 and 3 no event
    seq = run_sequential(single_flow_model(line_topology(4), 0, 1))
    assert set(seq.per_lp_events) == {0, 1} and 0 not in seq.per_lp_events.values()
    assert sum(seq.per_lp_events.values()) == seq.committed_events
    plan = PartitionPlan(2, {0: 0, 1: 0, 2: 1, 3: 1}, WeightModel.NO_WEIGHTS)
    rep = run_optimistic(single_flow_model(line_topology(4), 0, 1), plan,
                         Knobs(gvt_interval=128, batch_size=8),
                         unbounded=window == "unbounded")
    assert rep.per_lp_events == seq.per_lp_events


# the benchmark's opt-k4 scenario (1 ms, k=4 no-weights plan) run without
# the window: (committed, rolled back, messages, GVT rounds, peak history)
UNBOUNDED_OPT_K4 = {
    8: (3_615, 3_189, 4_593, 7, 925),
    9: (3_715, 3_281, 4_605, 7, 936),
}


@pytest.mark.parametrize("seed", sorted(UNBOUNDED_OPT_K4))
def test_unbounded_speculation_counts_are_pinned(seed):
    """No benchmark workload rolls back, so this pins the rollback path on
    a real scenario: a change to what a history entry holds or how it is
    undone shows here as a different count, long before records differ."""
    cfg = scenario.load_scenario(None, {
        "traffic": {"seed": seed},
        "run": {"mode": scenario.MODE_OPTIMISTIC, "seed": seed, "end_ns": 1_000_000,
                "partitions": {"k": 4, "strategy": "no-weights"},
                "knobs": {"runtime": "stepped", "gvt_interval": 256, "batch_size": 8}},
    })
    model = scenario.build_scenario_model(cfg)
    plan = scenario.build_plan(cfg, model.topology)
    rep = run_optimistic(model, plan, Knobs(**cfg["run"]["knobs"]), unbounded=True)
    assert (rep.committed_events, rep.rolled_back_events, rep.inter_partition_messages,
            rep.gvt_rounds, rep.peak_history_entries) == UNBOUNDED_OPT_K4[seed]
    seq = run_sequential(scenario.build_scenario_model(cfg))
    assert len(rep.records) == len(seq.records)
    assert compare_reports(seq, rep)["record_diff_count"] == 0


@pytest.mark.parametrize("field, value", [
    ("gvt_interval", 0),
    ("batch_size", 0),
    ("jitter", -1),
    ("watchdog_s", 0),
    ("runtime", "fibers"),
])
def test_bad_knob_is_rejected_by_name(field, value):
    with pytest.raises(KernelError, match=f"Knobs.{field}"):
        Knobs(**{field: value})


def test_incomplete_plan_rejected():
    model, topo = _fresh_model()
    assignment = {n: 0 for n in topo.node_ids()}
    assignment.pop(3)
    with pytest.raises(KernelError, match="misses"):
        run_optimistic(model, PartitionPlan(1, assignment, WeightModel.NO_WEIGHTS), Knobs())

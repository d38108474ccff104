"""Acceptance criteria A1-A9.

Each test prints one PASS/FAIL line with the measured values and the pinned
tolerance, then asserts. Heavyweight runs are computed once and cached at
module scope. The whole file is sized to finish in well under 30 minutes on
8 cores.
"""

import collections
import random
import time

import pytest

from dsnetsim import events, kernel
from dsnetsim.kernel import Knobs, run_optimistic, run_sequential
from dsnetsim.metrics import compare_reports, write_records_csv
from dsnetsim.partition import (
    WeightModel, derive_edge_throughput_weights, derive_vertex_event_weights,
    partition_balanced, partition_vertex_plus_edge,
)
from dsnetsim.qos import (
    REDUNDANT_SENDS, SEND_FLAG, STALE_SENDS, TOKEN_SCALE, SrtcmMeter, SrtcmParams, TokenBucket,
)
from dsnetsim.router import DROP_QUEUE, DROP_RED
from dsnetsim.routing import compute_routes
from dsnetsim.scenario import (
    MODE_BASELINE, MODE_SEQUENTIAL, build_plan, build_scenario_model, build_topology,
    build_traffic_spec, load_scenario,
)
from dsnetsim.topology import generate_synthetic_topology
from dsnetsim.traffic import resolve_flows
from conftest import WINDOWS
from test_qos import StubRng, TickBucket, TickSrtcm

_cache = {}


def _verdict(name, ok, detail):
    print(f"\n{name}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{name}: {detail}"


def _scenario_cfg():
    # the 50-node acceptance scenario: defaults pinned in the scenario module
    return load_scenario()


def _baseline_cfg(interval_ns, overrides=None):
    """The scenario of ``overrides`` in baseline mode, refilling every
    ``interval_ns``."""
    return load_scenario(None, {**(overrides or {}), "run": {
        "mode": MODE_BASELINE, "token_interval_ns": interval_ns}})


def _lazy_run():
    if "lazy" not in _cache:
        t0 = time.perf_counter()
        rep = run_sequential(build_scenario_model(_scenario_cfg(),
                                                  mode=MODE_SEQUENTIAL))
        _cache["lazy"] = (rep, time.perf_counter() - t0)
    return _cache["lazy"]


def _contended_cfg():
    # the default scenario behind a deliberately tight shaper: ports block,
    # packets queue, and their fates turn on the order of same-time events
    return load_scenario(None, {
        "name": "tight",
        "qos": {"default": {"shaper_rate_Bps": 40_000_000,
                            "shaper_burst_bytes": 4_096}},
        "run": {"end_ns": 2_000_000},
    })


def _contended_run():
    if "contended" not in _cache:
        _cache["contended"] = run_sequential(
            build_scenario_model(_contended_cfg(), mode=MODE_SEQUENTIAL))
    return _cache["contended"]


def _baseline_run(interval_ns):
    key = ("baseline", interval_ns)
    if key not in _cache:
        t0 = time.perf_counter()
        rep = run_sequential(build_scenario_model(_baseline_cfg(interval_ns)))
        _cache[key] = (rep, time.perf_counter() - t0)
    return _cache[key]


# --------------------------------------------------------------------------

def test_A1_accuracy_lazy_vs_fine_grained_baseline():
    lazy, t_lazy = _lazy_run()
    base, t_base = _baseline_run(1_000)  # token_interval = 1 us
    delay_rel = abs(lazy.mean_delay_ns - base.mean_delay_ns) / lazy.mean_delay_ns
    drop_abs = abs(lazy.drop_rate - base.drop_rate)
    ok = delay_rel <= 0.01 and drop_abs <= 0.005 and (t_lazy + t_base) <= 60.0
    _verdict(
        "A1 accuracy",
        ok,
        f"50-node, {lazy.generated} packets: mean-delay diff "
        f"{delay_rel * 100:.3f}% (tol 1%), drop-rate diff {drop_abs * 100:.3f}pp "
        f"(tol 0.5pp), runtime {t_lazy + t_base:.1f}s (tol 60s)")


def test_A2_coarse_baseline_inflates_delay():
    lazy, _ = _lazy_run()
    coarse, _ = _baseline_run(1_000_000)  # token_interval = 1000 us
    ok = coarse.mean_delay_ns > lazy.mean_delay_ns
    _verdict(
        "A2 delay inflation",
        ok,
        f"baseline(1000us) mean delay {coarse.mean_delay_ns:.0f} ns > "
        f"lazy {lazy.mean_delay_ns:.0f} ns")


def test_A3_event_economy_across_token_intervals():
    # measured with an uncontended shaper (large burst) so the comparison
    # isolates refill overhead: under contention, coarse intervals throttle
    # throughput and the packets they drop take their own events with them
    uncontended = {"qos": {"default": {"shaper_burst_bytes": 4_000_000}}}
    lazy = run_sequential(build_scenario_model(load_scenario(None, uncontended)))
    intervals = (1_000, 10_000, 100_000, 1_000_000)
    counts = [
        run_sequential(build_scenario_model(_baseline_cfg(ti, uncontended))).committed_events
        for ti in intervals
    ]
    monotone = all(a > b for a, b in zip(counts, counts[1:]))
    above_lazy = all(c > lazy.committed_events for c in counts)
    ratio = counts[0] / lazy.committed_events
    ok = monotone and above_lazy and ratio >= 10.0
    _verdict(
        "A3 event economy",
        ok,
        f"baseline events {counts} monotone-decreasing={monotone}, all above "
        f"lazy {lazy.committed_events}={above_lazy}, ratio at 1us "
        f"{ratio:.1f}x (tol >=10x)")


@pytest.mark.parametrize("window, contended", [
    *(pytest.param(w, False, id=w) for w in WINDOWS),
    # on the default scenario no packet's fate depends on the order of
    # same-time events at a router; on the contended one it does, so a
    # sequential loop that ran such events out of key order would show
    *(pytest.param(w, True, id=f"{w}-contended") for w in WINDOWS),
])
def test_A4_serial_equivalence_byte_identical_records(tmp_path, window, contended):
    cfg_of = _contended_cfg if contended else _scenario_cfg
    seq = _contended_run() if contended else _lazy_run()[0]
    ref = tmp_path / "sequential.csv"
    write_records_csv(str(ref), seq.records)
    topo = build_topology(cfg_of())
    results = []
    for k in (1, 2, 4, 8):
        plan = partition_balanced(topo, k)
        rep = run_optimistic(
            build_scenario_model(cfg_of(), mode=MODE_SEQUENTIAL), plan,
            Knobs(runtime="stepped", gvt_interval=256, batch_size=8),
            unbounded=window == "unbounded")
        path = tmp_path / f"optimistic-k{k}.csv"
        write_records_csv(str(path), rep.records)
        identical = path.read_bytes() == ref.read_bytes()
        results.append((k, identical, rep.rolled_back_events))
    ok = all(r[1] for r in results)
    _verdict(
        f"A4 serial equivalence ({window} window"
        f"{', contended scenario' if contended else ''})",
        ok,
        "record files byte-identical to sequential for " +
        ", ".join(f"k={k} ({'yes' if ident else 'NO'}, rb={rb})"
                  for k, ident, rb in results))


def _scale_1k_cfg(k):
    # the paper-scale tier split of demos/06_paper_scale_setup.py (80 %
    # access, 16 % mixed, 4 % kernel) at 1,000 nodes, on a 300 us horizon
    return load_scenario(None, {
        "name": "scale-1k",
        "topology": {"synthetic": {"n_access": 800, "n_mixed": 160, "n_kernel": 40,
                                   "seed": 1}},
        "run": {"end_ns": 300_000,
                "partitions": {"k": k, "strategy": WeightModel.VERTEX_THROUGHPUT.value}},
    })


def test_serial_equivalence_at_1000_nodes(tmp_path):
    ref = tmp_path / "sequential.csv"
    seq = run_sequential(build_scenario_model(_scale_1k_cfg(1)))
    write_records_csv(str(ref), seq.records)
    results = []
    for k, window in ((8, "lookahead"), (4, "unbounded")):
        cfg = _scale_1k_cfg(k)
        model = build_scenario_model(cfg)
        rep = run_optimistic(model, build_plan(cfg, model.topology),
                             unbounded=window == "unbounded")
        path = tmp_path / f"optimistic-k{k}.csv"
        write_records_csv(str(path), rep.records)
        results.append((k, window, path.read_bytes() == ref.read_bytes(),
                        rep.committed_events, rep.rolled_back_events))
    ok = all(ident and committed == seq.committed_events
             for _, _, ident, committed, _ in results) and results[0][4] == 0
    _verdict(
        "serial equivalence at 1,000 nodes",
        ok,
        f"{seq.committed_events} sequential events; record files byte-identical for " +
        ", ".join(f"k={k} {window} ({'yes' if ident else 'NO'}, committed={c}, rb={rb})"
                  for k, window, ident, c, rb in results) +
        " (tol: identical, 0 rolled back under the window)")


def _skewed_cfg():
    # straggler benchmark: ~90% of the traffic targets 10% of the nodes (the
    # 5 hot cores), plus light reply flows out of the hot region so the
    # overloaded side also emits into partitions that have raced ahead
    hot = [0, 1, 2, 3, 4]
    flows = []
    for i, src in enumerate(range(10, 42)):
        flows.append({"src": src, "dst": hot[i % 5], "rate_pps": 25_000})
    for i, src in enumerate(range(42, 50)):
        flows.append({"src": src, "dst": 5 + (i % 5), "rate_pps": 6_250})
    for h in hot:
        for j in range(2):
            flows.append({"src": h, "dst": 10 + (h * 7 + j * 13) % 40,
                          "rate_pps": 6_250})
    return load_scenario(None, {
        "name": "straggler",
        "traffic": {"pattern": "explicit", "flows": flows},
        "run": {"end_ns": 3_000_000},
    })


def _skewed_seq_run():
    if "skewed" not in _cache:
        _cache["skewed"] = run_sequential(build_scenario_model(_skewed_cfg(),
                                                               mode=MODE_SEQUENTIAL))
    return _cache["skewed"]


def test_A5_partitioning_quality_limits_rollbacks():
    cfg = _skewed_cfg()
    seq = _skewed_seq_run()
    topo = build_topology(cfg)
    routes = compute_routes(topo)
    flows = resolve_flows(build_traffic_spec(cfg), topo)
    plan_event = partition_balanced(
        topo, 4, derive_vertex_event_weights(seq), WeightModel.VERTEX_EVENT)
    # cut-only comparator: unit vertex weights, 30 % node-count tolerance
    plan_edge = partition_vertex_plus_edge(
        topo, 4, None, derive_edge_throughput_weights(flows, routes, topo), eps=0.30)
    knobs = Knobs(runtime="stepped", schedule_seed=None, gvt_interval=256, batch_size=16)
    rb = {}
    identical = {}
    for name, plan in (("vertex-event", plan_event), ("edge", plan_edge)):
        # unbounded, so that the plans' rollbacks show
        rep = run_optimistic(build_scenario_model(cfg, mode=MODE_SEQUENTIAL),
                             plan, knobs, unbounded=True)
        rb[name] = rep.rolled_back_events
        identical[name] = compare_reports(seq, rep)["record_diff_count"] == 0
    ok = rb["vertex-event"] < rb["edge"] and all(identical.values())
    _verdict(
        "A5 rollback characterisation",
        ok,
        f"k=4 skewed traffic: vertex-event rollbacks {rb['vertex-event']} < "
        f"edge-throughput {rb['edge']}, records identical to sequential: "
        f"{identical}")


def test_vertex_event_plan_profiles_the_scenario_itself():
    # build_plan profiles on its own topology and routes; the plan must be
    # the one a fresh sequential run of the whole scenario gives
    cfg = _skewed_cfg()
    cfg["run"]["partitions"].update(k=4, strategy=WeightModel.VERTEX_EVENT.value)
    topo = build_topology(cfg)
    expected = partition_balanced(
        topo, 4, derive_vertex_event_weights(_skewed_seq_run()), WeightModel.VERTEX_EVENT)
    assert build_plan(cfg, topo).assignment == expected.assignment


def test_vertex_event_plan_of_the_straggler_benchmark_is_pinned():
    # the benchmark's straggler-k4 scenario (A5's flows, 300 us, k=4): its
    # plan weighs each node by the events of the profiling run
    cfg = _skewed_cfg()
    cfg["run"].update(end_ns=300_000, seed=8)
    cfg["traffic"]["seed"] = 8
    cfg["run"]["partitions"].update(k=4, strategy=WeightModel.VERTEX_EVENT.value)
    plan = build_plan(cfg, build_topology(cfg))
    assert "".join(str(plan.assignment[n]) for n in sorted(plan.assignment)) == (
        "02322110321133111131111331111331313331333230222230")


def test_A6_qos_conformance_against_tick_oracle():
    rnd = random.Random(20_260_824)
    params = SrtcmParams(cir_Bps=313, cbs_bytes=4000, ebs_bytes=9000)
    st = []
    meter = SrtcmMeter(params, st)
    oracle = TickSrtcm(params)
    bucket = TokenBucket(5000, 450, st)
    st[bucket.i] = 0
    bucket_oracle = TickBucket(5000, 450, start_full=False)
    now = 0
    mismatches = 0
    cap_violations = 0
    n = 100_000
    for _ in range(n):
        now += rnd.randint(0, 40)
        oracle.advance_to(now)
        bucket_oracle.advance_to(now)
        size = rnd.randint(1, 3000)
        if meter.mark(st, size, now) != oracle.mark(size):
            mismatches += 1
        bucket.refill(st, now)
        if bucket.take(st, min(size, 5000)) != bucket_oracle.take(min(size, 5000)):
            mismatches += 1
        if not (0 <= st[bucket.i] <= bucket.capacity_bytes * TOKEN_SCALE):
            cap_violations += 1
        if not (0 <= st[meter.i] <= params.cbs_bytes * TOKEN_SCALE
                and 0 <= st[meter.i + 1] <= params.ebs_bytes * TOKEN_SCALE):
            cap_violations += 1
    # RED boundary behaviour, exhaustively over the random corpus
    from dsnetsim.qos import ClassQueue, RedParams, RedState
    red_violations = 0
    p = RedParams(2000, 8000, 0.1)
    for _ in range(2_000):
        st = []
        s = RedState(p, st)
        q = ClassQueue(64 * 1024, st)
        st[s.i] = rnd.uniform(0, 1999)
        u = rnd.random()
        if s.decide(st, q, q.fits(st, 100), 1, StubRng(u), 0) is not True:
            red_violations += 1
        st2 = []
        s2 = RedState(p, st2)
        q2 = ClassQueue(64 * 1024, st2)
        q2.push(st2, [], type("P", (), {"size": 8000})())
        st2[s2.i] = rnd.uniform(8100, 20000)
        u = rnd.random()
        if s2.decide(st2, q2, q2.fits(st2, 100), 1, StubRng(u), 0) is not False:
            red_violations += 1
    ok = mismatches == 0 and cap_violations == 0 and red_violations == 0
    _verdict(
        "A6 QoS conformance",
        ok,
        f"{n} random packets vs 1ns-tick oracle: {mismatches} color/token "
        f"mismatches, {cap_violations} capacity violations, "
        f"{red_violations} RED boundary violations (tol 0)")


def test_A7_send_event_economy_audit():
    lazy, _ = _lazy_run()
    # a second scenario with a deliberately tight shaper so blocking occurs
    tight_rep = _contended_run()
    violations = 0
    redundant = 0
    blocked_total = 0
    for rep in (lazy, tight_rep):
        for (node, port), audit in rep.port_audit.items():
            if audit["send"] > audit["arrive"] + audit["blocked"]:
                violations += 1
            redundant += audit["redundant"]
            blocked_total += audit["blocked"]
    ok = violations == 0 and redundant == 0 and blocked_total > 0
    _verdict(
        "A7 event economy audit",
        ok,
        f"SEND<=ARRIVE+blocked violations: {violations} (tol 0); redundant "
        f"SENDs outside rollback replay: {redundant} (tol 0); blocked "
        f"episodes exercised: {blocked_total} (>0 required)")


def _observed_contended_run(token_interval_ns: int = 0):
    """A sequential run of A7's contended scenario, lazy or refilling every
    ``token_interval_ns``, with ``kernel.dispatch`` wrapped to count from
    what each event does rather than from the model's counters: the events
    dispatched per target, the ARRIVEs each port put on its link, and per
    SEND whether its port's flag was set with a packet queued, the ARRIVEs
    it emitted and what it added to the port's stale and redundant counts.
    Returns (report, model, dispatched, sent, sends)."""
    key = ("observed", token_interval_ns)
    if key in _cache:
        return _cache[key]
    cfg = _contended_cfg()
    if token_interval_ns:
        cfg = load_scenario(None, {**cfg, "run": {
            **cfg["run"], "mode": MODE_BASELINE, "token_interval_ns": token_interval_ns}})
    model = build_scenario_model(cfg, mode=None if token_interval_ns else MODE_SEQUENTIAL)
    assert model.ctx.token_interval_ns == token_interval_ns
    dispatched = collections.Counter()
    sent = collections.Counter()  # (node, port) -> ARRIVEs put on its link
    sends = []  # (flag set and a packet queued, ARRIVEs emitted, stale + redundant added)
    real = kernel.dispatch

    def observed(lp, ev, ctx, fx=None):
        dispatched[ev.target] += 1
        if ev.kind == events.SEND:
            pipe = lp.pipelines[ev.payload]
            st = pipe.st
            armed = bool(st[SEND_FLAG]) and any(pipe.pkts)
            ignored = st[STALE_SENDS] + st[REDUNDANT_SENDS]
        out = real(lp, ev, ctx, fx)  # the loop empties out.emitted after each event
        arrives = [em for em in out.emitted if em.kind == events.ARRIVE]
        for em in arrives:
            sent[lp.node, lp.route_row[em.payload.dst]] += 1
        if ev.kind == events.SEND:
            sends.append((armed, len(arrives), st[STALE_SENDS] + st[REDUNDANT_SENDS] - ignored))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "dispatch", observed)
        report = run_sequential(model)
    _cache[key] = report, model, dispatched, sent, sends
    return _cache[key]


def test_per_lp_events_count_the_dispatched_events():
    """Each LP's count (``router.EVENTS``, kept in its own numbers) is the
    number of events the loop dispatched to it, LPs that ran none left out."""
    report, _, dispatched, _, _ = _observed_contended_run()
    assert report.per_lp_events == dict(dispatched)
    assert report.committed_events == sum(dispatched.values())
    assert sum(report.port_audit[p]["blocked"] for p in report.port_audit) > 0


@pytest.mark.parametrize("token_interval_ns", [0, 1_000], ids=["lazy", "periodic"])
def test_port_audit_conserves_every_routed_packet(token_interval_ns):
    """At every port, the packets routed to it (``arrive``) are those it put
    on its link, counted from the emitted ARRIVEs, plus those RED or a full
    queue dropped there, plus those still queued at the end."""
    report, model, _, sent, _ = _observed_contended_run(token_interval_ns)
    dropped = collections.Counter(
        (r.drop_node, model.lps[r.drop_node].route_row[r.dst]) for r in report.records
        if r.drop_stage in (DROP_RED, DROP_QUEUE))
    queued_total = 0
    for (node, port), audit in report.port_audit.items():
        queued = sum(map(len, model.lps[node].pipelines[port].pkts))
        queued_total += queued
        assert audit["arrive"] == sent[node, port] + dropped[node, port] + queued, (node, port)
    # the check covers all three fates
    assert sum(sent.values()) and sum(dropped.values()) and queued_total


def test_lazy_send_acted_on_puts_a_packet_on_the_wire():
    """In lazy mode a SEND is scheduled for the time the shaper holds the
    head packet's tokens, and every packet has one size, so a SEND that
    finds its port's flag set and a packet queued puts at least one packet
    on the link; every other SEND is counted as stale or redundant."""
    _, _, _, _, sends = _observed_contended_run()
    assert any(armed for armed, _, _ in sends)
    for armed, arrives, ignored in sends:
        if armed:
            assert arrives >= 1 and ignored == 0
        else:
            assert arrives == 0 and ignored == 1


@pytest.mark.parametrize("run", ["lazy", "periodic", "unbounded"])
def test_send_and_blocked_counts_are_exact(run):
    """Each blocked episode of a lazy port schedules one SEND, and a SEND
    either drains the port or blocks it again; so at the end every SEND
    but the one still pending ran, and one is pending exactly when a packet
    is still queued: ``blocked == send + 1`` then, ``blocked == send``
    otherwise. A periodic port waits for REFILL ticks and counts neither.
    No committed SEND is stale or redundant. Checked on A7's contended
    scenario, sequentially (lazy, and periodic at 1 us) and in a seeded
    unbounded k=4 run that rolls back."""
    if run == "unbounded":
        cfg = _contended_cfg()
        model = build_scenario_model(cfg, mode=MODE_SEQUENTIAL)
        report = run_optimistic(model, partition_balanced(build_topology(cfg), 4),
                                Knobs(gvt_interval=128, batch_size=8, schedule_seed=5),
                                unbounded=True)
        assert report.rolled_back_events > 0
        assert compare_reports(_contended_run(), report)["record_diff_count"] == 0
    else:
        report, model = _observed_contended_run(1_000 if run == "periodic" else 0)[:2]
    periodic = run == "periodic"
    wrong = []
    queued_at_end = 0
    for (node, port), audit in report.port_audit.items():
        queued = any(model.lps[node].pipelines[port].pkts)
        queued_at_end += queued
        send = 0 if periodic else audit["send"]
        blocked = 0 if periodic else send + queued
        if (audit["send"], audit["blocked"], audit["stale"], audit["redundant"]) != \
                (send, blocked, 0, 0):
            wrong.append((node, port, audit, queued))
    assert wrong == []
    # ports end both ways, and lazy ones ran SENDs
    assert queued_at_end
    assert periodic or any(audit["send"] for audit in report.port_audit.values())


def test_A8_gvt_and_fossil_safety_fuzz():
    topo = generate_synthetic_topology(10, 3, 2, seed=1)
    cfg = load_scenario(None, {
        "name": "fuzz",
        "topology": {"synthetic": {"n_access": 10, "n_mixed": 3,
                                   "n_kernel": 2, "seed": 1}},
        "traffic": {"rate_pps": 100_000, "seed": 5},
        "run": {"end_ns": 1_000_000},
    })
    seq = run_sequential(build_scenario_model(cfg, mode=MODE_SEQUENTIAL))
    plan = partition_balanced(topo, 4)
    rnd = random.Random(8)
    rounds = 0
    runs = 0
    violations = []
    while rounds < 1_000:
        knobs = Knobs(
            runtime="stepped",
            gvt_interval=rnd.choice((16, 32, 64, 128)),
            batch_size=rnd.choice((1, 4, 8, 16)),
            schedule_seed=rnd.randrange(10_000),
        )
        rep = run_optimistic(build_scenario_model(cfg, mode=MODE_SEQUENTIAL),
                             plan, knobs, unbounded=True)
        runs += 1
        rounds += rep.gvt_rounds
        gvts = [row[1] for row in rep.gvt_series if row[1] >= 0]
        if gvts != sorted(gvts):
            violations.append(f"run {runs}: GVT regressed")
        if compare_reports(seq, rep)["record_diff_count"] != 0:
            violations.append(f"run {runs}: records diverged")
    ok = not violations
    _verdict(
        "A8 GVT/fossil safety",
        ok,
        f"{rounds} GVT rounds over {runs} randomized 4-partition runs: "
        f"GVT monotone, below-GVT enqueue and fossil-rollback audits armed, "
        f"{len(violations)} violations (tol 0)" +
        (f": {violations[:3]}" if violations else ""))


def test_A9_partition_balance_corpus():
    corpus = [
        ("48-node", generate_synthetic_topology(38, 8, 2, seed=4)),
        ("64-node", generate_synthetic_topology(53, 9, 2, seed=4)),
        ("96-node", generate_synthetic_topology(85, 9, 2, seed=4)),
    ]
    rows = []
    failures = 0
    for name, topo in corpus:
        for k in (2, 4, 8):
            plan = partition_balanced(topo, k)
            within = plan.imbalance <= 1.10
            if not (within or plan.degraded):
                failures += 1
            rows.append(f"{name} k={k}: {plan.imbalance:.3f}"
                        + ("" if within else " (degraded reported)"))
    ok = failures == 0
    _verdict(
        "A9 partition balance",
        ok,
        "imbalance <=1.10 or degradation reported on every corpus entry: " +
        "; ".join(rows))

"""Acceptance criteria A1-A9.

Each test prints one PASS/FAIL line with the measured values and the pinned
tolerance, then asserts. Heavyweight runs are computed once and cached at
module scope. The whole file is sized to finish in well under 30 minutes on
8 cores.
"""

import random
import time

import pytest

from dsnetsim.kernel import Knobs, run_optimistic, run_sequential
from dsnetsim.metrics import compare_reports, write_records_csv
from dsnetsim.model import MODE_LAZY, build_model
from dsnetsim.partition import (
    WeightModel, derive_edge_throughput_weights, derive_vertex_event_weights,
    partition_balanced, partition_min_edgecut,
)
from dsnetsim.qos import TOKEN_SCALE, SrtcmMeter, SrtcmParams, TokenBucket
from dsnetsim.routing import compute_routes
from dsnetsim.scenario import (
    MODE_BASELINE, MODE_SEQUENTIAL, build_plan, build_scenario_model, build_topology,
    build_traffic_spec, load_scenario,
)
from dsnetsim.topology import generate_synthetic_topology
from dsnetsim.traffic import resolve_flows
from test_qos import TickBucket, TickSrtcm

_cache = {}


def _verdict(name, ok, detail):
    print(f"\n{name}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{name}: {detail}"


def _scenario_cfg():
    # the 50-node acceptance scenario: defaults pinned in the scenario module
    return load_scenario()


def _lazy_run():
    if "lazy" not in _cache:
        t0 = time.perf_counter()
        rep = run_sequential(build_scenario_model(_scenario_cfg(),
                                                  mode=MODE_SEQUENTIAL))
        _cache["lazy"] = (rep, time.perf_counter() - t0)
    return _cache["lazy"]


def _baseline_run(interval_ns):
    key = ("baseline", interval_ns)
    if key not in _cache:
        t0 = time.perf_counter()
        rep = run_sequential(build_scenario_model(
            _scenario_cfg(), mode=MODE_BASELINE, token_interval_ns=interval_ns))
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
    cfg = load_scenario(None, {
        "qos": {"default": {"shaper_burst_bytes": 4_000_000}},
    })
    lazy = run_sequential(build_scenario_model(cfg, mode=MODE_SEQUENTIAL))
    intervals = (1_000, 10_000, 100_000, 1_000_000)
    counts = [
        run_sequential(build_scenario_model(
            cfg, mode=MODE_BASELINE, token_interval_ns=ti)).committed_events
        for ti in intervals
    ]
    monotone = all(a > b for a, b in zip(counts, counts[1:]))
    above_lazy = all(c > lazy.committed_events for c in counts)
    ratio = counts[0] / lazy.committed_events
    topo = build_topology(cfg)
    routes = compute_routes(topo)
    spec = build_traffic_spec(cfg)
    lazy_counts = {
        run_sequential(build_model(
            topo, routes, spec, cfg["run"]["end_ns"], cfg["run"]["seed"],
            mode=MODE_LAZY, token_interval_ns=ti)).committed_events
        for ti in (0, 1_000, 1_000_000)
    }
    invariant = len(lazy_counts) == 1
    ok = monotone and above_lazy and ratio >= 10.0 and invariant
    _verdict(
        "A3 event economy",
        ok,
        f"baseline events {counts} monotone-decreasing={monotone}, all above "
        f"lazy {lazy.committed_events}={above_lazy}, ratio at 1us "
        f"{ratio:.1f}x (tol >=10x), lazy interval-invariant={invariant}")


def test_A4_serial_equivalence_byte_identical_records(tmp_path):
    lazy, _ = _lazy_run()
    ref = tmp_path / "sequential.csv"
    write_records_csv(str(ref), lazy.records)
    topo = build_topology(_scenario_cfg())
    results = []
    for k in (1, 2, 4, 8):
        plan = partition_balanced(topo, k)
        rep = run_optimistic(
            build_scenario_model(_scenario_cfg(), mode=MODE_SEQUENTIAL), plan,
            Knobs(runtime="stepped", gvt_interval=256, batch_size=8,
                  watchdog_s=300))
        path = tmp_path / f"optimistic-k{k}.csv"
        write_records_csv(str(path), rep.records)
        identical = path.read_bytes() == ref.read_bytes()
        results.append((k, identical, rep.rolled_back_events))
    ok = all(r[1] for r in results)
    _verdict(
        "A4 serial equivalence",
        ok,
        "record files byte-identical to sequential for " +
        ", ".join(f"k={k} ({'yes' if ident else 'NO'}, rb={rb})"
                  for k, ident, rb in results))


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
    plan_edge = partition_min_edgecut(
        topo, 4, derive_edge_throughput_weights(flows, routes, topo))
    knobs = Knobs(runtime="stepped", schedule_seed=None, jitter=0,
                  gvt_interval=256, batch_size=16, watchdog_s=120)
    rb = {}
    identical = {}
    for name, plan in (("vertex-event", plan_event), ("edge", plan_edge)):
        rep = run_optimistic(build_scenario_model(cfg, mode=MODE_SEQUENTIAL),
                             plan, knobs)
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


def test_A6_qos_conformance_against_tick_oracle():
    rnd = random.Random(20_260_824)
    params = SrtcmParams(cir_bps=313, cbs_bytes=4000, ebs_bytes=9000)
    meter = SrtcmMeter(params)
    oracle = TickSrtcm(params)
    bucket = TokenBucket(5000, 450, start_full=False)
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
        if meter.mark(size, now) != oracle.mark(size):
            mismatches += 1
        bucket.refill(now)
        if bucket.take(min(size, 5000)) != bucket_oracle.take(min(size, 5000)):
            mismatches += 1
        if not (0 <= bucket.tokens_scaled <= bucket.cap_scaled):
            cap_violations += 1
        if not (0 <= meter.tc_scaled <= params.cbs_bytes * TOKEN_SCALE
                and 0 <= meter.te_scaled <= params.ebs_bytes * TOKEN_SCALE):
            cap_violations += 1
    # RED boundary behaviour, exhaustively over the random corpus
    from dsnetsim.qos import ClassQueue, RedParams, RedState, DROP, ENQUEUE
    red_violations = 0
    p = RedParams(2000, 8000, 0.1)
    for _ in range(2_000):
        s = RedState(p)
        q = ClassQueue(0, 64 * 1024)
        s.avg = rnd.uniform(0, 1999)
        u = rnd.random()
        if s.decide(q, q.fits(100), 1, lambda: u) != ENQUEUE:
            red_violations += 1
        s2 = RedState(p)
        q2 = ClassQueue(0, 64 * 1024)
        q2.push(type("P", (), {"size": 8000})())
        s2.avg = rnd.uniform(8100, 20000)
        u = rnd.random()
        if s2.decide(q2, q2.fits(100), 1, lambda: u) != DROP:
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
    tight = load_scenario(None, {
        "name": "tight",
        "qos": {"default": {"shaper_rate_bps": 40_000_000,
                            "shaper_burst_bytes": 4_096}},
        "run": {"end_ns": 2_000_000},
    })
    tight_rep = run_sequential(build_scenario_model(tight, mode=MODE_SEQUENTIAL))
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
            jitter=rnd.randrange(6),
            watchdog_s=120,
        )
        rep = run_optimistic(build_scenario_model(cfg, mode=MODE_SEQUENTIAL),
                             plan, knobs)
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

"""Generated serial-equivalence test: for a drawn topology, flows (constant
or Poisson), plan and knobs, with and without the lookahead window, the
optimistic kernel commits exactly the sequential records, and under the
window it never rolls back. A fixed Poisson case under the window does not
depend on which cases hypothesis draws."""

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from dsnetsim.kernel import Knobs, run_optimistic, run_sequential
from dsnetsim.metrics import compare_reports
from dsnetsim.model import build_model
from dsnetsim.partition import PartitionPlan, WeightModel
from dsnetsim.qos import QosProfile
from dsnetsim.routing import compute_routes
from dsnetsim.topology import NodeTier, Topology, generate_synthetic_topology
from dsnetsim.traffic import Flow, TrafficSpec, resolve_flows

END_NS = 100_000
# a shaper this tight blocks under a few flows, so lazy runs take SEND events
TIGHT = dict(shaper_rate_Bps=40_000_000, shaper_burst_bytes=4_096)
DELAYS = (0, 1, 300, 1_000)


def _with_delays(base, delay):
    """``base`` with each bidirectional link's delay set to ``delay()``,
    called once per edge in edge order."""
    return Topology([(n, base.tiers[n], base.port_counts[n]) for n in base.node_ids()],
                    [dataclasses.replace(e, delay_ns=delay()) for e in base.edges])


@st.composite
def cases(draw):
    base = generate_synthetic_topology(
        draw(st.integers(2, 8)), draw(st.integers(1, 3)), draw(st.integers(1, 3)),
        seed=draw(st.integers(0, 1_000)))
    # one delay per bidirectional link, 0 ns included
    topo = _with_delays(base, lambda: draw(st.sampled_from(DELAYS)))
    n = topo.num_nodes
    flows = []
    for _ in range(draw(st.integers(1, 5))):
        src = draw(st.integers(0, n - 1))
        flows.append(Flow(src, (src + draw(st.integers(1, n - 1))) % n,
                          draw(st.integers(20_000, 300_000)), draw(st.sampled_from((0, 26, 46)))))
    tight = draw(st.sampled_from(list(NodeTier)))
    profiles = {t: QosProfile(**(TIGHT if t is tight else {})) for t in NodeTier}
    k = draw(st.integers(2, 4))
    plan = PartitionPlan(k, {n: draw(st.integers(0, k - 1)) for n in topo.node_ids()},
                         WeightModel.NO_WEIGHTS)
    # 0 refills lazily, 5 us runs REFILL chains
    token_interval_ns = draw(st.sampled_from((0, 5_000)))
    # a 1 B packet takes the shortest transmission, 1 ns, so it can land
    # exactly one lookahead after the event that sends it
    size = draw(st.sampled_from((1400, 1)))
    # exponential packet gaps take one more RNG draw per packet
    poisson = draw(st.booleans())
    knobs = Knobs(batch_size=draw(st.integers(1, 16)),
                  gvt_interval=draw(st.integers(1, 256)),
                  jitter=draw(st.integers(0, 4)),
                  schedule_seed=draw(st.one_of(st.none(), st.integers(0, 1_000))))
    return (topo, flows, (size, poisson), profiles, token_interval_ns, plan, knobs,
            draw(st.booleans()))


def _model(topo, flows, traffic, profiles, token_interval_ns):
    size, poisson = traffic
    spec = TrafficSpec(pattern="explicit", flows=tuple(flows), packet_size=size,
                       poisson=poisson)
    return build_model(topo, compute_routes(topo), spec, resolve_flows(spec, topo), END_NS, seed=42,
                       profiles=profiles, token_interval_ns=token_interval_ns)


@settings(max_examples=150, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(cases())
def test_stepped_records_equal_sequential(case):
    topo, flows, traffic, profiles, interval, plan, knobs, unbounded = case
    seq = run_sequential(_model(topo, flows, traffic, profiles, interval))
    rep = run_optimistic(_model(topo, flows, traffic, profiles, interval), plan, knobs,
                         unbounded=unbounded)
    assert compare_reports(seq, rep)["record_diff_count"] == 0
    assert rep.committed_events == seq.committed_events
    assert rep.generated == seq.generated
    if not unbounded:
        assert rep.rolled_back_events == 0


@pytest.mark.parametrize("token_interval_ns", (0, 5_000), ids=("lazy", "refill"))
@pytest.mark.parametrize("size", (1400, 1))
def test_windowed_poisson_records_equal_sequential(size, token_interval_ns):
    cycle = iter(DELAYS * 100)
    topo = _with_delays(generate_synthetic_topology(6, 2, 2, seed=3), lambda: next(cycle))
    n = topo.num_nodes
    flows = [Flow(src, (src + 5) % n, 200_000, ds)
             for src, ds in zip(range(0, n, 2), (0, 26, 46, 0, 26))]
    profiles = {t: QosProfile(**(TIGHT if t is NodeTier.MIXED else {})) for t in NodeTier}
    traffic = (size, True)
    seq = run_sequential(_model(topo, flows, traffic, profiles, token_interval_ns))
    rep = run_optimistic(_model(topo, flows, traffic, profiles, token_interval_ns),
                         PartitionPlan(3, {node: node % 3 for node in topo.node_ids()},
                                       WeightModel.NO_WEIGHTS), Knobs())
    assert compare_reports(seq, rep)["record_diff_count"] == 0
    assert rep.committed_events == seq.committed_events > len(flows)
    assert rep.rolled_back_events == 0

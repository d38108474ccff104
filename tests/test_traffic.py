"""Workload generation: flow resolution, generated-count formula, DS sampling."""

import random

import pytest

from dsnetsim import events
from dsnetsim.kernel import run_sequential
from dsnetsim.model import build_model
from dsnetsim.router import dispatch
from dsnetsim.routing import compute_routes
from dsnetsim.topology import NodeTier, Topology, generate_synthetic_topology
from dsnetsim.traffic import (
    DsSampler, Flow, TrafficError, TrafficSpec, build_sources,
    expected_generated, interarrival_ns, resolve_flows,
)
from conftest import bidirectional


def test_interarrival_arithmetic():
    assert interarrival_ns(25_000) == 40_000
    assert interarrival_ns(10**6) == 1_000


def test_single_core_node_is_forced_destination():
    nodes = [(0, NodeTier.KERNEL, 1), (1, NodeTier.ACCESS, 1)]
    topo = Topology(nodes, [bidirectional(0, 1, 0, 0)])
    flows = resolve_flows(TrafficSpec(seed=3), topo)
    assert flows == [Flow(1, 0, 25_000)]


def test_destinations_fixed_by_seed():
    topo = generate_synthetic_topology(40, 8, 2, seed=1)
    a = resolve_flows(TrafficSpec(seed=7), topo)
    b = resolve_flows(TrafficSpec(seed=7), topo)
    assert a == b
    c = resolve_flows(TrafficSpec(seed=8), topo)
    assert a != c


def test_destination_histogram_matches_seeded_oracle():
    topo = generate_synthetic_topology(40, 8, 2, seed=1)
    flows = resolve_flows(TrafficSpec(seed=7), topo)
    core = sorted(topo.nodes_in_tier(NodeTier.MIXED) +
                  topo.nodes_in_tier(NodeTier.KERNEL))
    rnd = random.Random(7)
    expected = [rnd.choice(core) for _ in topo.nodes_in_tier(NodeTier.ACCESS)]
    assert [f.dst for f in flows] == expected


def test_explicit_flows_pass_through_and_validate():
    topo = generate_synthetic_topology(2, 1, 1, seed=0)
    spec = TrafficSpec(pattern="explicit", flows=(Flow(2, 0, 100, 46),))
    assert resolve_flows(spec, topo) == [Flow(2, 0, 100, 46)]
    bad = TrafficSpec(pattern="explicit", flows=(Flow(2, 2, 100),))
    with pytest.raises(TrafficError, match="src == dst"):
        resolve_flows(bad, topo)


def test_generated_count_formula_matches_run():
    topo = generate_synthetic_topology(4, 2, 1, seed=0)
    spec = TrafficSpec(rate_pps=25_000, seed=5)
    end = 1_000_000
    model = build_model(topo, compute_routes(topo), spec, resolve_flows(spec, topo), end, seed=1)
    report = run_sequential(model)
    # one packet at t=0 plus one per full interarrival
    assert report.generated == expected_generated(spec, topo, end)
    assert report.generated == 4 * (end // 40_000 + 1)


def test_expected_generated_rejects_poisson():
    topo = generate_synthetic_topology(1, 1, 1, seed=0)
    with pytest.raises(TrafficError):
        expected_generated(TrafficSpec(poisson=True), topo, 1000)


def test_build_sources_groups_by_node():
    topo = generate_synthetic_topology(3, 1, 1, seed=0)
    sources = build_sources(resolve_flows(TrafficSpec(seed=2), topo))
    assert sorted(sources) == topo.nodes_in_tier(NodeTier.ACCESS)
    for gens in sources.values():
        assert len(gens) == 1
        assert gens[0].interarrival_ns == 40_000


@pytest.mark.parametrize("poisson", [False, True])
def test_packet_size_and_gap_draw_are_the_runs(poisson):
    """The spec-wide packet size and Poisson flag are held once, in the
    model's context, and every generated packet takes that size."""
    topo = generate_synthetic_topology(3, 1, 1, seed=0)
    spec = TrafficSpec(seed=2, packet_size=512, poisson=poisson)
    model = build_model(topo, compute_routes(topo), spec, resolve_flows(spec, topo), 1_000_000,
                        seed=1)
    assert (model.ctx.packet_size, model.ctx.poisson) == (512, poisson)
    gen = next(ev for ev in model.bootstrap if ev.kind == events.GENERATE)
    fx = dispatch(model.lps[gen.target], gen, model.ctx)
    assert [ev.payload.size for ev in fx.emitted if ev.kind == events.ARRIVE] == [512]
    # the next GENERATE is one constant interval on, or a drawn gap
    nxt = [ev.time for ev in fx.emitted if ev.kind == events.GENERATE]
    assert len(nxt) == 1 and (nxt[0] != 40_000 if poisson else nxt[0] == 40_000)


def test_ds_probs_must_sum_to_one():
    with pytest.raises(TrafficError, match="sum"):
        TrafficSpec(ds_probs={46: 0.5, 0: 0.6})


def test_ds_probs_keys_must_be_ds_values():
    # a DS value indexes each tier's class table, which holds 0..63
    with pytest.raises(TrafficError, match=r"ds_probs: DS value 99 is not an integer in 0\.\.63"):
        TrafficSpec(ds_probs={99: 1.0})


def test_explicit_flow_ds_must_be_a_ds_value():
    topo = generate_synthetic_topology(40, 8, 2, seed=1)
    spec = TrafficSpec(pattern="explicit", flows=(Flow(10, 0, 25_000, ds=-5),))
    with pytest.raises(TrafficError, match=r"flows\[0\]: ds: DS value -5 is not"):
        resolve_flows(spec, topo)
    ok = TrafficSpec(pattern="explicit", flows=(Flow(10, 0, 25_000), Flow(11, 0, 25_000, ds=63)))
    assert [f.ds for f in resolve_flows(ok, topo)] == [None, 63]


def test_ds_sampler_inverse_cdf():
    s = DsSampler({0: 0.5, 26: 0.3, 46: 0.2})
    # sorted ds order: 0 (cum .5), 26 (cum .8), 46 (cum 1.0)
    assert s.sample(0.0) == 0
    assert s.sample(0.49) == 0
    assert s.sample(0.5) == 26
    assert s.sample(0.79) == 26
    assert s.sample(0.8) == 46
    assert s.sample(0.999) == 46


def test_ds_sampler_distribution_converges():
    s = DsSampler({46: 0.2, 26: 0.3, 0: 0.5})
    rnd = random.Random(0)
    counts = {0: 0, 26: 0, 46: 0}
    n = 20_000
    for _ in range(n):
        counts[s.sample(rnd.random())] += 1
    assert counts[0] / n == pytest.approx(0.5, abs=0.02)
    assert counts[26] / n == pytest.approx(0.3, abs=0.02)
    assert counts[46] / n == pytest.approx(0.2, abs=0.02)


def test_zero_packet_size_fails_before_the_run():
    with pytest.raises(TrafficError, match="packet_size"):
        TrafficSpec(packet_size=0)


def test_zero_rate_flow_fails_before_the_run():
    # 2,000,000,000 pps has a packet interval that rounds to 0 ns, so its
    # GENERATE would re-schedule itself at the same time forever
    topo = generate_synthetic_topology(4, 2, 1, seed=0)
    for rate in (0, 2_000_000_000):
        with pytest.raises(TrafficError, match="rate_pps"):
            TrafficSpec(rate_pps=rate)
        spec = TrafficSpec(pattern="explicit", flows=(Flow(3, 1, 100), Flow(4, 0, rate)))
        with pytest.raises(TrafficError, match=r"flows\[1\]: rate_pps"):
            build_model(topo, compute_routes(topo), spec, resolve_flows(spec, topo), 100_000,
                        seed=1)

"""Shared fixtures: small hand-built topologies and model builders."""

import pytest

from dsnetsim.qos import QosProfile
from dsnetsim.routing import compute_routes
from dsnetsim.topology import Link, NodeTier, Topology, generate_synthetic_topology
from dsnetsim.traffic import Flow, TrafficSpec, resolve_flows
from dsnetsim.model import build_model

# ids of the two speculation regimes: the default lookahead window, and
# run_optimistic(..., unbounded=True), which speculates and rolls back
WINDOWS = ("lookahead", "unbounded")


def bidirectional(a, b, pa, pb, bw=25_000_000_000, delay=1_000):
    """One bidirectional link; the Topology builds its reverse."""
    return Link(a, b, pa, pb, bw, delay)


def line_topology(n=3, bw=25_000_000_000, delay=1_000):
    """0 - 1 - ... - n-1, all access tier."""
    nodes = []
    links = []
    for i in range(n):
        ports = 1 if i in (0, n - 1) else 2
        nodes.append((i, NodeTier.ACCESS, ports))
    for i in range(n - 1):
        pa = 0 if i == 0 else 1
        links.append(bidirectional(i, i + 1, pa, 0, bw, delay))
    return Topology(nodes, links)


def square_topology():
    """0-1, 1-2, 2-3, 3-0: two equal-cost paths between opposite corners."""
    nodes = [(i, NodeTier.ACCESS, 2) for i in range(4)]
    links = [bidirectional(0, 1, 0, 0), bidirectional(1, 2, 1, 0),
             bidirectional(2, 3, 1, 0), bidirectional(3, 0, 1, 1)]
    return Topology(nodes, links)


@pytest.fixture
def synthetic50():
    return generate_synthetic_topology(40, 8, 2, seed=1)


def single_flow_model(topo, src, dst, rate_pps=1_000_000, end_ns=100_000,
                      size=1400, ds=0, seed=42, profiles=None, **kwargs):
    spec = TrafficSpec(pattern="explicit",
                       flows=(Flow(src, dst, rate_pps, ds),),
                       packet_size=size)
    routes = compute_routes(topo)
    return build_model(topo, routes, spec, resolve_flows(spec, topo), end_time_ns=end_ns,
                       seed=seed, profiles=profiles, **kwargs)


def tier_profiles(**kwargs):
    return {tier: QosProfile(**kwargs) for tier in NodeTier}


def tight_shaper_profiles():
    """A shaper tight enough to block on the default traffic, as in A7."""
    return tier_profiles(shaper_rate_Bps=40_000_000, shaper_burst_bytes=4_096)

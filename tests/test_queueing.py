"""Analytic oracles for one port: its waits checked against queueing
formulas, not against another event loop.

Behind a shaper whose burst is one packet, a port is an M/D/1 queue: a
packet leaves at ``max(its arrival, the previous departure + D)``, where
D is the time the shaper takes to earn one packet's tokens, which is
Lindley's recursion for the waits of a single server with service time D.
Under Poisson arrivals at rate lambda the Pollaczek-Khinchine mean wait is
``rho * D / (2 * (1 - rho))``, with ``rho = lambda * D``.
"""

import math

import pytest

from dsnetsim.kernel import run_sequential
from dsnetsim.model import build_model
from dsnetsim.qos import Color, QosProfile, RedParams
from dsnetsim.routing import compute_routes
from dsnetsim.topology import NodeTier
from dsnetsim.traffic import Flow, TrafficSpec, resolve_flows
from conftest import line_topology

SIZE = 1_400  # bytes per packet
BANDWIDTH_BPS = 100_000_000_000
DELAY_NS = 1_000
TRANSMISSION_NS = 112  # 1,400 B at 100 Gb/s
SERVICE_NS = 1_000  # 1,400 B at 1.4 GB/s
END_NS = 100_000_000
BATCHES = 20
SEED = 7


def _run(flows, profile=None, end_ns=END_NS, poisson=False):
    """A sequential run of ``flows`` over one link between two access
    nodes, every tier on ``profile`` (None: the defaults)."""
    topo = line_topology(2, bw=BANDWIDTH_BPS, delay=DELAY_NS)
    spec = TrafficSpec(pattern="explicit", flows=tuple(flows), packet_size=SIZE,
                       poisson=poisson)
    profiles = None if profile is None else {tier: profile for tier in NodeTier}
    return run_sequential(build_model(topo, compute_routes(topo), spec,
                                      resolve_flows(spec, topo), end_ns, SEED,
                                      profiles=profiles))


def _md1_profile():
    """One class; queue and RED out of reach, so nothing drops; a shaper
    whose burst is one packet, so it serves one packet per SERVICE_NS."""
    never = RedParams(2**40, 2**40 + 1, 0.0)
    return QosProfile(num_classes=1, queue_capacity_bytes=2**40,
                      shaper_rate_Bps=SIZE * 10**9 // SERVICE_NS, shaper_burst_bytes=SIZE,
                      red={color: never for color in Color})


@pytest.mark.parametrize("rho", [0.3, 0.5, 0.7])
def test_poisson_waits_match_md1(rho):
    rep = _run([Flow(0, 1, round(rho * 10**9 / SERVICE_NS), 0)], _md1_profile(),
               poisson=True)
    assert rep.dropped == 0
    waits = [r.delivered_ns - r.created_ns - TRANSMISSION_NS - DELAY_NS
             for r in sorted(rep.records, key=lambda r: r.created_ns)]
    assert min(waits) == 0
    # batch means: consecutive waits are correlated, means of long batches
    # are nearly independent
    size = len(waits) // BATCHES
    means = [sum(waits[b * size:(b + 1) * size]) / size for b in range(BATCHES)]
    mean = sum(means) / BATCHES
    stderr = math.sqrt(sum((m - mean) ** 2 for m in means) / (BATCHES - 1) / BATCHES)
    expected = rho * SERVICE_NS / (2 * (1 - rho))
    assert abs(mean - expected) <= 3 * stderr, (mean, expected, stderr)


def test_a_port_does_not_serialize_its_link():
    """A port is a token-bucket regulator, not a serialized link: two
    packets created at t=0 on one port, within the default burst, both
    arrive after one transmission time plus the delay."""
    rep = _run([Flow(0, 1, 1, 0), Flow(0, 1, 1, 0)], end_ns=10_000)
    assert [(r.created_ns, r.delivered_ns) for r in rep.records] == \
        [(0, TRANSMISSION_NS + DELAY_NS)] * 2

"""Assembles a runnable simulation model: one LP per network node, wired
with its egress pipelines, routing row, and traffic sources, plus the
bootstrap events that start the run. Each tier's profile
(``qos.QosProfile``) is the set of QoS elements that every port of the
tier shares, so a port owns only its numbers and its packet lists.
``token_interval_ns`` is the shaper mode: 0 is the paper's lazy shaper,
which refills a token bucket exactly when it is read, and a positive value
is the periodic baseline's interval."""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import events
from .qos import QosProfile
from .router import RouterLp, EgressPipeline, Effects
from .topology import Topology, NodeTier
from .traffic import Flow, TrafficSpec, DsSampler, build_sources


class ModelError(Exception):
    pass


class ModelContext:
    """Immutable run-wide settings shared by every handler and both kernels:
    the shaper mode ``token_interval_ns``, the horizon ``end_time_ns``,
    the traffic's ``packet_size`` (bytes, the same for every flow),
    ``poisson`` (exponential packet gaps instead of constant ones) and
    ``sample_ds``, which maps a uniform draw to a DS value."""

    __slots__ = ("token_interval_ns", "end_time_ns", "packet_size", "poisson", "sample_ds")

    def __init__(self, token_interval_ns: int, end_time_ns: int, traffic: TrafficSpec):
        self.token_interval_ns = token_interval_ns
        self.end_time_ns = end_time_ns
        self.packet_size = traffic.packet_size
        self.poisson = traffic.poisson
        self.sample_ds = DsSampler(traffic.ds_probs).sample


@dataclass
class Model:
    scenario_id: str
    topology: Topology
    lps: dict[int, RouterLp]
    bootstrap: list[events.Event]
    ctx: ModelContext


def lookahead_ns(topo: Topology, assignment: dict[int, int]) -> float:
    """The least virtual time an event takes to reach another partition
    under ``assignment``: 1 ns, the shortest transmission (packets are
    never empty), plus the smallest ``delay_ns`` of a link whose ends lie
    in different partitions; ``math.inf`` when no link is cut."""
    return 1 + min((e.delay_ns for e in topo.edges
                    if assignment[e.src] != assignment[e.dst]), default=math.inf)


def build_model(
    topo: Topology,
    routes: dict[int, dict[int, int]],
    traffic: TrafficSpec,
    flows: list[Flow],
    end_time_ns: int,
    seed: int,
    profiles: dict[NodeTier, QosProfile] | None = None,
    token_interval_ns: int = 0,
    scenario_id: str = "scenario",
) -> Model:
    """``routes`` are :func:`routing.compute_routes`'s per-node rows; each
    LP holds its own. ``flows`` are ``traffic``'s flows,
    :func:`traffic.resolve_flows`, resolved once by the caller, which
    routes along them too. ``token_interval_ns`` is the shaper mode: 0 refills
    lazily, and a positive value schedules one REFILL chain per port at
    that interval. A packet larger than the shaper burst of a tier the
    topology uses could never leave, so it is a :class:`ModelError`."""
    if token_interval_ns < 0:
        raise ModelError(f"token_interval_ns: {token_interval_ns} is not >= 0")
    if profiles is None:
        profiles = {tier: QosProfile() for tier in NodeTier}
    used = set(topo.tiers.values())
    for tier in NodeTier:
        if tier in used and traffic.packet_size > profiles[tier].shaper.capacity_bytes:
            raise ModelError(
                f"packet_size {traffic.packet_size} B exceeds the {tier.value} tier's "
                f"shaper burst of {profiles[tier].shaper.capacity_bytes} B, so no packet "
                "could pass the shaper")
    ctx = ModelContext(token_interval_ns, end_time_ns, traffic)

    sources = build_sources(flows)
    for nid in sources:
        if topo.port_counts[nid] == 0:
            raise ModelError(f"source node {nid} has no ports")

    lps: dict[int, RouterLp] = {}
    for nid in topo.node_ids():
        tier = profiles[topo.tiers[nid]]
        pipelines = []
        for port in range(topo.port_counts[nid]):
            link = topo.port_link.get((nid, port))
            if link is None:
                continue  # unconnected spare port
            while len(pipelines) < port:
                pipelines.append(None)  # placeholder, never routed to
            pipelines.append(EgressPipeline(port, link, tier))
        lps[nid] = RouterLp(nid, pipelines, routes[nid], seed, sources.get(nid, []))

    bootstrap: list[events.Event] = []
    fx = Effects()
    for nid in sorted(sources):
        lp = lps[nid]
        for flow_idx in range(len(lp.flows)):
            lp.emit(fx, 0, nid, events.GENERATE, flow_idx)
    if token_interval_ns:
        for nid in topo.node_ids():
            lp = lps[nid]
            for pipe in lp.pipelines:
                if pipe is not None and token_interval_ns <= end_time_ns:
                    lp.emit(fx, token_interval_ns, nid, events.REFILL, pipe.port)
    bootstrap.extend(fx.emitted)
    return Model(scenario_id, topo, lps, bootstrap, ctx)

"""Synthetic workload generation.

The default pattern has every access node streaming constant-rate
fixed-size packets toward one randomly chosen (but seeded and then fixed)
mixed or kernel node. Explicit flow lists cover regression scenarios and
skewed benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .router import FlowGen, PKT_ID_STRIDE
from .topology import Topology, NodeTier

import random

PATTERN_ACCESS_TO_CORE = "access_to_core"
PATTERN_EXPLICIT = "explicit"

DEFAULT_DS_PROBS = {46: 0.2, 26: 0.3, 0: 0.5}
# the highest rate whose packet interval, round(1e9 / rate), is >= 1 ns;
# at 0 ns a constant-rate flow would re-schedule itself at the same time
MAX_RATE_PPS = 1_999_999_999


class TrafficError(Exception):
    pass


@dataclass(frozen=True)
class Flow:
    src: int
    dst: int
    rate_pps: int
    ds: int | None = None  # None -> draw per packet from the DS distribution


@dataclass(frozen=True)
class TrafficSpec:
    pattern: str = PATTERN_ACCESS_TO_CORE
    packet_size: int = 1400
    rate_pps: int = 25_000  # per source, access_to_core pattern
    ds_probs: dict = field(default_factory=lambda: dict(DEFAULT_DS_PROBS))
    seed: int = 0
    poisson: bool = False
    flows: tuple = ()  # Flow entries, explicit pattern

    def __post_init__(self):
        for ds in self.ds_probs:
            _check_ds(ds, "ds_probs")
        total = sum(self.ds_probs.values())
        if abs(total - 1.0) > 1e-9:
            raise TrafficError(f"ds_probs sum to {total}, expected 1")
        if self.pattern not in (PATTERN_ACCESS_TO_CORE, PATTERN_EXPLICIT):
            raise TrafficError(f"unknown traffic pattern {self.pattern!r}")
        if self.pattern == PATTERN_ACCESS_TO_CORE:
            _check_rate(self.rate_pps, "rate_pps")
        if self.packet_size <= 0:
            raise TrafficError("packet_size must be positive")


def is_ds(v) -> bool:
    """A DS value: an integer in 0..63, an index of each tier's class table."""
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v <= 63


def _check_ds(ds, where: str):
    if not is_ds(ds):
        raise TrafficError(f"{where}: DS value {ds!r} is not an integer in 0..63")


def _check_rate(rate_pps: int, where: str):
    if not 0 < rate_pps <= MAX_RATE_PPS:
        raise TrafficError(f"{where}: {rate_pps} is not in 1..{MAX_RATE_PPS}")


def interarrival_ns(rate_pps: int) -> int:
    return round(1e9 / rate_pps)


class DsSampler:
    """Inverse-CDF sampler over the DS distribution; pure in the draw."""

    def __init__(self, ds_probs: dict):
        cum = 0.0
        self.table = []
        for ds in sorted(ds_probs):
            cum += ds_probs[ds]
            self.table.append((cum, ds))

    def sample(self, u: float) -> int:
        for cum, ds in self.table:
            if u < cum:
                return ds
        return self.table[-1][1]


def resolve_flows(spec: TrafficSpec, topo: Topology) -> list[Flow]:
    """Concrete flow list for the run; destination choices are drawn once
    from ``spec.seed`` and stay fixed for the whole run."""
    if spec.pattern == PATTERN_EXPLICIT:
        flows = [f if isinstance(f, Flow) else Flow(*f) for f in spec.flows]
        for i, f in enumerate(flows):
            if f.src == f.dst:
                raise TrafficError(f"flows[{i}]: {f} has src == dst")
            _check_rate(f.rate_pps, f"flows[{i}]: rate_pps")
            if f.ds is not None:
                _check_ds(f.ds, f"flows[{i}]: ds")
            for node in (f.src, f.dst):
                if node not in topo.tiers:
                    raise TrafficError(f"flows[{i}]: node {node} is not in the topology")
        return flows
    core = topo.nodes_in_tier(NodeTier.MIXED) + topo.nodes_in_tier(NodeTier.KERNEL)
    core.sort()
    if not core:
        raise TrafficError("access_to_core pattern needs at least one mixed/kernel node")
    rnd = random.Random(spec.seed)
    flows = []
    for src in topo.nodes_in_tier(NodeTier.ACCESS):
        flows.append(Flow(src, rnd.choice(core), spec.rate_pps))
    return flows


def build_sources(flows) -> dict[int, list[FlowGen]]:
    """Per-node generator states of the run's resolved ``flows``, keyed by
    source LP. A generator holds only its flow's own facts; the spec-wide
    ``packet_size`` and ``poisson`` go into the run's
    :class:`model.ModelContext`."""
    sources: dict[int, list[FlowGen]] = {}
    for idx, flow in enumerate(flows):
        gen = FlowGen(
            dst=flow.dst,
            interarrival_ns=interarrival_ns(flow.rate_pps),
            ds=flow.ds,
            # packet ids are blocked per flow so they stay unique even when
            # one node roots several flows
            pid_base=idx * PKT_ID_STRIDE,
        )
        sources.setdefault(flow.src, []).append(gen)
    return sources


def expected_generated(spec: TrafficSpec, topo: Topology, end_ns: int) -> int:
    """Packet count a constant-rate run will generate over the horizon:
    one packet at t=0 plus one per full interarrival."""
    if spec.poisson:
        raise TrafficError("expected_generated is defined for constant-rate traffic only")
    total = 0
    for flow in resolve_flows(spec, topo):
        total += end_ns // interarrival_ns(flow.rate_pps) + 1
    return total

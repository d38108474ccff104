"""Network graph: nodes with tiers and ports, directed links, validation,
file load/save, a synthetic three-tier generator, and an importer for
externally published topology dumps.

The on-disk format is YAML with two sections::

    nodes:
      - {id: 0, tier: access, ports: 1}
    links:
      - {src: 0, src_port: 0, dst: 1, dst_port: 0,
         bandwidth_bps: 25000000000, delay_ns: 1000}

Each ``links`` entry is bidirectional and is expanded into two directed
links internally.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

import yaml


class TopologyError(Exception):
    """Malformed or inconsistent topology input."""


class NodeTier(Enum):
    ACCESS = "access"
    MIXED = "mixed"
    KERNEL = "kernel"


@dataclass(frozen=True)
class Link:
    """One directed link. ``src_port`` is the egress port index at ``src``."""

    src: int
    dst: int
    src_port: int
    dst_port: int
    bandwidth_bps: int
    delay_ns: int


DEFAULT_DELAY_NS = 1_000
ACCESS_BW = 25_000_000_000
CORE_BW = 100_000_000_000


class Topology:
    """Validated, immutable-after-construction network graph."""

    def __init__(self, nodes, links):
        # nodes: list of (node_id, NodeTier, port_count); links: directed Links
        self.tiers: dict[int, NodeTier] = {}
        self.port_counts: dict[int, int] = {}
        for nid, tier, ports in nodes:
            if nid in self.tiers:
                raise TopologyError(f"duplicate node id {nid}")
            self.tiers[nid] = tier
            self.port_counts[nid] = ports
        self.links: list[Link] = list(links)
        self.out_links: dict[int, list[Link]] = {n: [] for n in self.tiers}
        self.port_link: dict[tuple[int, int], Link] = {}
        self._validate()

    @property
    def num_nodes(self) -> int:
        return len(self.tiers)

    @property
    def num_links(self) -> int:
        return len(self.links)

    def node_ids(self) -> list[int]:
        return sorted(self.tiers)

    def nodes_in_tier(self, tier: NodeTier) -> list[int]:
        return sorted(n for n, t in self.tiers.items() if t is tier)

    def neighbors(self, nid: int) -> list[int]:
        return [l.dst for l in self.out_links[nid]]

    def _validate(self):
        n = self.num_nodes
        if n == 0:
            raise TopologyError("topology has no nodes")
        ids = sorted(self.tiers)
        if ids != list(range(n)):
            raise TopologyError("node ids must be dense 0..N-1")
        for l in self.links:
            if l.src not in self.tiers or l.dst not in self.tiers:
                raise TopologyError(f"link {l} references unknown node")
            if l.src == l.dst:
                raise TopologyError(f"self-loop at node {l.src}")
            if l.bandwidth_bps <= 0:
                raise TopologyError(f"non-positive bandwidth on link {l}")
            if l.delay_ns < 0:
                raise TopologyError(f"negative delay on link {l}")
            if not (0 <= l.src_port < self.port_counts[l.src]):
                raise TopologyError(f"bad src_port on link {l}")
            if not (0 <= l.dst_port < self.port_counts[l.dst]):
                raise TopologyError(f"bad dst_port on link {l}")
            key = (l.src, l.src_port)
            if key in self.port_link:
                raise TopologyError(f"port {key} used by more than one link")
            self.port_link[key] = l
            self.out_links[l.src].append(l)
        for nid in self.out_links:
            self.out_links[nid].sort(key=lambda l: l.src_port)
        # connectivity over the directed graph (links come in pairs, so a
        # plain BFS from node 0 suffices)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for l in self.out_links[u]:
                if l.dst not in seen:
                    seen.add(l.dst)
                    stack.append(l.dst)
        if len(seen) != n:
            missing = sorted(set(self.tiers) - seen)[:5]
            raise TopologyError(f"graph is disconnected (e.g. nodes {missing})")


def _from_pairs(tiers, pairs) -> Topology:
    """Topology from (node id, NodeTier) entries and undirected
    (a, b, bandwidth_bps, delay_ns) pairs; each node's ports are numbered in
    pair order."""
    ports = {nid: 0 for nid, _ in tiers}
    links = []
    for a, b, bw, delay in pairs:
        pa, pb = ports[a], ports[b]
        ports[a] += 1
        ports[b] += 1
        links += (Link(a, b, pa, pb, bw, delay), Link(b, a, pb, pa, bw, delay))
    return Topology([(nid, tier, max(ports[nid], 1)) for nid, tier in tiers], links)


def load_topology(path: str) -> Topology:
    """Load and validate a topology file."""
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as e:
        raise TopologyError(f"cannot parse {path}: {e}") from e
    if not isinstance(doc, dict) or "nodes" not in doc or "links" not in doc:
        raise TopologyError(f"{path}: expected 'nodes' and 'links' sections")
    nodes = []
    for n in doc["nodes"]:
        try:
            nodes.append((int(n["id"]), NodeTier(n["tier"]), int(n["ports"])))
        except (KeyError, ValueError) as e:
            raise TopologyError(f"bad node entry {n}: {e}") from e
    links = []
    for entry in doc["links"]:
        try:
            a, b = int(entry["src"]), int(entry["dst"])
            pa, pb = int(entry["src_port"]), int(entry["dst_port"])
            bw = int(entry["bandwidth_bps"])
            delay = int(entry.get("delay_ns", DEFAULT_DELAY_NS))
            links += (Link(a, b, pa, pb, bw, delay), Link(b, a, pb, pa, bw, delay))
        except (KeyError, ValueError) as e:
            raise TopologyError(f"bad link entry {entry}: {e}") from e
    return Topology(nodes, links)


def save_topology(topo: Topology, path: str):
    """Write the YAML format loaded by :func:`load_topology`."""
    nodes = [
        {"id": nid, "tier": topo.tiers[nid].value, "ports": topo.port_counts[nid]}
        for nid in topo.node_ids()
    ]
    links = []
    for l in topo.links:
        if l.src < l.dst:  # emit each bidirectional pair once
            links.append(
                {
                    "src": l.src,
                    "src_port": l.src_port,
                    "dst": l.dst,
                    "dst_port": l.dst_port,
                    "bandwidth_bps": l.bandwidth_bps,
                    "delay_ns": l.delay_ns,
                }
            )
    with open(path, "w") as fh:
        yaml.safe_dump({"nodes": nodes, "links": links}, fh, sort_keys=False)


def generate_synthetic_topology(
    n_access: int, n_mixed: int, n_kernel: int, seed: int
) -> Topology:
    """Deterministic three-tier graph: access nodes attach to mixed nodes,
    mixed nodes to the kernel core, kernel nodes form a ring (or chain)."""
    if n_access < 1 or n_mixed < 1 or n_kernel < 1:
        raise TopologyError("all tier counts must be >= 1")
    rnd = random.Random(seed)
    kernel_ids = list(range(n_kernel))
    mixed_ids = list(range(n_kernel, n_kernel + n_mixed))
    access_ids = list(range(n_kernel + n_mixed, n_kernel + n_mixed + n_access))
    tiers = [(n, NodeTier.KERNEL) for n in kernel_ids] + \
        [(n, NodeTier.MIXED) for n in mixed_ids] + [(n, NodeTier.ACCESS) for n in access_ids]

    pairs = []  # undirected (a, b, bandwidth)
    if n_kernel > 1:
        for i in range(n_kernel):
            a, b = kernel_ids[i], kernel_ids[(i + 1) % n_kernel]
            if n_kernel == 2 and i == 1:
                break  # avoid a duplicate edge in the 2-node "ring"
            pairs.append((a, b, CORE_BW))
    for m in mixed_ids:
        k = rnd.choice(kernel_ids)
        pairs.append((m, k, CORE_BW))
        # a second uplink for redundancy when there is room
        if n_kernel > 1 and rnd.random() < 0.5:
            k2 = rnd.choice([x for x in kernel_ids if x != k])
            pairs.append((m, k2, CORE_BW))
    for a in access_ids:
        m = rnd.choice(mixed_ids)
        pairs.append((a, m, ACCESS_BW))

    return _from_pairs(tiers, [(a, b, bw, DEFAULT_DELAY_NS) for a, b, bw in pairs])


def convert_external_topology(in_path: str, out_path: str):
    """Convert a published topology dump (JSON/YAML with ``nodes`` and
    ``links``/``edges`` lists, flexible key names) to the native format.
    Ports are numbered in link order; a dump that is not a valid
    :class:`Topology` raises :class:`TopologyError` and writes nothing."""
    with open(in_path) as fh:
        try:
            doc = yaml.safe_load(fh)  # YAML is a superset of JSON
        except yaml.YAMLError as e:
            raise TopologyError(f"cannot parse {in_path}: {e}") from e
    if not isinstance(doc, dict):
        raise TopologyError(f"{in_path}: expected a mapping at top level")
    links_key = "links" if "links" in doc else "edges"
    raw_nodes = doc.get("nodes")
    raw_links = doc.get(links_key)
    if raw_nodes is None or raw_links is None:
        raise TopologyError(f"{in_path}: missing nodes/links sections")
    for key, entries in (("nodes", raw_nodes), (links_key, raw_links)):
        if not isinstance(entries, list):
            raise TopologyError(f"{in_path}: {key} must be a list")
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise TopologyError(f"{in_path}: {key}[{i}] must be a mapping, not {entry!r}")

    def pick(d, *names, default=None):
        for n in names:
            if n in d:
                return d[n]
        if default is not None:
            return default
        raise TopologyError(f"entry {d} missing one of {names}")

    ids = [int(pick(n, "id", "node_id", "name")) for n in raw_nodes]
    remap = {old: new for new, old in enumerate(sorted(ids))}
    tiers = []
    for old, n in zip(ids, raw_nodes):
        name = str(pick(n, "tier", "type", "role", default="access")).lower()
        tier = NodeTier(name) if name in {t.value for t in NodeTier} else NodeTier.ACCESS
        tiers.append((remap[old], tier))

    def node(e, *names):
        old = int(pick(e, *names))
        if old not in remap:
            raise TopologyError(f"link {e} references unknown node {old}")
        return remap[old]

    pairs = [(node(e, "src", "source", "from"), node(e, "dst", "target", "to"),
              int(pick(e, "bandwidth_bps", "bandwidth", "bw", default=ACCESS_BW)),
              int(pick(e, "delay_ns", "delay", "latency_ns", default=DEFAULT_DELAY_NS)))
             for e in raw_links]
    save_topology(_from_pairs(tiers, pairs), out_path)

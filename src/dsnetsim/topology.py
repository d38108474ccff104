"""Network graph: nodes with tiers and ports, bidirectional links,
validation, file load/save, a synthetic three-tier generator, and an
importer for externally published topology dumps.

Every link is bidirectional. A :class:`Topology` takes one :class:`Link`
per pair and builds its reverse (ports swapped, same bandwidth and delay),
so a link and its reverse always cost the same, and it checks that the
graph is connected: routing and the planners rely on both.

The on-disk format is YAML with two sections, one ``links`` entry per
bidirectional pair::

    nodes:
      - {id: 0, tier: access, ports: 1}
    links:
      - {src: 0, src_port: 0, dst: 1, dst_port: 0,
         bandwidth_bps: 25000000000, delay_ns: 1000}
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


def _reverse(l: Link) -> Link:
    return Link(l.dst, l.src, l.dst_port, l.src_port, l.bandwidth_bps, l.delay_ns)


class Topology:
    """Validated, immutable-after-construction network graph. ``links``
    holds each given edge followed by its reverse; ``edges`` holds each
    pair once, lower node id first, in the order given."""

    def __init__(self, nodes, edges):
        # nodes: list of (node_id, NodeTier, port_count); edges: one Link per pair
        self.tiers: dict[int, NodeTier] = {}
        self.port_counts: dict[int, int] = {}
        for nid, tier, ports in nodes:
            if nid in self.tiers:
                raise TopologyError(f"duplicate node id {nid}")
            self.tiers[nid] = tier
            self.port_counts[nid] = ports
        self.links: list[Link] = [l for e in edges for l in (e, _reverse(e))]
        self.edges: list[Link] = [l for l in self.links if l.src < l.dst]
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

    def hop_distances(self, src: int) -> dict[int, int]:
        """Hop count from ``src`` to each node it reaches (every node, in
        a validated topology)."""
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for u in frontier:
                for l in self.out_links[u]:
                    if l.dst not in dist:
                        dist[l.dst] = dist[u] + 1
                        nxt.append(l.dst)
            frontier = nxt
        return dist

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
        # every link has its reverse, so node 0 reaching every node means
        # every node reaches every other
        reached = self.hop_distances(0)
        if len(reached) != n:
            missing = sorted(set(self.tiers) - set(reached))[:5]
            raise TopologyError(f"graph is disconnected (e.g. nodes {missing})")


def _from_pairs(tiers, pairs) -> Topology:
    """Topology from (node id, NodeTier) entries and undirected
    (a, b, bandwidth_bps, delay_ns) pairs; each node's ports are numbered in
    pair order."""
    ports = {nid: 0 for nid, _ in tiers}
    edges = []
    for a, b, bw, delay in pairs:
        edges.append(Link(a, b, ports[a], ports[b], bw, delay))
        ports[a] += 1
        ports[b] += 1
    return Topology([(nid, tier, max(ports[nid], 1)) for nid, tier in tiers], edges)


def _entry_lists(path: str, doc: dict, keys) -> list[list[dict]]:
    """The lists of mappings under ``keys``; anything else is an error
    that names the section or the entry."""
    sections = []
    for key in keys:
        entries = doc[key]
        if not isinstance(entries, list):
            raise TopologyError(f"{path}: {key} must be a list, not {entries!r}")
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise TopologyError(f"{path}: {key}[{i}] must be a mapping, not {entry!r}")
        sections.append(entries)
    return sections


_TIERS = tuple(t.value for t in NodeTier)
_NODE_KEYS = ("id", "tier", "ports")
_LINK_KEYS = ("src", "dst", "src_port", "dst_port", "bandwidth_bps", "delay_ns")


def _fields(where: str, entry: dict, keys) -> list:
    """``entry``'s values in the order of ``keys``: integers, but a node's
    tier. A key outside ``keys``, a missing key or a value of another kind
    is an error that names the entry, ``where``, and the key."""
    for key in entry:
        if key not in keys:
            raise TopologyError(f"{where}: {key}: unknown key")
    values = []
    for key in keys:
        if key not in entry:
            raise TopologyError(f"{where}: {key}: missing")
        value = entry[key]
        if key == "tier" and value not in _TIERS:
            raise TopologyError(f"{where}: {key}: expected one of {', '.join(_TIERS)}, "
                                f"got {value!r}")
        if key != "tier" and type(value) is not int:  # not a float, a string or a bool
            raise TopologyError(f"{where}: {key}: expected an integer, got {value!r}")
        values.append(value)
    return values


def load_topology(path: str) -> Topology:
    """Load and validate a topology file. Every key of an entry must be one
    of the format's, and every number an integer; only ``delay_ns`` may be
    left out (:data:`DEFAULT_DELAY_NS`)."""
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except yaml.YAMLError as e:
        raise TopologyError(f"cannot parse {path}: {e}") from e
    if not isinstance(doc, dict) or "nodes" not in doc or "links" not in doc:
        raise TopologyError(f"{path}: expected 'nodes' and 'links' sections")
    raw_nodes, raw_links = _entry_lists(path, doc, ("nodes", "links"))
    nodes = []
    for i, n in enumerate(raw_nodes):
        nid, tier, ports = _fields(f"{path}: nodes[{i}]: bad node entry", n, _NODE_KEYS)
        nodes.append((nid, NodeTier(tier), ports))
    edges = [Link(*_fields(f"{path}: links[{i}]: bad link entry",
                           {"delay_ns": DEFAULT_DELAY_NS, **entry}, _LINK_KEYS))
             for i, entry in enumerate(raw_links)]
    return Topology(nodes, edges)


def save_topology(topo: Topology, path: str):
    """Write the YAML format loaded by :func:`load_topology`."""
    nodes = [
        {"id": nid, "tier": topo.tiers[nid].value, "ports": topo.port_counts[nid]}
        for nid in topo.node_ids()
    ]
    links = [{"src": e.src, "src_port": e.src_port, "dst": e.dst, "dst_port": e.dst_port,
              "bandwidth_bps": e.bandwidth_bps, "delay_ns": e.delay_ns}
             for e in topo.edges]
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
    Its numbers follow :func:`load_topology`'s rule: an id, a bandwidth or
    a delay must be an integer, not a float, a string or a bool. A node's
    ``tier``, ``type`` or ``role``, in any case, must name a
    :class:`NodeTier`; a node with none of those keys is an access node.
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
    if doc.get("nodes") is None or doc.get(links_key) is None:
        raise TopologyError(f"{in_path}: missing nodes/links sections")
    raw_nodes, raw_links = _entry_lists(in_path, doc, ("nodes", links_key))

    def pick(where, d, *names, default=None):
        """The integer under the first of ``names`` that ``d`` has."""
        for name in names:
            if name in d:
                value = d[name]
                if type(value) is not int:  # not a float, a string or a bool
                    raise TopologyError(f"{in_path}: {where}.{name}: expected an integer, "
                                        f"got {value!r}")
                return value
        if default is not None:
            return default
        raise TopologyError(f"{in_path}: {where}: missing one of {names}")

    ids = [pick(f"nodes[{i}]", n, "id", "node_id", "name") for i, n in enumerate(raw_nodes)]
    remap = {old: new for new, old in enumerate(sorted(ids))}
    tiers = []
    for i, (old, n) in enumerate(zip(ids, raw_nodes)):
        key = next((k for k in ("tier", "type", "role") if k in n), None)
        value = "access" if key is None else n[key]
        name = value.lower() if isinstance(value, str) else value
        if name not in _TIERS:
            raise TopologyError(f"{in_path}: nodes[{i}].{key}: expected one of "
                                f"{', '.join(_TIERS)}, got {value!r}")
        tiers.append((remap[old], NodeTier(name)))

    def node(where, e, *names):
        old = pick(where, e, *names)
        if old not in remap:
            raise TopologyError(f"{in_path}: {where}: link {e} references unknown node {old}")
        return remap[old]

    pairs = []
    for i, e in enumerate(raw_links):
        where = f"{links_key}[{i}]"
        pairs.append((node(where, e, "src", "source", "from"), node(where, e, "dst", "target", "to"),
                      pick(where, e, "bandwidth_bps", "bandwidth", "bw", default=ACCESS_BW),
                      pick(where, e, "delay_ns", "delay", "latency_ns", default=DEFAULT_DELAY_NS)))
    save_topology(_from_pairs(tiers, pairs), out_path)

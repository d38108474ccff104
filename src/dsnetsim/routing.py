"""Static shortest-path routes.

Routes are computed before the simulation starts, for the (src, dst) pairs
of the run's flows: one pass per flow destination, run outward from it,
then a walk from each flow's source that fills the next hop of every node
on its path. A packet only visits the nodes on its own flow's path, so
that is every entry the run reads. Without flows the routes hold every
(src, dst) pair. They are one row per node, ``{node: {dst: egress port}}``;
each router holds its own row (``RouterLp.route_row``) and the planners walk
the rows. Ties between equal-cost paths are broken by smallest next-hop node
id (then smallest egress port) so every run, sequential or parallel, uses
identical routes. Under the latency metric, equal-latency paths are first
told apart by hop count.

The pass from a destination stops once every source of that destination
has its final distance: under the hop metric it is breadth-first, and a
node's distance is final when the pass first reaches it; under the latency
metric it is Dijkstra, and a node's distance is final when it is popped.
Nodes the pass never reached keep ``_INF``. The walks stay exact: from a
node at distance h, the neighbours on its shortest paths are closer than
h, so the pass fixed them before it fixed the node, and every other
neighbour's distance is at least its true one, so it never wins the
``min``. Both rules rely on what a :class:`Topology` guarantees: it is
connected, so every source is reached, and every link has a reverse of
equal cost, so a node's distance from the destination is its distance to
it.
"""

from __future__ import annotations

import heapq
from enum import Enum

from .topology import Topology, TopologyError

_INF = 1 << 62


class RouteMetric(Enum):
    HOP_COUNT = "hop"
    LATENCY = "latency"


def _link_cost(link, metric: RouteMetric, num_nodes: int) -> int:
    # latency ties go to the path of fewer hops: a path has fewer than
    # num_nodes hops, so the +1 per hop never outweighs 1 ns of delay, and
    # zero-delay links cannot form an equal-cost loop
    return 1 if metric is RouteMetric.HOP_COUNT else link.delay_ns * num_nodes + 1


def _hops_to(out: list[list[tuple[int, int, int]]], dst: int, sources) -> list[int]:
    # breadth-first from dst, level by level, until the last source is reached
    dist = [_INF] * len(out)
    dist[dst] = 0
    left = set(sources)
    left.discard(dst)
    level = [dst]
    d = 0
    while left:
        d += 1
        nxt = []
        for u in level:
            for _, v, _ in out[u]:
                if dist[v] == _INF:
                    dist[v] = d
                    nxt.append(v)
                    if v in left:
                        left.remove(v)
                        if not left:
                            return dist
        level = nxt
    return dist


def _dists_to(out: list[list[tuple[int, int, int]]], dst: int, sources) -> list[int]:
    # Dijkstra from dst over the out-links, until the last source is popped
    dist = [_INF] * len(out)
    dist[dst] = 0
    left = set(sources)
    left.discard(dst)
    heap = [(0, dst)]
    while left:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        left.discard(u)
        for cost, v, _ in out[u]:
            nd = d + cost
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def compute_routes(topo: Topology, metric: RouteMetric = RouteMetric.HOP_COUNT,
                   flows=None) -> dict[int, dict[int, int]]:
    """Per-node rows ``{node: {dst: egress port}}`` under the chosen metric,
    filled for every node on the path of each flow (anything with ``src``
    and ``dst``); ``None`` means every (src, dst) pair."""
    n = topo.num_nodes
    # (cost, next hop id, port) per out-link; min() is the tie-break
    out = [[(_link_cost(l, metric, n), l.dst, l.src_port) for l in topo.out_links[u]]
           for u in range(n)]
    if flows is None:
        nodes = topo.node_ids()
        sources = {dst: [s for s in nodes if s != dst] for dst in nodes}
    else:
        sources = {}
        for f in flows:
            sources.setdefault(f.dst, []).append(f.src)

    pass_to = _hops_to if metric is RouteMetric.HOP_COUNT else _dists_to
    ports: dict[int, dict[int, int]] = {n: {} for n in topo.tiers}
    for dst, srcs in sources.items():
        dist = pass_to(out, dst, srcs)
        for node in srcs:
            # stop at the first node a walk toward dst already filled
            while node != dst and dst not in ports[node]:
                cost, nxt, port = min((c + dist[d], d, p) for c, d, p in out[node])
                assert cost == dist[node]
                ports[node][dst] = port
                node = nxt
    return ports


def walk_route(topo: Topology, routes: dict[int, dict[int, int]], src: int,
               dst: int) -> list[int]:
    """Follow next-hops from src to dst; raises if a loop is detected."""
    path = [src]
    node = src
    while node != dst:
        port = routes[node].get(dst)
        if port is None:
            raise TopologyError(f"no route from {node} to {dst}")
        node = topo.port_link[(node, port)].dst
        path.append(node)
        if len(path) > topo.num_nodes:
            raise TopologyError(f"routing loop on path {src}->{dst}")
    return path

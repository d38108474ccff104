"""Static shortest-path routes.

Routes are computed before the simulation starts, for the (src, dst) pairs
of the run's flows: one Dijkstra per flow destination, run outward from it
(a :class:`Topology` gives every link a reverse of equal cost and is
connected, so every node reaches the destination), then a walk from
each flow's source that fills the next hop of every node on its path. A
packet only visits the nodes on its own flow's path, so that is every entry
the run reads. Without flows the routes hold every (src, dst) pair. They
are one row per node, ``{node: {dst: egress port}}``; each router holds its
own row (``RouterLp.route_row``) and the planners walk the rows. Ties
between equal-cost paths are broken by smallest next-hop node id (then
smallest egress port) so every run, sequential or parallel, uses identical
routes. Under the latency metric, equal-latency paths are first told apart
by hop count.
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


def _dists_to(out: list[list[tuple[int, int, int]]], dst: int) -> list[int]:
    # Dijkstra from dst over the out-links: a link and its reverse cost the
    # same, so a node's distance from dst is its distance to dst
    dist = [_INF] * len(out)
    dist[dst] = 0
    heap = [(0, dst)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
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

    ports: dict[int, dict[int, int]] = {n: {} for n in topo.tiers}
    for dst, srcs in sources.items():
        dist = _dists_to(out, dst)
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

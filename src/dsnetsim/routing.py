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

Before the passes, the graph is peeled to the part that can carry a route:
every node with one link that is not a flow destination is stripped, again
and again, so chains and trees of such nodes go too (k-core peeling,
Seidman 1983; Batagelj and Zaversnik 2003). A stripped node keeps its one
link toward the rest, its uplink. What a strip removes is a hanging tree
joined to the rest by that one link, and it holds no destination. A route
that entered it would have to leave by the same link, so it would visit
the link's far end twice; every link costs at least 1, so such a route is
never shortest, and no shortest route between the remaining nodes runs
through a stripped node. So the passes run on the remaining graph with the
same distances, and the walks pick the same next hops: a stripped
neighbour is farther from the destination than the node it hangs off, so
it never won the ``min``. Each pass stops at its sources' attach points,
the first remaining node up their uplinks. A stripped source's row entries
are its climb: each node on it routes to every destination through its
uplink, its only way out of the tree. Without flows every node is a
destination, so nothing is stripped.
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


def _peel(topo: Topology, keep) -> dict[int, tuple[int, int]]:
    """Strip every node with one link that is not in ``keep``, repeatedly;
    ``{stripped node: (port, next hop)}`` of each one's uplink."""
    out = topo.out_links
    degree = [len(out[u]) for u in range(topo.num_nodes)]
    up: dict[int, tuple[int, int]] = {}
    stack = [u for u, d in enumerate(degree) if d == 1 and u not in keep]
    while stack:
        u = stack.pop()
        # a node whose one neighbour was stripped first is the graph's last
        # node, which stays; that happens only when ``keep`` is empty, since
        # the unstripped nodes stay connected
        if degree[u] != 1:
            continue
        for link in out[u]:  # its one link to a node not yet stripped
            if link.dst not in up:
                break
        v = link.dst
        up[u] = (link.src_port, v)
        degree[v] -= 1
        if degree[v] == 1 and v not in keep:
            stack.append(v)
    return up


def compute_routes(topo: Topology, metric: RouteMetric = RouteMetric.HOP_COUNT,
                   flows=None) -> dict[int, dict[int, int]]:
    """Per-node rows ``{node: {dst: egress port}}`` under the chosen metric,
    filled for every node on the path of each flow (anything with ``src``
    and ``dst``); ``None`` means every (src, dst) pair."""
    n = topo.num_nodes
    if flows is None:
        nodes = topo.node_ids()
        sources = {dst: [s for s in nodes if s != dst] for dst in nodes}
    else:
        sources = {}
        for f in flows:
            sources.setdefault(f.dst, []).append(f.src)
    up = _peel(topo, sources)
    # (cost, next hop id, port) per out-link of the peeled graph; min() is
    # the tie-break
    out = [[] if u in up else [(_link_cost(l, metric, n), l.dst, l.src_port)
                               for l in topo.out_links[u] if l.dst not in up]
           for u in range(n)]

    def attach(node: int) -> int:
        while node in up:
            node = up[node][1]
        return node

    pass_to = _hops_to if metric is RouteMetric.HOP_COUNT else _dists_to
    ports: dict[int, dict[int, int]] = {n: {} for n in topo.tiers}
    for dst, srcs in sources.items():
        dist = pass_to(out, dst, {attach(s) for s in srcs})
        for node in srcs:
            # stop at the first node a walk toward dst already filled
            while node != dst and dst not in ports[node]:
                if node in up:
                    port, nxt = up[node]
                else:
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

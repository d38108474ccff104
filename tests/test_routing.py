"""Route rows against hand examples, an independent all-pairs oracle, and
the full rows for rows built along the flows' paths; the peel that strips
hanging trees before the passes; and the flow rows at 1,000 nodes, pinned."""

import dataclasses
import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dsnetsim import routing
from dsnetsim.routing import _INF, RouteMetric, compute_routes, walk_route
from dsnetsim.topology import NodeTier, Topology, TopologyError, generate_synthetic_topology
from dsnetsim.traffic import Flow, TrafficSpec, resolve_flows
from conftest import bidirectional, line_topology, square_topology


def test_line_routes_through_middle():
    topo = line_topology(3)
    table = compute_routes(topo)
    # A(0) -> C(2) egresses toward B(1)
    port = table[0][2]
    assert topo.port_link[(0, port)].dst == 1
    assert walk_route(topo, table, 0, 2) == [0, 1, 2]


def test_square_tie_breaks_to_smallest_next_hop():
    topo = square_topology()
    table = compute_routes(topo)
    # 0 -> 2 has two equal-cost paths via 1 and via 3; pick min(1, 3) = 1
    port = table[0][2]
    assert topo.port_link[(0, port)].dst == 1


def test_latency_ties_go_to_fewer_hops_over_zero_delay_links():
    # 1 and 2 are both 2,000 ns from 0 and joined by a 0 ns link; by latency
    # and next-hop id alone each would route through the other
    nodes = [(0, NodeTier.ACCESS, 2), (1, NodeTier.ACCESS, 2), (2, NodeTier.ACCESS, 2),
             (3, NodeTier.ACCESS, 2), (4, NodeTier.ACCESS, 2)]
    links = [bidirectional(1, 2, 0, 0, delay=0), bidirectional(1, 3, 1, 0),
             bidirectional(3, 0, 1, 0), bidirectional(2, 4, 1, 0), bidirectional(4, 0, 1, 1)]
    topo = Topology(nodes, links)
    table = compute_routes(topo, RouteMetric.LATENCY)
    assert walk_route(topo, table, 1, 0) == [1, 3, 0]
    assert walk_route(topo, table, 2, 0) == [2, 4, 0]


def _floyd_warshall(topo, metric):
    n = topo.num_nodes
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for l in topo.links:
        cost = 1 if metric is RouteMetric.HOP_COUNT else l.delay_ns
        dist[l.src, l.dst] = min(dist[l.src, l.dst], cost)
    for m in range(n):
        dist = np.minimum(dist, dist[:, m:m + 1] + dist[m:m + 1, :])
    return dist


@pytest.mark.parametrize("metric", [RouteMetric.HOP_COUNT, RouteMetric.LATENCY])
def test_paths_match_all_pairs_oracle(synthetic50, metric):
    topo = synthetic50
    table = compute_routes(topo, metric)
    dist = _floyd_warshall(topo, metric)
    for src in topo.node_ids():
        for dst in topo.node_ids():
            if src == dst:
                continue
            path = walk_route(topo, table, src, dst)
            cost = 0
            for a, b in zip(path, path[1:]):
                port = table[a][dst]
                link = topo.port_link[(a, port)]
                assert link.dst == b
                cost += 1 if metric is RouteMetric.HOP_COUNT else link.delay_ns
            assert cost == dist[src, dst]


def test_routes_are_deterministic(synthetic50):
    assert compute_routes(synthetic50) == compute_routes(synthetic50)


def test_walk_route_rejects_missing_route():
    topo = line_topology(3)
    table = compute_routes(topo)
    table[0].pop(2)
    with pytest.raises(TopologyError, match="no route"):
        walk_route(topo, table, 0, 2)


def _held(topo, table):
    return {(n, dst): port for n in topo.node_ids() for dst, port in table[n].items()}


def _check_flow_table(topo, metric, flows):
    """The flows' table agrees with the full one on every pair it holds,
    and holds exactly the pairs on the flows' paths."""
    full = _held(topo, compute_routes(topo, metric))
    table = compute_routes(topo, metric, flows)
    held = _held(topo, table)
    assert all(full[pair] == port for pair, port in held.items())
    on_paths = {(node, f.dst) for f in flows
                for node in walk_route(topo, table, f.src, f.dst)[:-1]}
    assert set(held) == on_paths


def _explicit_flows():
    # several flows per destination, sources inside other flows' paths, and
    # flows out of the core
    return [Flow(10, 0, 1), Flow(11, 0, 1), Flow(5, 0, 1), Flow(0, 45, 1),
            Flow(49, 3, 1), Flow(3, 49, 1), Flow(20, 30, 1), Flow(30, 20, 1)]


@pytest.mark.parametrize("metric", [RouteMetric.HOP_COUNT, RouteMetric.LATENCY])
@pytest.mark.parametrize("flow_set", ["default", "explicit"])
def test_flow_table_is_the_full_table_on_the_flows_paths(synthetic50, metric, flow_set):
    flows = (resolve_flows(TrafficSpec(seed=7), synthetic50) if flow_set == "default"
             else _explicit_flows())
    _check_flow_table(synthetic50, metric, flows)


def test_a_pass_stops_once_its_sources_are_reached(synthetic50, monkeypatch):
    """One flow from a neighbour of its destination: the pass leaves the
    far nodes unreached, and the flow's rows are still the full table's."""
    passes = []
    linked = []  # the nodes each pass's out-lists link to

    def recorded(real):
        def run(out, dst, sources):
            dist = real(out, dst, sources)
            passes.append(dist)
            linked.append({v for links in out for _, v, _ in links})
            return dist
        return run

    monkeypatch.setattr(routing, "_hops_to", recorded(routing._hops_to))
    monkeypatch.setattr(routing, "_dists_to", recorded(routing._dists_to))
    dst = 49
    flows = [Flow(synthetic50.neighbors(dst)[0], dst, 1)]
    for metric in RouteMetric:
        passes.clear()
        linked.clear()
        _check_flow_table(synthetic50, metric, flows)
        # the full table's passes, one per node, then the flow's
        *full, flow = passes
        assert len(full) == synthetic50.num_nodes
        assert not any(_INF in dist for dist in full)
        assert flow.count(_INF) > synthetic50.num_nodes // 2, metric
        # with every node a destination nothing is peeled; the flow's pass
        # runs without the access leaves, its destination's excepted
        assert linked[0] == set(synthetic50.node_ids())
        access = set(synthetic50.nodes_in_tier(NodeTier.ACCESS))
        assert dst in access and linked[-1] & access == {dst}


@st.composite
def _topologies_with_flows(draw):
    """Connected graphs of up to about 40 nodes: a small core with cycles
    (so equal-cost ties) and hanging trees off it, chains and branching
    ones (so the peel strips them, and a pass that stops at its flows'
    sources leaves much of the graph unreached), a few parallel links, and
    a few flows, some into a hanging tree (whose destination the peel must
    keep)."""
    n = draw(st.integers(2, 8))
    pairs = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}  # spanning tree
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=8))
    pairs |= {(min(a, b), max(a, b)) for a, b in extra if a != b}
    hanging = []
    for length, branching in draw(st.lists(st.tuples(st.integers(1, 8), st.booleans()),
                                           max_size=4)):
        tree = [draw(st.integers(0, n - 1))]
        for node in range(n, n + length):
            # a chain hangs each node off the last; a branching tree off any
            # node of the tree so far, its root included
            parent = draw(st.sampled_from(tree)) if branching else tree[-1]
            pairs.add((parent, node))
            tree.append(node)
        hanging += tree[1:]
        n += length
    ports = [0] * n
    links = []
    # now and then a parallel link, so a node can have two links to one
    # neighbour and not be a leaf
    for a, b in sorted(pairs) + sorted(draw(st.sets(st.sampled_from(sorted(pairs)),
                                                    max_size=2))):
        delay = draw(st.sampled_from([0, 1_000, 2_000]))
        links.append(bidirectional(a, b, ports[a], ports[b], delay=delay))
        ports[a] += 1
        ports[b] += 1
    topo = Topology([(i, NodeTier.ACCESS, ports[i]) for i in range(n)], links)
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    flows = [Flow(s, d, 1) for s, d in draw(st.lists(ends, min_size=1, max_size=5))]
    if hanging:
        dst = draw(st.sampled_from(hanging))
        flows.append(Flow(draw(st.integers(0, n - 1).filter(lambda s: s != dst)), dst, 1))
    return topo, flows


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_topologies_with_flows(), st.sampled_from(list(RouteMetric)))
def test_flow_table_property_on_random_topologies(case, metric):
    topo, flows = case
    _check_flow_table(topo, metric, flows)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(_topologies_with_flows())
def test_the_peel_strips_exactly_the_hanging_trees_without_a_destination(case):
    topo, flows = case
    dsts = {f.dst for f in flows}
    up = routing._peel(topo, dsts)
    assert not dsts & set(up)
    for node, (port, nxt) in up.items():
        assert topo.port_link[(node, port)].dst == nxt
        # the uplink is a stripped node's one link out of its tree: every
        # other link leads to a stripped node whose uplink leads back
        for l in topo.out_links[node]:
            assert l.src_port == port or up.get(l.dst, (None, None))[1] == node
        seen = {node}
        while node in up:
            node = up[node][1]
            assert node not in seen
            seen.add(node)
    # what is left is a 2-core but for the destinations: nothing more peels
    for node in topo.node_ids():
        if node not in up and node not in dsts:
            assert sum(v not in up for v in topo.neighbors(node)) >= 2


# sha256 of the flow route rows, one "node dst port" line per entry in node
# then dst order, at 1,000 synthetic nodes (800 / 160 / 40, seed 1) with the
# default traffic, on each metric; "latency-drawn" redraws each link's delay
# (seed 1), since the generator's links all have the same delay. Taken
# before the passes ran on the peeled graph.
ROWS_1000 = {
    "hop": "95b14f3f2a077ed69147db4a0b0edd50cb7f1963e15a1744f4bbf156c1f58684",
    "latency": "95b14f3f2a077ed69147db4a0b0edd50cb7f1963e15a1744f4bbf156c1f58684",
    "latency-drawn": "70cc9144c332bdee61702e350a54fd46e8fba1ca849235dbb9d45391fc4d3832",
}


@pytest.mark.parametrize("case", sorted(ROWS_1000))
def test_flow_rows_at_1000_nodes_are_pinned(case):
    topo = generate_synthetic_topology(800, 160, 40, seed=1)
    flows = resolve_flows(TrafficSpec(seed=0), topo)
    if case == "latency-drawn":
        rnd = random.Random(1)
        edges = [dataclasses.replace(e, delay_ns=rnd.choice([500, 1_000, 2_000, 4_000]))
                 for e in topo.edges]
        topo = Topology([(n, topo.tiers[n], topo.port_counts[n]) for n in topo.node_ids()],
                        edges)
    metric = RouteMetric.HOP_COUNT if case == "hop" else RouteMetric.LATENCY
    rows = compute_routes(topo, metric, flows)
    text = "".join(f"{node} {dst} {port}\n" for node in sorted(rows)
                   for dst, port in sorted(rows[node].items()))
    assert hashlib.sha256(text.encode()).hexdigest() == ROWS_1000[case]

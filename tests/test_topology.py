"""Topology construction, validation, file round-trip, generator, importer."""

import json
from collections import Counter

import pytest
import yaml

from dsnetsim.topology import (
    DEFAULT_DELAY_NS, Link, NodeTier, Topology, TopologyError, convert_external_topology,
    generate_synthetic_topology, load_topology, save_topology,
)
from conftest import bidirectional, line_topology


def test_three_node_line():
    topo = line_topology(3)
    assert topo.num_nodes == 3
    assert topo.num_links == 4  # 2 bidirectional pairs
    assert topo.neighbors(1) == [0, 2]


def test_duplicate_node_id_rejected():
    nodes = [(0, NodeTier.ACCESS, 1), (0, NodeTier.ACCESS, 1)]
    with pytest.raises(TopologyError, match="duplicate"):
        Topology(nodes, [])


def test_dangling_link_rejected():
    nodes = [(0, NodeTier.ACCESS, 1), (1, NodeTier.ACCESS, 1)]
    links = [bidirectional(0, 1, 0, 0), Link(1, 9, 0, 0, 1, 1)]
    with pytest.raises(TopologyError, match="unknown node"):
        Topology(nodes, links)


def test_self_loop_rejected():
    nodes = [(0, NodeTier.ACCESS, 2), (1, NodeTier.ACCESS, 1)]
    links = [bidirectional(0, 1, 0, 0), Link(0, 0, 1, 1, 1, 1)]
    with pytest.raises(TopologyError, match="self-loop"):
        Topology(nodes, links)


def test_port_reuse_rejected():
    nodes = [(i, NodeTier.ACCESS, 1) for i in range(3)]
    links = [bidirectional(0, 1, 0, 0), bidirectional(0, 2, 0, 0)]
    with pytest.raises(TopologyError, match="port"):
        Topology(nodes, links)


def test_disconnected_graph_rejected():
    nodes = [(i, NodeTier.ACCESS, 1) for i in range(4)]
    links = [bidirectional(0, 1, 0, 0), bidirectional(2, 3, 0, 0)]
    with pytest.raises(TopologyError, match="disconnected"):
        Topology(nodes, links)


def test_non_dense_ids_rejected():
    nodes = [(0, NodeTier.ACCESS, 1), (2, NodeTier.ACCESS, 1)]
    with pytest.raises(TopologyError, match="dense"):
        Topology(nodes, [bidirectional(0, 2, 0, 0)])


def test_save_load_round_trip(tmp_path, synthetic50):
    path = tmp_path / "topo.yaml"
    save_topology(synthetic50, str(path))
    loaded = load_topology(str(path))
    assert loaded.num_nodes == synthetic50.num_nodes
    assert sorted(
        (l.src, l.dst, l.src_port, l.dst_port, l.bandwidth_bps, l.delay_ns)
        for l in loaded.links
    ) == sorted(
        (l.src, l.dst, l.src_port, l.dst_port, l.bandwidth_bps, l.delay_ns)
        for l in synthetic50.links
    )
    assert loaded.tiers == synthetic50.tiers


def _converted_dump(tmp_path):
    """A topology converted from an external dump, one of whose edges is
    given from its higher id."""
    doc = {"nodes": [{"id": i, "type": t} for i, t in
                     enumerate(("kernel", "mixed", "access", "access"))],
           "links": [{"src": 1, "dst": 0, "bw": 10**11, "delay": 300},
                     {"src": 2, "dst": 1}, {"src": 1, "dst": 3, "delay": 0}]}
    src = tmp_path / "dump.json"
    src.write_text(json.dumps(doc))
    convert_external_topology(str(src), str(tmp_path / "converted.yaml"))
    return load_topology(str(tmp_path / "converted.yaml"))


@pytest.mark.parametrize("source", ["synthetic50", "converted"])
def test_every_edge_has_its_reverse_and_files_hold_edges(tmp_path, synthetic50, source):
    topo = synthetic50 if source == "synthetic50" else _converted_dump(tmp_path)
    reverses = [Link(e.dst, e.src, e.dst_port, e.src_port, e.bandwidth_bps, e.delay_ns)
                for e in topo.edges]
    assert len(topo.links) == 2 * len(topo.edges)
    assert Counter(topo.links) == Counter(topo.edges + reverses)
    assert all(e.src < e.dst for e in topo.edges)
    path = tmp_path / "again.yaml"
    save_topology(topo, str(path))
    assert load_topology(str(path)).edges == topo.edges


def test_load_rejects_dangling_reference(tmp_path):
    doc = {
        "nodes": [{"id": 0, "tier": "access", "ports": 1}],
        "links": [{"src": 0, "src_port": 0, "dst": 5, "dst_port": 0,
                   "bandwidth_bps": 1000}],
    }
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(doc))
    with pytest.raises(TopologyError):
        load_topology(str(path))


def test_load_takes_the_default_delay_when_delay_ns_is_left_out(tmp_path):
    doc = {
        "nodes": [{"id": 0, "tier": "access", "ports": 1},
                  {"id": 1, "tier": "kernel", "ports": 1}],
        "links": [{"src": 0, "src_port": 0, "dst": 1, "dst_port": 0,
                   "bandwidth_bps": 1000}],
    }
    path = tmp_path / "topo.yaml"
    path.write_text(yaml.safe_dump(doc))
    assert load_topology(str(path)).edges == [Link(0, 1, 0, 0, 1000, DEFAULT_DELAY_NS)]


def test_synthetic_is_deterministic():
    a = generate_synthetic_topology(40, 8, 2, seed=1)
    b = generate_synthetic_topology(40, 8, 2, seed=1)
    assert a.num_nodes == b.num_nodes == 50
    assert a.links == b.links
    assert a.tiers == b.tiers


def test_synthetic_minimal_is_a_chain():
    topo = generate_synthetic_topology(1, 1, 1, seed=0)
    assert topo.num_nodes == 3
    assert topo.num_links == 4
    # kernel=0, mixed=1, access=2: a 2-1-0 chain
    assert topo.neighbors(1) == [0, 2] or set(topo.neighbors(1)) == {0, 2}
    assert topo.neighbors(0) == [1]
    assert topo.neighbors(2) == [1]


def test_synthetic_seed_changes_edges():
    a = generate_synthetic_topology(40, 8, 2, seed=1)
    b = generate_synthetic_topology(40, 8, 2, seed=2)
    edges = lambda t: sorted((l.src, l.dst) for l in t.links)
    assert edges(a) != edges(b)


def test_tier_queries(synthetic50):
    assert len(synthetic50.nodes_in_tier(NodeTier.KERNEL)) == 2
    assert len(synthetic50.nodes_in_tier(NodeTier.MIXED)) == 8
    assert len(synthetic50.nodes_in_tier(NodeTier.ACCESS)) == 40


def test_convert_external_json(tmp_path):
    doc = {
        "nodes": [
            {"node_id": 10, "type": "Kernel"},
            {"node_id": 11, "type": "Mixed"},
            {"node_id": 12},
        ],
        "edges": [
            {"source": 10, "target": 11, "bw": 10**9, "latency_ns": 500},
            {"source": 11, "target": 12},
        ],
    }
    src = tmp_path / "ext.json"
    src.write_text(json.dumps(doc))
    out = tmp_path / "native.yaml"
    convert_external_topology(str(src), str(out))
    topo = load_topology(str(out))
    assert topo.num_nodes == 3
    assert topo.tiers[0] is NodeTier.KERNEL
    assert topo.tiers[1] is NodeTier.MIXED
    assert topo.tiers[2] is NodeTier.ACCESS  # default tier
    bw = {(l.src, l.dst): l.bandwidth_bps for l in topo.links}
    assert bw[(0, 1)] == 10**9
    delay = {(l.src, l.dst): l.delay_ns for l in topo.links}
    assert delay[(0, 1)] == 500

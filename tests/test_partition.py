"""Partition planning: weight derivation, balance, cut, plan files."""

import hashlib
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from dsnetsim import partition
from dsnetsim.kernel import run_sequential
from dsnetsim.model import build_model
from dsnetsim.partition import (
    PartitionError, PartitionPlan, WeightModel, compute_imbalance, cut_weight,
    derive_edge_throughput_weights, derive_vertex_event_weights,
    derive_vertex_throughput_weights, export_plan, import_plan,
    partition_balanced, partition_vertex_plus_edge,
)
from dsnetsim.routing import compute_routes
from dsnetsim.scenario import build_plan, build_topology, load_scenario
from dsnetsim.topology import NodeTier, Topology, generate_synthetic_topology
from dsnetsim.traffic import Flow, TrafficSpec, resolve_flows
from conftest import bidirectional, line_topology


# --------------------------------------------------------------------------
# weight derivation

def test_vertex_event_weights_are_committed_event_counts():
    topo = line_topology(3)
    spec = TrafficSpec(pattern="explicit", flows=(Flow(0, 2, 100_000),))
    model = build_model(topo, compute_routes(topo), spec, resolve_flows(spec, topo), 500_000,
                        seed=1)
    rep = run_sequential(model)
    w = derive_vertex_event_weights(rep)
    assert sum(w.values()) == rep.committed_events
    assert w[0] > 0 and w[1] > 0 and w[2] > 0
    # the pure sink only sees one ARRIVE per delivery
    assert w[2] == rep.delivered


def test_vertex_event_weights_require_a_profiling_run():
    class Empty:
        per_lp_events = {}
    with pytest.raises(PartitionError, match="profiling") as err:
        derive_vertex_event_weights(Empty())
    assert "run_sequential" in str(err.value) and "cmd_run" not in str(err.value)


def test_vertex_throughput_weights_follow_routes():
    topo = line_topology(3)
    routes = compute_routes(topo)
    w = derive_vertex_throughput_weights([Flow(0, 2, 100)], routes, topo)
    assert w == {0: 100, 1: 100, 2: 100}
    assert derive_vertex_throughput_weights([], routes, topo) == {0: 0, 1: 0, 2: 0}
    shared = derive_vertex_throughput_weights(
        [Flow(0, 2, 100), Flow(1, 2, 50)], routes, topo)
    assert shared[1] == 150 and shared[2] == 150


def test_edge_throughput_weights_sum_flow_rates():
    topo = line_topology(3)
    routes = compute_routes(topo)
    ew = derive_edge_throughput_weights(
        [Flow(0, 2, 100), Flow(1, 2, 50)], routes, topo)
    assert ew == {(0, 1): 100, (1, 2): 150}


# --------------------------------------------------------------------------
# balanced planner

def test_uniform_line_splits_evenly():
    topo = line_topology(10)
    plan = partition_balanced(topo, 2)
    sizes = sorted(len(p) for p in plan.partitions())
    assert sizes == [5, 5]
    assert plan.imbalance == 1.0


def test_k_bounds_validated():
    topo = line_topology(3)
    with pytest.raises(PartitionError):
        partition_balanced(topo, 0)
    with pytest.raises(PartitionError):
        partition_balanced(topo, 4)


def test_balanced_respects_vertex_weights():
    topo = line_topology(6)
    weights = {0: 100, 1: 1, 2: 1, 3: 1, 4: 1, 5: 96}
    plan = partition_balanced(topo, 2, weights)
    heavy_0 = plan.assignment[0]
    heavy_5 = plan.assignment[5]
    assert heavy_0 != heavy_5  # the two heavy ends must not share a partition
    assert plan.imbalance <= 1.10
    assert not plan.degraded


def test_synthetic50_imbalance_within_tolerance():
    topo = generate_synthetic_topology(40, 8, 2, seed=1)
    for k in (2, 4):
        plan = partition_balanced(topo, k)
        assert plan.imbalance <= 1.10, f"k={k}: {plan.imbalance}"
        assert not plan.degraded


def test_degradation_is_reported_not_hidden():
    # one node carries nearly all weight: k=3 cannot balance
    topo = line_topology(6)
    weights = {0: 1000, 1: 1, 2: 1, 3: 1, 4: 1, 5: 1}
    plan = partition_balanced(topo, 3, weights)
    assert plan.imbalance > 1.10
    assert plan.degraded


# sha256 of each plan's partition indices, one line per node in id order,
# and its cut, for the 1,000-node synthetic scenario (800 / 160 / 40) with
# the default traffic; fixed when the planner's frontier was a sorted list
PLANS_1000 = {
    ("no-weights", 2): ("8baa88706f60e867abd227d55260d299865069208b7791210f23be880bb93c92", 45),
    ("no-weights", 4): ("b4943bc264791f546d9c39db41b6e7371055d3515be30d63b30041ea00d6e376", 96),
    ("no-weights", 8): ("f91b5c622aace93315a032ed07b0b9bbdc54f63e7fe2a98569927ee459907d51", 104),
    ("vertex-throughput", 2):
        ("acbd0f0d9cb66f5d51eaff3f4febcbd4a2d193581accc1a5a37e2517fdefdcad", 47),
    ("vertex-throughput", 4):
        ("2742cdd2430fdad67886747c6c7884da4d1be05a97683451c8e5a05858cf52e5", 71),
    ("vertex-throughput", 8):
        ("34f51315216eb38062b64bb48478208664a6cf955bbe742e0d5624d77d3e3157", 114),
    ("vertex+edge", 2): ("fc83c17b8f2d72620c81b94846a274583cdc9d44ffd1857e3b48d9cec6ae9efe", 45),
    ("vertex+edge", 4): ("ffe829a16d8c8673a03b2482fe947dd7f210b22ab02b2ede8249e3d0c4d12e81", 71),
    ("vertex+edge", 8): ("9d434c6a991b9d5c96dcb04fce131cac5a8f4843e8b454cce6c85b66359f49f0", 117),
}


@pytest.fixture(scope="module")
def scenario1000():
    cfg = load_scenario(None, {
        "topology": {"synthetic": {"n_access": 800, "n_mixed": 160, "n_kernel": 40, "seed": 1}},
        "run": {"mode": "optimistic"}})
    return cfg, build_topology(cfg)


@pytest.mark.parametrize("strategy, k", sorted(PLANS_1000))
def test_plans_at_1000_nodes_are_pinned(scenario1000, strategy, k):
    cfg, topo = scenario1000
    cfg["run"]["partitions"].update(k=k, strategy=strategy)
    plan = build_plan(cfg, topo)
    text = "".join(f"{plan.assignment[n]}\n" for n in topo.node_ids())
    assert (hashlib.sha256(text.encode()).hexdigest(), plan.cut_weight) == \
        PLANS_1000[(strategy, k)]


# --------------------------------------------------------------------------
# the balanced planner's steps against their plain forms: every seed's
# distance to every node, and a rebalance that sorts before every pass


def _seeds_oracle(topo, k):
    seeds = [0]
    dists = [topo.hop_distances(0)]
    while len(seeds) < k:
        best = None
        for n in topo.node_ids():
            if n in seeds:
                continue
            d = min(dd[n] for dd in dists)
            if best is None or (d, -n) > (best[0], -best[1]):
                best = (d, n)
        seeds.append(best[1])
        dists.append(topo.hop_distances(best[1]))
    return seeds


def _rebalance_oracle(topo, assignment, k, weights, eps):
    w_of = lambda n: 1 if not weights else weights.get(n, 0)
    acc = [0] * k
    sizes = [0] * k
    for n, pid in assignment.items():
        acc[pid] += w_of(n)
        sizes[pid] += 1
    for _ in range(32):
        improved = False
        heaviest = max(range(k), key=lambda p: (acc[p], p))
        lightest = min(range(k), key=lambda p: (acc[p], p))
        members = sorted(
            (n for n, pid in assignment.items() if pid == heaviest),
            key=lambda n: (sum(1 for v in topo.neighbors(n)
                               if assignment[v] == heaviest), n))
        for n in members:
            if assignment[n] != heaviest or sizes[heaviest] <= 1:
                continue
            w = w_of(n)
            candidates = sorted({assignment[v] for v in topo.neighbors(n)} - {heaviest})
            if lightest not in candidates and lightest != heaviest:
                candidates.append(lightest)
            for pid in candidates:
                if max(acc[heaviest] - w, acc[pid] + w) < acc[heaviest]:
                    assignment[n] = pid
                    acc[heaviest] -= w
                    acc[pid] += w
                    sizes[heaviest] -= 1
                    sizes[pid] += 1
                    improved = True
                    heaviest = max(range(k), key=lambda p: (acc[p], p))
                    lightest = min(range(k), key=lambda p: (acc[p], p))
                    break
        if not improved or partition._imbalance(acc) <= 1.0 + eps:
            break


@st.composite
def _planner_inputs(draw):
    """A small synthetic topology, k, eps, weights (None, or drawn from a
    few small values, 0 included, so that a member's weight often equals
    the gap between the heaviest and the lightest partition) and a drawn
    assignment."""
    topo = generate_synthetic_topology(draw(st.integers(1, 30)), draw(st.integers(1, 6)),
                                       draw(st.integers(1, 4)), draw(st.integers(0, 9)))
    k = draw(st.integers(1, min(8, topo.num_nodes)))
    weights = draw(st.none() | st.fixed_dictionaries(
        {n: st.sampled_from([0, 1, 2, 3, 5]) for n in topo.node_ids()}))
    assignment = {n: draw(st.integers(0, k - 1)) for n in topo.node_ids()}
    return topo, k, draw(st.sampled_from([0.0, 0.1, 0.3])), weights, assignment


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_planner_inputs())
def test_seeds_and_rebalance_match_their_plain_forms(case):
    topo, k, eps, weights, assignment = case
    assert partition._farthest_point_seeds(topo, k) == _seeds_oracle(topo, k)
    fast, plain = dict(assignment), dict(assignment)
    partition._rebalance(topo, fast, k, weights, eps)
    _rebalance_oracle(topo, plain, k, weights, eps)
    assert fast == plain
    # and so the whole planner
    planned = partition._balanced_assignment(topo, k, weights, eps)
    with mock.patch.object(partition, "_farthest_point_seeds", _seeds_oracle), \
            mock.patch.object(partition, "_rebalance", _rebalance_oracle):
        assert partition._balanced_assignment(topo, k, weights, eps) == planned


@pytest.mark.parametrize("weights", [
    {0: 3, 1: 0, 2: 1, 3: 1},  # heaviest 3 + 0 against 2: gap 1, no 0 < w < 1
    {0: 2, 1: 1, 2: 1, 3: 1},  # heaviest 2 + 1 against 2: a member's w equals the gap
    {0: 4, 1: 1, 2: 1, 3: 1},  # gap 3 and w = 1 fits: a pass moves node 1
])
def test_rebalance_stops_only_when_no_move_helps(weights):
    topo = line_topology(4)
    fast, plain = {0: 0, 1: 0, 2: 1, 3: 1}, {0: 0, 1: 0, 2: 1, 3: 1}
    partition._rebalance(topo, fast, 2, weights, 0.0)
    _rebalance_oracle(topo, plain, 2, weights, 0.0)
    assert fast == plain
    assert (fast == {0: 0, 1: 0, 2: 1, 3: 1}) == (weights[0] != 4)


# --------------------------------------------------------------------------
# min-edge-cut planner

def _two_cliques():
    # nodes 0-2 fully meshed, 3-5 fully meshed, one bridge 2-3
    nodes = [(i, NodeTier.ACCESS, 3) for i in range(6)]
    links = []
    links.append(bidirectional(0, 1, 0, 0))
    links.append(bidirectional(0, 2, 1, 0))
    links.append(bidirectional(1, 2, 1, 1))
    links.append(bidirectional(3, 4, 0, 0))
    links.append(bidirectional(3, 5, 1, 0))
    links.append(bidirectional(4, 5, 1, 1))
    links.append(bidirectional(2, 3, 2, 2))
    return Topology(nodes, links)


def test_min_cut_finds_the_bridge():
    topo = _two_cliques()
    ew = {(0, 1): 10, (0, 2): 10, (1, 2): 10,
          (3, 4): 10, (3, 5): 10, (4, 5): 10, (2, 3): 1}
    plan = partition_vertex_plus_edge(topo, 2, None, ew)
    assert plan.cut_weight == 1
    assert cut_weight(topo, plan.assignment, ew) == 1
    assert plan.assignment[0] == plan.assignment[1] == plan.assignment[2]
    assert plan.assignment[3] == plan.assignment[4] == plan.assignment[5]


@pytest.mark.parametrize("planner", [
    lambda topo, ew: partition_balanced(topo, 1),
    lambda topo, ew: partition_vertex_plus_edge(topo, 1, {n: n for n in range(6)}, ew),
], ids=["balanced", "vertex-plus-edge"])
def test_k1_plan_is_trivial(planner):
    topo = _two_cliques()
    plan = planner(topo, {(0, 1): 10, (2, 3): 1, (4, 5): 10})
    assert plan.k == 1
    assert plan.assignment == {n: 0 for n in range(6)}
    assert plan.imbalance == 1.0
    assert plan.cut_weight == 0
    assert not plan.degraded


@pytest.mark.parametrize("vertex_weighted", [True, False],
                         ids=["throughput", "unweighted"])
def test_vertex_plus_edge_keeps_balance_while_cutting(vertex_weighted):
    topo = generate_synthetic_topology(30, 6, 2, seed=3)
    routes = compute_routes(topo)
    flows = [Flow(s, (s * 7) % 8, 100) for s in range(8, 38)]
    vw = derive_vertex_throughput_weights(flows, routes, topo) \
        if vertex_weighted else None
    ew = derive_edge_throughput_weights(flows, routes, topo)
    plan = partition_vertex_plus_edge(topo, 4, vw, ew)
    assert plan.strategy is WeightModel.VERTEX_PLUS_EDGE
    assert plan.degraded or plan.imbalance <= 1.10
    balanced_only = partition_balanced(topo, 4, vw)
    assert cut_weight(topo, plan.assignment, ew) <= \
        cut_weight(topo, balanced_only.assignment, ew)


def test_vertex_plus_edge_never_empties_a_partition():
    topo = generate_synthetic_topology(3, 3, 1, seed=2)
    routes = compute_routes(topo)
    flows = resolve_flows(TrafficSpec(seed=0), topo)
    vw = derive_vertex_throughput_weights(flows, routes, topo)
    ew = derive_edge_throughput_weights(flows, routes, topo)
    plan = partition_vertex_plus_edge(topo, 6, vw, ew)
    assert all(plan.partitions()), plan.partitions()


def _three_way_fork():
    # 0-1-2-3-4 with a branch 2-5-6: the balanced start puts {0, 1, 2},
    # {3, 4} and {5, 6} in partitions 0, 1 and 2
    nodes = [(0, NodeTier.ACCESS, 1), (1, NodeTier.ACCESS, 2),
             (2, NodeTier.ACCESS, 3), (3, NodeTier.ACCESS, 2),
             (4, NodeTier.ACCESS, 1), (5, NodeTier.ACCESS, 2),
             (6, NodeTier.ACCESS, 1)]
    links = []
    links.append(bidirectional(0, 1, 0, 0))
    links.append(bidirectional(1, 2, 1, 0))
    links.append(bidirectional(2, 3, 1, 0))
    links.append(bidirectional(3, 4, 1, 0))
    links.append(bidirectional(2, 5, 2, 0))
    links.append(bidirectional(5, 6, 1, 0))
    return Topology(nodes, links)


def test_refinement_takes_the_largest_gain():
    topo = _three_way_fork()
    # node 2 gains 5 - 1 = 4 by joining partition 1 and 10 - 1 = 9 by
    # joining partition 2
    ew = {(0, 1): 20, (1, 2): 1, (2, 3): 5, (3, 4): 20, (2, 5): 10, (5, 6): 1}
    vw = {n: 1 for n in range(7)}
    assert partition_balanced(topo, 3, vw, eps=1.0).partitions() == \
        [[0, 1, 2], [3, 4], [5, 6]]
    plan = partition_vertex_plus_edge(topo, 3, vw, ew, eps=1.0)
    assert plan.partitions() == [[0, 1], [3, 4], [2, 5, 6]]
    assert plan.cut_weight == 2
    assert cut_weight(topo, plan.assignment, ew) == 1 + 5


# --------------------------------------------------------------------------
# plan files

def test_plan_file_round_trip(tmp_path):
    topo = generate_synthetic_topology(10, 3, 1, seed=0)
    plan = partition_balanced(topo, 4)
    path = tmp_path / "plan.txt"
    export_plan(plan, str(path))
    loaded = import_plan(str(path), topo)
    assert loaded.k == 4
    assert loaded.assignment == plan.assignment
    assert len([p for p in loaded.partitions() if p]) == 4


def test_plan_file_of_zeros_is_k1(tmp_path):
    topo = line_topology(4)
    path = tmp_path / "plan.txt"
    path.write_text("k=1\n" + "0\n" * 4)
    plan = import_plan(str(path), topo)
    assert plan.k == 1
    assert set(plan.assignment.values()) == {0}


def test_plan_file_validation(tmp_path):
    topo = line_topology(4)
    bad_header = tmp_path / "a.txt"
    bad_header.write_text("0\n0\n0\n0\n")
    with pytest.raises(PartitionError, match="header"):
        import_plan(str(bad_header), topo)
    wrong_count = tmp_path / "b.txt"
    wrong_count.write_text("k=2\n0\n1\n")
    with pytest.raises(PartitionError, match="entries"):
        import_plan(str(wrong_count), topo)
    out_of_range = tmp_path / "c.txt"
    out_of_range.write_text("k=2\n0\n1\n2\n0\n")
    with pytest.raises(PartitionError, match="out of range"):
        import_plan(str(out_of_range), topo)


def test_imbalance_definition():
    assignment = {0: 0, 1: 0, 2: 1}
    # max partition weight / mean partition weight
    assert compute_imbalance(assignment, 2, None) == pytest.approx(2 / 1.5)

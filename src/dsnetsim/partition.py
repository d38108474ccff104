"""Partition plans for the parallel kernel.

Four weighting strategies: no weights, per-node committed-event counts
from a profiling run, per-node expected ingress throughput derived
statically from routes, and those throughput vertex weights combined with
refinement of the per-link throughput (edge-weighted) cut.

The balanced planner grows regions from farthest-point seeds toward the
lightest partition. The vertex+edge planner then refines the balanced plan
by greedy single-node moves that lower the weighted cut while every
partition stays within ``eps`` of the mean weight. Every plan's
``cut_weight`` counts the undirected links it cuts. All planners are
deterministic for fixed inputs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum

from .routing import walk_route
from .topology import Topology


class PartitionError(Exception):
    pass


class WeightModel(Enum):
    NO_WEIGHTS = "no-weights"
    VERTEX_EVENT = "vertex-event"
    VERTEX_THROUGHPUT = "vertex-throughput"
    VERTEX_PLUS_EDGE = "vertex+edge"


@dataclass
class PartitionPlan:
    k: int
    assignment: dict[int, int]
    strategy: WeightModel
    imbalance: float = 1.0
    cut_weight: int = 0  # undirected links between partitions
    degraded: bool = False  # True when the balance target was not met

    def partitions(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.k)]
        for node in sorted(self.assignment):
            out[self.assignment[node]].append(node)
        return out


def _node_weight(weights: dict[int, int] | None, node: int) -> int:
    if not weights:
        return 1
    return weights.get(node, 0)


def _imbalance(plan_weights: list[int]) -> float:
    total = sum(plan_weights)
    if total == 0:
        return 1.0
    mean = total / len(plan_weights)
    return max(plan_weights) / mean


def compute_imbalance(assignment: dict[int, int], k: int,
                      weights: dict[int, int] | None) -> float:
    acc = [0] * k
    for node, pid in assignment.items():
        acc[pid] += _node_weight(weights, node)
    return _imbalance(acc)


def cut_weight(topo: Topology, assignment: dict[int, int],
               edge_weights: dict[tuple[int, int], int] | None) -> int:
    total = 0
    for e in topo.edges:
        if assignment[e.src] != assignment[e.dst]:
            total += 1 if not edge_weights else edge_weights.get((e.src, e.dst), 0)
    return total


def _plan(topo: Topology, k: int, assignment: dict[int, int], strategy: WeightModel,
          weights: dict[int, int] | None = None, eps: float = math.inf) -> PartitionPlan:
    """The plan of ``assignment`` with its figures: the imbalance under
    ``weights``, the links it cuts, and whether it misses the ``eps``
    balance target."""
    imb = compute_imbalance(assignment, k, weights)
    return PartitionPlan(k, assignment, strategy, imbalance=imb,
                         cut_weight=cut_weight(topo, assignment, None),
                         degraded=imb > 1.0 + eps)


# --------------------------------------------------------------------------
# weight derivation


def derive_vertex_event_weights(report) -> dict[int, int]:
    """Vertex weight = committed event count per node, from a prior run."""
    if not getattr(report, "per_lp_events", None):
        raise PartitionError(
            "no per-node event counts available; pass the report of a sequential "
            "profiling run (kernel.run_sequential) of the same scenario")
    return dict(report.per_lp_events)


def derive_vertex_throughput_weights(flows, routes: dict[int, dict[int, int]],
                                     topo: Topology) -> dict[int, int]:
    """Vertex weight = expected packets/second traversing or terminating at
    each node, summed over every flow's static route."""
    weights = {n: 0 for n in topo.tiers}
    for f in flows:
        for node in walk_route(topo, routes, f.src, f.dst):
            weights[node] += f.rate_pps
    return weights


def derive_edge_throughput_weights(flows, routes: dict[int, dict[int, int]],
                                   topo: Topology) -> dict[tuple[int, int], int]:
    """Edge weight = packets/second crossing each undirected link."""
    weights = {(e.src, e.dst): 0 for e in topo.edges}
    for f in flows:
        path = walk_route(topo, routes, f.src, f.dst)
        for a, b in zip(path, path[1:]):
            weights[(min(a, b), max(a, b))] += f.rate_pps
    return weights


# --------------------------------------------------------------------------
# balanced region growing


def _farthest_point_seeds(topo: Topology, k: int) -> list[int]:
    """Node 0, then, k - 1 times, the node farthest in hops from every seed
    so far (ties: lowest id). ``near`` keeps each node's distance to its
    nearest seed, so each new seed costs one pass."""
    seeds = [0]
    near = [math.inf] * topo.num_nodes
    while len(seeds) < k:
        for n, d in topo.hop_distances(seeds[-1]).items():
            if d < near[n]:
                near[n] = d
        # seeds are at 0 and every other node at least 1, so a seed never wins
        seeds.append(max(range(len(near)), key=near.__getitem__))
    return seeds


def _rebalance(topo: Topology, assignment: dict[int, int], k: int,
               weights: dict[int, int] | None, eps: float) -> None:
    """Move boundary nodes from the heaviest to lighter partitions, in at
    most 32 passes, while the move strictly reduces the maximum partition
    weight."""
    acc = [0] * k
    sizes = [0] * k
    for n, pid in assignment.items():
        acc[pid] += _node_weight(weights, n)
        sizes[pid] += 1
    for _ in range(32):
        improved = False
        heaviest = max(range(k), key=lambda p: (acc[p], p))
        lightest = min(range(k), key=lambda p: (acc[p], p))
        members = [n for n, pid in assignment.items() if pid == heaviest]
        # a move of weight w helps only if 0 < w < the heaviest's lead over
        # the partition it goes to, at most its lead over the lightest; the
        # first move of a pass is from this heaviest, so without one such
        # member the pass moves nothing
        gap = acc[heaviest] - acc[lightest]
        if not any(0 < _node_weight(weights, n) < gap for n in members):
            break
        # prefer nodes with few same-partition neighbours: moving them hurts
        # locality the least, and interior nodes become movable once the
        # boundary-only candidates run out
        members.sort(key=lambda n: (sum(1 for v in topo.neighbors(n)
                                        if assignment[v] == heaviest), n))
        for n in members:
            if assignment[n] != heaviest or sizes[heaviest] <= 1:
                continue
            w = _node_weight(weights, n)
            neigh_pids = {assignment[v] for v in topo.neighbors(n)}
            neigh_pids.discard(heaviest)
            candidates = sorted(neigh_pids)
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
        if not improved or _imbalance(acc) <= 1.0 + eps:
            break


def _balanced_assignment(topo: Topology, k: int, weights: dict[int, int] | None,
                         eps: float) -> dict[int, int]:
    """The assignment of :func:`partition_balanced`. Each partition starts
    from one farthest-point seed. Then, one node at a time, the lightest
    partition (ties: lowest index) that still has an unassigned neighbour
    takes its smallest one; a Topology is connected, so one always exists.
    Each partition keeps its frontier as a heap of node ids, from which
    nodes another partition took drop out when they reach the top. Last,
    :func:`_rebalance` moves boundary nodes."""
    n = topo.num_nodes
    if k < 1:
        raise PartitionError("k must be >= 1")
    if k > n:
        raise PartitionError(f"k={k} exceeds node count {n}")
    seeds = _farthest_point_seeds(topo, k)
    assignment: dict[int, int] = {}
    acc = [0] * k
    for pid, s in enumerate(seeds):
        assignment[s] = pid
        acc[pid] += _node_weight(weights, s)
    frontiers = [[v for v in topo.neighbors(s) if v not in assignment] for s in seeds]
    for front in frontiers:
        heapq.heapify(front)
    for _ in range(n - k):
        for pid in sorted(range(k), key=acc.__getitem__):  # stable: ties by index
            front = frontiers[pid]
            while front and front[0] in assignment:
                heapq.heappop(front)
            if front:
                break
        node = heapq.heappop(front)
        assignment[node] = pid
        acc[pid] += _node_weight(weights, node)
        for v in topo.neighbors(node):
            if v not in assignment:
                heapq.heappush(front, v)
    _rebalance(topo, assignment, k, weights, eps)
    return assignment


def partition_balanced(topo: Topology, k: int,
                       weights: dict[int, int] | None = None,
                       strategy: WeightModel = WeightModel.NO_WEIGHTS,
                       eps: float = 0.10) -> PartitionPlan:
    """Greedy multi-way region growing aimed at equal partition weights."""
    return _plan(topo, k, _balanced_assignment(topo, k, weights, eps), strategy, weights, eps)


# --------------------------------------------------------------------------
# edge-cut minimisation


def _refine_cut(topo: Topology, assignment: dict[int, int], k: int,
                edge_weights: dict[tuple[int, int], int],
                vertex_weights: dict[int, int] | None, cap: float) -> None:
    """Greedy cut refinement of the vertex+edge planner. Each of at most 10
    passes moves every node, in id order, to the neighbouring
    partition of largest positive cut gain (ties: lowest id) that stays
    within ``cap`` vertex weight. A partition's last node never moves."""
    acc = [0] * k
    sizes = [0] * k
    for n, pid in assignment.items():
        acc[pid] += _node_weight(vertex_weights, n)
        sizes[pid] += 1
    for _ in range(10):
        improved = False
        for node in topo.node_ids():
            cur = assignment[node]
            if sizes[cur] <= 1:
                continue
            w = _node_weight(vertex_weights, node)
            # cut change of moving node to each neighbouring partition
            external: dict[int, int] = {}
            internal = 0
            for v in topo.neighbors(node):
                we = edge_weights.get((min(node, v), max(node, v)), 0)
                pid = assignment[v]
                if pid != cur:
                    external[pid] = external.get(pid, 0) + we
                else:
                    internal += we
            best = None
            for pid in sorted(external):
                gain = external[pid] - internal
                if gain > 0 and acc[pid] + w <= cap and (not best or gain > best[0]):
                    best = (gain, pid)
            if best:
                acc[cur] -= w
                sizes[cur] -= 1
                acc[best[1]] += w
                sizes[best[1]] += 1
                assignment[node] = best[1]
                improved = True
        if not improved:
            break


def partition_vertex_plus_edge(topo: Topology, k: int,
                               vertex_weights: dict[int, int] | None,
                               edge_weights: dict[tuple[int, int], int],
                               eps: float = 0.10) -> PartitionPlan:
    """Balanced vertex weights, then refinement of the ``edge_weights`` cut
    that keeps every partition within ``eps`` of the mean vertex weight.
    ``vertex_weights=None`` weighs every node 1, which gives a cut-only plan
    under a node-count cap."""
    assignment = _balanced_assignment(topo, k, vertex_weights, eps)
    total = sum(_node_weight(vertex_weights, n) for n in assignment)
    _refine_cut(topo, assignment, k, edge_weights, vertex_weights,
                (total / k) * (1.0 + eps))
    return _plan(topo, k, assignment, WeightModel.VERTEX_PLUS_EDGE, vertex_weights, eps)


# --------------------------------------------------------------------------
# plan files: header "k=<int>", then one partition index per node in id order


def export_plan(plan: PartitionPlan, path: str):
    with open(path, "w") as fh:
        fh.write(f"k={plan.k}\n")
        for node in sorted(plan.assignment):
            fh.write(f"{plan.assignment[node]}\n")


def import_plan(path: str, topo: Topology) -> PartitionPlan:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("k="):
        raise PartitionError(f"{path}: expected 'k=<int>' header")
    try:
        k = int(lines[0][2:])
    except ValueError as e:
        raise PartitionError(f"{path}: bad header {lines[0]!r}") from e
    body = lines[1:]
    if len(body) != topo.num_nodes:
        raise PartitionError(
            f"{path}: {len(body)} entries for {topo.num_nodes} nodes")
    assignment = {}
    for node, ln in zip(topo.node_ids(), body):
        try:
            pid = int(ln)
        except ValueError as e:
            raise PartitionError(f"{path}: bad entry {ln!r}") from e
        if not 0 <= pid < k:
            raise PartitionError(f"{path}: partition index {pid} out of range 0..{k-1}")
        assignment[node] = pid
    return _plan(topo, k, assignment, WeightModel.NO_WEIGHTS)

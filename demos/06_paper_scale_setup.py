"""Set-up cost at paper scale: 1,000 to 5,000 routers.

The paper's digital twin covers a 5,000-router metro network. This script
builds synthetic three-tier scenarios of that order (80 % access, 16 % mixed,
4 % kernel nodes, a 20 us horizon) and prints, per size and per routing
metric (latency, then hop count), the topology, routing and model build
times, the time of a k=4 no-weights partition plan (``build_plan``, which
computes its own routes), build + plan, and the (node, destination) route
pairs the per-node route rows hold; then the peak RSS after the set-ups and
the events/s of one sequential run on the hop-count model. Routes are
computed only along the flows' paths, on the graph left once the access
leaves (which are never transit) are peeled off, and each destination's
pass stops once it has reached that destination's flow sources, so the rows
hold far fewer than n^2 pairs.

    python3 demos/06_paper_scale_setup.py              # 1,000, 2,500, 5,000 nodes
    python3 demos/06_paper_scale_setup.py --nodes 1000

Each size runs in a fresh process, so its peak RSS is its own.
"""

import argparse
import subprocess
import sys
import time

from dsnetsim.kernel import run_sequential
from dsnetsim.model import build_model
from dsnetsim.routing import RouteMetric, compute_routes
from dsnetsim.scenario import (
    build_plan, build_profiles, build_topology, build_traffic_spec, load_scenario,
    scenario_identity,
)
from dsnetsim.traffic import resolve_flows

SIZES = (1_000, 2_500, 5_000)
END_NS = 20_000


def peak_rss_mib() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return float("nan")


def set_up(nodes: int, metric: RouteMetric):
    """Build and plan one scenario on ``metric``, print its times, and
    return its model."""
    n_kernel = nodes * 4 // 100
    n_mixed = nodes * 16 // 100
    cfg = load_scenario(None, {
        "name": f"scale-{nodes}",
        "topology": {"synthetic": {"n_access": nodes - n_mixed - n_kernel,
                                   "n_mixed": n_mixed, "n_kernel": n_kernel, "seed": 1}},
        "routing": {"metric": metric.value},
        "run": {"end_ns": END_NS, "partitions": {"k": 4, "strategy": "no-weights"}},
    })
    t0 = time.perf_counter()
    topo = build_topology(cfg)
    t1 = time.perf_counter()
    spec = build_traffic_spec(cfg)
    flows = resolve_flows(spec, topo)
    routes = compute_routes(topo, metric, flows)
    t2 = time.perf_counter()
    model = build_model(topo, routes, spec, flows, END_NS, cfg["run"]["seed"],
                        profiles=build_profiles(cfg), scenario_id=scenario_identity(cfg))
    t3 = time.perf_counter()
    build_plan(cfg, topo)
    t4 = time.perf_counter()
    pairs = sum(len(row) for row in routes.values())
    print(f"{nodes:>6} nodes, {metric.value:>7}: topology {t1 - t0:6.2f} s, "
          f"routing {t2 - t1:6.2f} s ({len({f.dst for f in flows})} destinations), "
          f"model {t3 - t2:6.2f} s, build {t3 - t0:6.2f} s, plan k=4 {t4 - t3:6.2f} s, "
          f"build + plan {t4 - t0:6.2f} s | {pairs:,} route pairs of "
          f"{nodes * (nodes - 1):,}", flush=True)
    return model


def measure(nodes: int) -> None:
    # the latency model is dropped at once, so the peak RSS is one model's
    set_up(nodes, RouteMetric.LATENCY)
    model = set_up(nodes, RouteMetric.HOP_COUNT)
    rss = peak_rss_mib()
    t0 = time.perf_counter()
    report = run_sequential(model)
    t1 = time.perf_counter()
    print(f"{nodes:>6} nodes: peak RSS {rss:5.1f} MiB | sequential "
          f"{report.committed_events / (t1 - t0):,.0f} events/s", flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--nodes", type=int, help="build one size in this process")
    args = parser.parse_args()
    if args.nodes:
        measure(args.nodes)
        return
    for nodes in SIZES:
        subprocess.run([sys.executable, __file__, "--nodes", str(nodes)], check=True)


if __name__ == "__main__":
    main()

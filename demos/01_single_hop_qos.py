"""Walk one packet stream through the DiffServ pipeline of a small network.

Builds a three-node line (access - mixed - access), pushes a single 100k pps
flow across it sequentially, and prints the end-to-end metrics plus the
per-port event audit so you can see the ARRIVE/SEND economy at work.
"""

from dsnetsim.kernel import run_sequential
from dsnetsim.model import build_model
from dsnetsim.routing import compute_routes
from dsnetsim.topology import Link, NodeTier, Topology
from dsnetsim.traffic import Flow, TrafficSpec, resolve_flows


def main():
    nodes = [(0, NodeTier.ACCESS, 1), (1, NodeTier.MIXED, 2),
             (2, NodeTier.ACCESS, 1)]
    bw, delay = 15_000_000_000, 1_000
    # one Link per bidirectional pair: the Topology builds each reverse
    links = [
        Link(src=0, dst=1, src_port=0, dst_port=0, bandwidth_bps=bw, delay_ns=delay),
        Link(src=1, dst=2, src_port=1, dst_port=0, bandwidth_bps=bw, delay_ns=delay),
    ]
    topo = Topology(nodes, links)
    spec = TrafficSpec(pattern="explicit", flows=(Flow(0, 2, 100_000),))
    model = build_model(topo, compute_routes(topo), spec, resolve_flows(spec, topo),
                        end_time_ns=2_000_000, seed=1)
    report = run_sequential(model)

    print(f"generated {report.generated}, delivered {report.delivered}, "
          f"dropped {report.dropped}")
    print(f"mean delay {report.mean_delay_ns:.1f} ns, "
          f"jitter {report.jitter_ns:.1f} ns")
    print("\nper-port audit (node, port): counters")
    for key, audit in sorted(report.port_audit.items()):
        print(f"  {key}: {audit}")


if __name__ == "__main__":
    main()

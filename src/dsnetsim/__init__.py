"""Packet-level DiffServ network simulator with an optimistic parallel
kernel: two-event router model (lazy token refill), Time-Warp-style
rollback with incremental state saving and anti-messages, GVT-driven
fossil collection, and workload-aware graph partitioning."""

from .kernel import Knobs, run_optimistic, run_sequential
from .metrics import RunReport, compare_reports, finalize
from .model import build_model
from .partition import PartitionPlan, WeightModel, partition_balanced
from .routing import RouteMetric, compute_routes
from .scenario import load_scenario, run_scenario
from .topology import (
    NodeTier, Topology, generate_synthetic_topology, load_topology, save_topology,
)
from .traffic import TrafficSpec

__all__ = [
    "Knobs", "run_optimistic", "run_sequential", "RunReport",
    "compare_reports", "finalize", "build_model", "PartitionPlan",
    "WeightModel", "partition_balanced",
    "RouteMetric", "compute_routes", "load_scenario", "run_scenario",
    "NodeTier", "Topology", "generate_synthetic_topology", "load_topology",
    "save_topology", "TrafficSpec",
]

__version__ = "0.1.0"

"""Scenario configuration: one structured YAML file describing topology,
traffic, QoS, and run mode, with programmatic overrides. The effective
config is echoed into the output directory so every result is reproducible
from its own artefacts."""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import os

import yaml

from . import kernel, metrics, partition as partition_mod, traffic as traffic_mod
from .kernel import Knobs, run_optimistic, run_sequential
from .model import MODE_LAZY, MODE_PERIODIC, Model, build_model
from .partition import WeightModel
from .qos import (
    Color, QosConfigError, QosProfile, RedParams, SrtcmParams, default_red_params, make_profile,
)
from .routing import RouteMetric, compute_routes
from .topology import NodeTier, Topology, generate_synthetic_topology, load_topology
from .traffic import Flow, TrafficSpec

MODE_SEQUENTIAL = "sequential"
MODE_OPTIMISTIC = "optimistic"
MODE_BASELINE = "baseline"


class ScenarioError(Exception):
    pass


DEFAULT_CONFIG = {
    "name": "scenario",
    "topology": {"synthetic": {"n_access": 40, "n_mixed": 8, "n_kernel": 2, "seed": 1}},
    "routing": {"metric": "hop"},
    "traffic": {
        "pattern": "access_to_core",
        "packet_size": 1400,
        "rate_pps": 25_000,
        "ds_probs": dict(traffic_mod.DEFAULT_DS_PROBS),
        "seed": 7,
        "poisson": False,
        "flows": [],
    },
    "qos": {"default": {}, "tiers": {}},
    "run": {
        "end_ns": 10_000_000,
        "mode": MODE_SEQUENTIAL,
        "token_interval_ns": 0,
        "seed": 42,
        "partitions": {"k": 1, "strategy": "no-weights", "plan_path": None, "eps": 0.10},
        "knobs": {},
        "output_dir": None,
    },
}


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def load_scenario(path: str | None = None, overrides: dict | None = None) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        with open(path) as fh:
            doc = yaml.safe_load(fh) or {}
        if not isinstance(doc, dict):
            raise ScenarioError(f"{path}: expected a mapping")
        cfg = _deep_merge(cfg, doc)
    if overrides:
        cfg = _deep_merge(cfg, overrides)
    _validate(cfg)
    return cfg


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


# value check and its description for each typed Knobs field
_KNOB_CHECKS = {
    "gvt_interval": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "batch_size": (lambda v: _is_int(v) and v >= 1, "an integer >= 1"),
    "jitter": (lambda v: _is_int(v) and v >= 0, "an integer >= 0"),
    "schedule_seed": (lambda v: v is None or _is_int(v), "an integer or null"),
    "watchdog_s": (lambda v: _is_int(v) or isinstance(v, float), "a number"),
    "debug_audit": (lambda v: isinstance(v, bool), "true or false"),
    "runtime": (lambda v: v in kernel.RUNTIMES, f"one of {', '.join(kernel.RUNTIMES)}"),
}


# required keys of one traffic.flows entry; "ds" is optional
_FLOW_KEYS = ("src", "dst", "rate_pps")


def _check_keys(block, valid, where: str):
    """Reject a block that is not a mapping or has a key outside ``valid``.
    ``where`` is the block's dotted path, empty for the top level."""
    if not isinstance(block, dict):
        raise ScenarioError(f"{where}: expected a mapping")
    for key in block:
        if key not in valid:
            raise ScenarioError(
                f"{where + '.' if where else ''}{key}: unknown key "
                f"(valid: {', '.join(sorted(valid))})")


def _check_flows(flows):
    if not isinstance(flows, list):
        raise ScenarioError("traffic.flows: expected a list")
    for i, flow in enumerate(flows):
        where = f"traffic.flows[{i}]"
        _check_keys(flow, _FLOW_KEYS + ("ds",), where)
        for key in _FLOW_KEYS:
            if key not in flow:
                raise ScenarioError(f"{where}.{key}: missing")


def _validate(cfg: dict):
    _check_keys(cfg, DEFAULT_CONFIG, "")
    _check_keys(cfg["topology"], ("path", "synthetic"), "topology")
    _check_keys(cfg["topology"]["synthetic"], DEFAULT_CONFIG["topology"]["synthetic"],
                "topology.synthetic")
    _check_keys(cfg["routing"], DEFAULT_CONFIG["routing"], "routing")
    _check_keys(cfg["qos"], DEFAULT_CONFIG["qos"], "qos")
    _check_keys(cfg["traffic"], DEFAULT_CONFIG["traffic"], "traffic")
    _check_flows(cfg["traffic"]["flows"] or [])
    _check_keys(cfg["run"], DEFAULT_CONFIG["run"], "run")
    _check_keys(cfg["run"]["partitions"], DEFAULT_CONFIG["run"]["partitions"],
                "run.partitions")
    strategies = [m.value for m in WeightModel]
    if cfg["run"]["partitions"]["strategy"] not in strategies:
        raise ScenarioError(
            f"run.partitions.strategy: expected one of {', '.join(strategies)}, "
            f"got {cfg['run']['partitions']['strategy']!r}")
    mode = cfg["run"]["mode"]
    if mode not in (MODE_SEQUENTIAL, MODE_OPTIMISTIC, MODE_BASELINE):
        raise ScenarioError(f"unknown run mode {mode!r}")
    if mode == MODE_BASELINE and cfg["run"]["token_interval_ns"] <= 0:
        raise ScenarioError("baseline mode requires token_interval_ns > 0")
    if mode != MODE_BASELINE and cfg["run"].get("token_interval_ns"):
        raise ScenarioError("token_interval_ns is only valid in baseline mode")
    if mode == MODE_OPTIMISTIC and cfg["run"]["partitions"]["k"] < 1:
        raise ScenarioError("optimistic mode requires k >= 1")
    route_metrics = [m.value for m in RouteMetric]
    if cfg["routing"].get("metric") not in route_metrics:
        raise ScenarioError(f"routing.metric: expected one of {', '.join(route_metrics)}, "
                            f"got {cfg['routing'].get('metric')!r}")
    knobs = cfg["run"].get("knobs") or {}
    if not isinstance(knobs, dict):
        raise ScenarioError("run.knobs: expected a mapping")
    fields = sorted(f.name for f in dataclasses.fields(Knobs))
    for key in knobs:
        if key not in fields:
            raise ScenarioError(
                f"run.knobs.{key}: unknown knob (valid: {', '.join(fields)})")
        if key in _KNOB_CHECKS and not _KNOB_CHECKS[key][0](knobs[key]):
            raise ScenarioError(
                f"run.knobs.{key}: expected {_KNOB_CHECKS[key][1]}, "
                f"got {knobs[key]!r}")
    build_profiles(cfg)


def scenario_identity(cfg: dict) -> str:
    """Stable identity over everything that defines the simulated system —
    mode and partitioning are execution choices, not scenario identity."""
    ident = {
        "name": cfg["name"],
        "topology": cfg["topology"],
        "routing": cfg["routing"],
        "traffic": cfg["traffic"],
        "qos": cfg["qos"],
        "end_ns": cfg["run"]["end_ns"],
        "seed": cfg["run"]["seed"],
    }
    blob = yaml.safe_dump(ident, sort_keys=True).encode()
    return f"{cfg['name']}-{hashlib.sha256(blob).hexdigest()[:12]}"


# --------------------------------------------------------------------------
# construction


def build_topology(cfg: dict) -> Topology:
    tcfg = cfg["topology"]
    if "path" in tcfg and tcfg["path"]:
        return load_topology(tcfg["path"])
    s = tcfg["synthetic"]
    return generate_synthetic_topology(
        s["n_access"], s["n_mixed"], s["n_kernel"], s.get("seed", 0))


def build_traffic_spec(cfg: dict) -> TrafficSpec:
    t = cfg["traffic"]
    flows = tuple(
        Flow(f["src"], f["dst"], f["rate_pps"], f.get("ds"))
        for f in (t.get("flows") or [])
    )
    return TrafficSpec(
        pattern=t["pattern"],
        packet_size=t["packet_size"],
        rate_pps=t["rate_pps"],
        ds_probs={int(k): float(v) for k, v in t["ds_probs"].items()},
        seed=t["seed"],
        poisson=t.get("poisson", False),
        flows=flows,
    )


# scalar keys of a qos block that pass straight through to make_profile
_PROFILE_KEYS = ("num_classes", "default_class", "queue_capacity_bytes",
                 "shaper_rate_bps", "shaper_burst_bytes")
_BLOCK_KEYS = _PROFILE_KEYS + ("classifier", "srtcm", "red")


def _check_block_keys(block, where: str):
    _check_keys(block, _BLOCK_KEYS, where)
    red = block.get("red") or {}
    if not isinstance(red, dict):
        raise ScenarioError(f"{where}.red: expected a mapping")
    colors = [c.name.lower() for c in Color]
    for key in red:
        if key not in colors:
            raise ScenarioError(f"{where}.red.{key}: unknown color (valid: {', '.join(colors)})")


def _profile_from(block: dict, where: str) -> QosProfile:
    """Profile for one merged qos block. Keys the block leaves out take
    :func:`make_profile`'s defaults. A bad value is a ScenarioError that
    names the block, ``where``."""
    try:
        kwargs = {key: block[key] for key in _PROFILE_KEYS if key in block}
        if "classifier" in block:
            kwargs["classifier_map"] = {int(k): int(v) for k, v in block["classifier"].items()}
        srtcm_cfg = block.get("srtcm")
        if srtcm_cfg:
            kwargs["srtcm"] = [SrtcmParams(s["cir_bps"], s["cbs_bytes"], s["ebs_bytes"])
                               for s in srtcm_cfg]
        profile = make_profile(**kwargs)
        if srtcm_cfg and len(srtcm_cfg) != profile.classifier.num_classes:
            raise QosConfigError("srtcm list must have one entry per class")
        red_cfg = block.get("red")
        if red_cfg:
            row = []
            for color in Color:
                trip = red_cfg.get(color.name.lower())
                if trip:
                    weight = {"weight": float(trip[3])} if len(trip) > 3 else {}
                    row.append(RedParams(int(trip[0]), int(trip[1]), float(trip[2]), **weight))
                else:
                    row.append(default_red_params(profile.queue_capacity_bytes, color))
            profile = dataclasses.replace(profile, red=(tuple(row),) * profile.num_classes)
    except (QosConfigError, KeyError, TypeError, ValueError, IndexError) as e:
        raise ScenarioError(f"{where}: {e}") from e
    return profile


def build_profiles(cfg: dict) -> dict[NodeTier, QosProfile]:
    qcfg = cfg["qos"]
    default_block = qcfg.get("default") or {}
    tier_blocks = qcfg.get("tiers") or {}
    _check_block_keys(default_block, "qos.default")
    tiers = [t.value for t in NodeTier]
    for name, block in tier_blocks.items():
        if name not in tiers:
            raise ScenarioError(f"qos.tiers.{name}: unknown tier (valid: {', '.join(tiers)})")
        _check_block_keys(block or {}, f"qos.tiers.{name}")
    profiles = {}
    for tier in NodeTier:
        block = tier_blocks.get(tier.value) or {}
        # a tier without its own block is exactly qos.default
        where = f"qos.tiers.{tier.value}" if block else "qos.default"
        profiles[tier] = _profile_from(_deep_merge(default_block, block), where)
    return profiles


def _route_metric(cfg: dict) -> RouteMetric:
    return RouteMetric(cfg["routing"]["metric"])


def build_scenario_model(cfg: dict, mode: str | None = None,
                         token_interval_ns: int | None = None) -> Model:
    """Fresh model for one run. Models are single-use: running mutates LP
    state, so build a new one per run."""
    mode = mode or cfg["run"]["mode"]
    topo = build_topology(cfg)
    routes = compute_routes(topo, _route_metric(cfg))
    spec = build_traffic_spec(cfg)
    kernel_mode = MODE_PERIODIC if mode == MODE_BASELINE else MODE_LAZY
    interval = token_interval_ns if token_interval_ns is not None \
        else cfg["run"].get("token_interval_ns", 0)
    return build_model(
        topo, routes, spec,
        end_time_ns=cfg["run"]["end_ns"],
        seed=cfg["run"]["seed"],
        profiles=build_profiles(cfg),
        mode=kernel_mode,
        token_interval_ns=interval,
        scenario_id=scenario_identity(cfg),
    )


def build_plan(cfg: dict, topo: Topology) -> partition_mod.PartitionPlan:
    pcfg = cfg["run"]["partitions"]
    if pcfg.get("plan_path"):
        return partition_mod.import_plan(pcfg["plan_path"], topo)
    k = pcfg["k"]
    eps = pcfg["eps"]
    strategy = WeightModel(pcfg["strategy"])
    routes = compute_routes(topo, _route_metric(cfg))
    flows = traffic_mod.resolve_flows(build_traffic_spec(cfg), topo)
    weights = None
    if strategy is WeightModel.VERTEX_EVENT:
        # needs a profiling trace; run one sequentially on the fly
        profiling = run_sequential(build_scenario_model(cfg, mode=MODE_SEQUENTIAL))
        weights = partition_mod.derive_vertex_event_weights(profiling)
    elif strategy in (WeightModel.VERTEX_THROUGHPUT, WeightModel.VERTEX_PLUS_EDGE):
        weights = partition_mod.derive_vertex_throughput_weights(flows, routes, topo)
    if strategy in (WeightModel.EDGE_THROUGHPUT, WeightModel.VERTEX_PLUS_EDGE):
        ew = partition_mod.derive_edge_throughput_weights(flows, routes, topo)
        if strategy is WeightModel.EDGE_THROUGHPUT:
            return partition_mod.partition_min_edgecut(topo, k, ew)
        return partition_mod.partition_vertex_plus_edge(topo, k, weights, ew, eps)
    return partition_mod.partition_balanced(topo, k, weights, strategy, eps)


# --------------------------------------------------------------------------
# execution


def run_scenario(cfg: dict, output_dir: str | None = None) -> metrics.RunReport:
    """Execute the configured mode and write records, summary, and counter
    series when an output directory is given."""
    mode = cfg["run"]["mode"]
    model = build_scenario_model(cfg)
    if mode == MODE_OPTIMISTIC:
        plan = build_plan(cfg, model.topology)
        knobs = Knobs(**(cfg["run"].get("knobs") or {}))
        report = run_optimistic(model, plan, knobs)
    else:
        report = run_sequential(model)
    out = output_dir or cfg["run"].get("output_dir")
    if out:
        write_outputs(cfg, report, out)
    return report


def write_outputs(cfg: dict, report: metrics.RunReport, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "effective_config.yaml"), "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=False)
    metrics.write_records_csv(os.path.join(out_dir, "records.csv"), report.records)
    metrics.write_summary(os.path.join(out_dir, "summary.txt"), report)
    if report.gvt_series:
        metrics.write_gvt_series_csv(os.path.join(out_dir, "gvt_series.csv"), report)

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
from .qos import Color, QosConfigError, QosProfile, RedParams, SrtcmParams, make_profile
from .routing import RouteMetric, compute_routes
from .topology import NodeTier, Topology, generate_synthetic_topology, load_topology
from .traffic import Flow, TrafficError, TrafficSpec

MODE_SEQUENTIAL = "sequential"
MODE_OPTIMISTIC = "optimistic"
MODE_BASELINE = "baseline"


class ScenarioError(Exception):
    pass


# --------------------------------------------------------------------------
# schema: one table of every key. A dict is a block; a (default, check) pair
# is one value. A check is (predicate, description), a sub-table the value
# must match, or [sub-table] for a list of entries. _ABSENT marks a key whose
# absence means "use the library default"; _REQUIRED, a key that must be given.

_ABSENT, _REQUIRED = object(), object()


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_num(v) -> bool:
    return _is_int(v) or isinstance(v, float)


def _int(lo=None):
    if lo is None:
        return _is_int, "an integer"
    return (lambda v: _is_int(v) and v >= lo), f"an integer >= {lo}"


def _one_of(values):
    return (lambda v: v in values), f"one of {', '.join(values)}"


def _or_null(check):
    return (lambda v: v is None or check[0](v)), f"{check[1]} or null"


def _is_ds(v) -> bool:
    return _is_int(v) and 0 <= v <= 63


def _mapping(key_ok, val_ok, desc):
    return (lambda v: isinstance(v, dict)
            and all(key_ok(k) and val_ok(x) for k, x in v.items())), desc


_STR = (lambda v: isinstance(v, str)), "a string"
_BOOL = (lambda v: isinstance(v, bool)), "true or false"
_NUM = (lambda v: _is_num(v) and v >= 0), "a number >= 0"
_RED = ((lambda v: isinstance(v, list) and len(v) in (3, 4) and _is_int(v[0])
         and _is_int(v[1]) and all(_is_num(x) for x in v[2:])),
        "[min_th_bytes, max_th_bytes, max_p] or [..., weight]")

# one qos block; every key left out takes make_profile's default
_QOS_BLOCK = {
    "num_classes": (_ABSENT, _int(1)),
    "default_class": (_ABSENT, _int(0)),
    "queue_capacity_bytes": (_ABSENT, _int(1)),
    "shaper_rate_bps": (_ABSENT, _int(1)),
    "shaper_burst_bytes": (_ABSENT, _int(1)),
    "classifier": (_ABSENT, _mapping(_is_ds, _int(0)[0], "a mapping DS 0..63 -> class")),
    "srtcm": (_ABSENT, [{f.name: (_REQUIRED, _int(0)) for f in dataclasses.fields(SrtcmParams)}]),
    "red": (_ABSENT, {c.name.lower(): (_ABSENT, _RED) for c in Color}),
}
_TRAFFIC = TrafficSpec()  # library defaults of the traffic block

_SCHEMA = {
    "name": ("scenario", _STR),
    "topology": {
        "path": (_ABSENT, _STR),
        "synthetic": {"n_access": (40, _int(1)), "n_mixed": (8, _int(1)),
                      "n_kernel": (2, _int(1)), "seed": (1, _int())},
    },
    "routing": {"metric": (RouteMetric.HOP_COUNT.value, _one_of([m.value for m in RouteMetric]))},
    "traffic": {
        "pattern": (_TRAFFIC.pattern, _one_of(
            (traffic_mod.PATTERN_ACCESS_TO_CORE, traffic_mod.PATTERN_EXPLICIT))),
        "packet_size": (_TRAFFIC.packet_size, _int(1)),
        "rate_pps": (_TRAFFIC.rate_pps, _int(1)),
        "ds_probs": (_TRAFFIC.ds_probs, _mapping(
            _is_ds, _NUM[0], "a mapping DS 0..63 -> probability")),
        "seed": (7, _int()),
        "poisson": (_TRAFFIC.poisson, _BOOL),
        "flows": ([], [{"src": (_REQUIRED, _int(0)), "dst": (_REQUIRED, _int(0)),
                        "rate_pps": (_REQUIRED, _int(1)),
                        "ds": (_ABSENT, (_is_ds, "an integer in 0..63"))}]),
    },
    "qos": {"default": _QOS_BLOCK,
            "tiers": {t.value: (_ABSENT, _QOS_BLOCK) for t in NodeTier}},
    "run": {
        "end_ns": (10_000_000, _int(1)),
        "mode": (MODE_SEQUENTIAL, _one_of((MODE_SEQUENTIAL, MODE_OPTIMISTIC, MODE_BASELINE))),
        "token_interval_ns": (0, _int(0)),
        "seed": (42, _int()),
        "partitions": {
            "k": (1, _int(1)),
            "strategy": (WeightModel.NO_WEIGHTS.value, _one_of([m.value for m in WeightModel])),
            "plan_path": (None, _or_null(_STR)),
            "eps": (0.10, _NUM),
        },
        # every knob left out takes its Knobs default
        "knobs": {
            "gvt_interval": (_ABSENT, _int(1)),
            "batch_size": (_ABSENT, _int(1)),
            "runtime": (_ABSENT, _one_of(kernel.RUNTIMES)),
            "schedule_seed": (_ABSENT, _or_null(_int())),
            "jitter": (_ABSENT, _int(0)),
            "watchdog_s": (_ABSENT, _NUM),
        },
        "output_dir": (None, _or_null(_STR)),
    },
}


def _walk(table: dict, block, where: str):
    """Check ``block`` against ``table``; ``where`` is its dotted path."""
    if not isinstance(block, dict):
        raise ScenarioError(f"{where}: expected a mapping, got {block!r}")
    for key, value in block.items():
        path = f"{where}.{key}" if where else str(key)
        if key not in table:
            raise ScenarioError(f"{path}: unknown key (valid: {', '.join(sorted(table))})")
        check = table[key] if isinstance(table[key], dict) else table[key][1]
        if isinstance(check, dict):
            _walk(check, value, path)
        elif isinstance(check, list):
            if not isinstance(value, list):
                raise ScenarioError(f"{path}: expected a list, got {value!r}")
            for i, entry in enumerate(value):
                _walk(check[0], entry, f"{path}[{i}]")
        elif not check[0](value):
            raise ScenarioError(f"{path}: expected {check[1]}, got {value!r}")
    for key, spec in table.items():
        if not isinstance(spec, dict) and spec[0] is _REQUIRED and key not in block:
            raise ScenarioError(f"{where}.{key}: missing")


def _defaults(table: dict) -> dict:
    return {key: _defaults(spec) if isinstance(spec, dict) else copy.deepcopy(spec[0])
            for key, spec in table.items()
            if isinstance(spec, dict) or spec[0] not in (_ABSENT, _REQUIRED)}


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


def load_scenario(path: str | None = None, overrides: dict | None = None) -> dict:
    cfg = _defaults(_SCHEMA)
    if path is not None:
        with open(path) as fh:
            try:
                doc = yaml.safe_load(fh) or {}
            except yaml.YAMLError as e:
                raise ScenarioError(f"cannot parse {path}: {e}") from e
        if not isinstance(doc, dict):
            raise ScenarioError(f"{path}: expected a mapping")
        cfg = _deep_merge(cfg, doc)
    if overrides:
        cfg = _deep_merge(cfg, overrides)
    _validate(cfg)
    return cfg


def _validate(cfg: dict):
    """Every value against the table, then the rules that span keys."""
    _walk(_SCHEMA, cfg, "")
    run = cfg["run"]
    if run["mode"] == MODE_BASELINE and run["token_interval_ns"] == 0:
        raise ScenarioError("run.token_interval_ns: baseline mode requires token_interval_ns > 0")
    if run["mode"] != MODE_BASELINE and run["token_interval_ns"]:
        raise ScenarioError("run.token_interval_ns: only valid in baseline mode")
    try:
        build_traffic_spec(cfg)
    except TrafficError as e:
        raise ScenarioError(f"traffic: {e}") from e
    size = cfg["traffic"]["packet_size"]
    for tier, profile in build_profiles(cfg).items():
        if size > profile.shaper_burst_bytes:
            tier_block = cfg["qos"]["tiers"].get(tier.value, {})
            block = f"tiers.{tier.value}" if "shaper_burst_bytes" in tier_block else "default"
            raise ScenarioError(
                f"traffic.packet_size: {size} B exceeds qos.{block}.shaper_burst_bytes "
                f"= {profile.shaper_burst_bytes} B, so no packet could pass the shaper")


# libyaml's emitter writes the same text as the pure-Python one, several
# times faster
_DUMPER = yaml.CSafeDumper if yaml.__with_libyaml__ else yaml.SafeDumper


def dump_yaml(data, stream=None, sort_keys: bool = True):
    """``yaml.safe_dump(data, stream, sort_keys=sort_keys)``, through
    libyaml where PyYAML was built with it."""
    return yaml.dump(data, stream, Dumper=_DUMPER, sort_keys=sort_keys)


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
    blob = dump_yaml(ident, sort_keys=True).encode()
    return f"{cfg['name']}-{hashlib.sha256(blob).hexdigest()[:12]}"


# --------------------------------------------------------------------------
# construction


def build_topology(cfg: dict) -> Topology:
    tcfg = cfg["topology"]
    if "path" in tcfg:
        return load_topology(tcfg["path"])
    s = tcfg["synthetic"]
    return generate_synthetic_topology(s["n_access"], s["n_mixed"], s["n_kernel"], s["seed"])


def build_traffic_spec(cfg: dict) -> TrafficSpec:
    t = cfg["traffic"]
    return TrafficSpec(
        pattern=t["pattern"],
        packet_size=t["packet_size"],
        rate_pps=t["rate_pps"],
        ds_probs=dict(t["ds_probs"]),
        seed=t["seed"],
        poisson=t["poisson"],
        flows=tuple(Flow(f["src"], f["dst"], f["rate_pps"], f.get("ds")) for f in t["flows"]),
    )


def _profile_from(block: dict, where: str) -> QosProfile:
    """Profile for one merged qos block. Keys the block leaves out take
    :func:`make_profile`'s defaults. A bad value is a ScenarioError that
    names the block, ``where``."""
    kwargs = dict(block)
    if "classifier" in kwargs:
        kwargs["classifier_map"] = kwargs.pop("classifier")
    red = kwargs.pop("red", None)
    try:
        if "srtcm" in kwargs:
            kwargs["srtcm"] = [SrtcmParams(**s) for s in kwargs["srtcm"]]
        profile = make_profile(**kwargs)
        if "srtcm" in kwargs and len(kwargs["srtcm"]) != profile.classifier.num_classes:
            raise QosConfigError("srtcm list must have one entry per class")
        if red is not None:
            row = tuple(RedParams(*red[color.name.lower()]) if color.name.lower() in red
                        else profile.red[0][color] for color in Color)
            profile = dataclasses.replace(profile, red=(row,) * profile.num_classes)
    except QosConfigError as e:
        raise ScenarioError(f"{where}: {e}") from e
    return profile


def build_profiles(cfg: dict) -> dict[NodeTier, QosProfile]:
    qcfg = cfg["qos"]
    profiles = {}
    for tier in NodeTier:
        block = qcfg["tiers"].get(tier.value, {})
        # a tier without its own block is exactly qos.default
        where = f"qos.tiers.{tier.value}" if block else "qos.default"
        profiles[tier] = _profile_from(_deep_merge(qcfg["default"], block), where)
    return profiles


def _route_metric(cfg: dict) -> RouteMetric:
    return RouteMetric(cfg["routing"]["metric"])


def build_scenario_model(cfg: dict, mode: str | None = None,
                         token_interval_ns: int | None = None) -> Model:
    """Fresh model for one run. Models are single-use: running mutates LP
    state, so build a new one per run."""
    topo = build_topology(cfg)
    spec = build_traffic_spec(cfg)
    routes = compute_routes(topo, _route_metric(cfg), traffic_mod.resolve_flows(spec, topo))
    return _assemble_model(cfg, topo, routes, spec, mode or cfg["run"]["mode"],
                           token_interval_ns, scenario_identity(cfg))


def _assemble_model(cfg: dict, topo: Topology, routes, spec: TrafficSpec, mode: str,
                    token_interval_ns: int | None, scenario_id: str) -> Model:
    kernel_mode = MODE_PERIODIC if mode == MODE_BASELINE else MODE_LAZY
    interval = token_interval_ns if token_interval_ns is not None \
        else cfg["run"]["token_interval_ns"]
    return build_model(
        topo, routes, spec,
        end_time_ns=cfg["run"]["end_ns"],
        seed=cfg["run"]["seed"],
        profiles=build_profiles(cfg),
        mode=kernel_mode,
        token_interval_ns=interval,
        scenario_id=scenario_id,
    )


def build_plan(cfg: dict, topo: Topology) -> partition_mod.PartitionPlan:
    pcfg = cfg["run"]["partitions"]
    if pcfg["plan_path"]:
        return partition_mod.import_plan(pcfg["plan_path"], topo)
    k = pcfg["k"]
    eps = pcfg["eps"]
    strategy = WeightModel(pcfg["strategy"])
    spec = build_traffic_spec(cfg)
    flows = traffic_mod.resolve_flows(spec, topo)
    routes = compute_routes(topo, _route_metric(cfg), flows)
    weights = None
    if strategy is WeightModel.VERTEX_EVENT:
        # needs a profiling trace: run the same scenario sequentially, on
        # this topology and these routes
        profiling = run_sequential(_assemble_model(
            cfg, topo, routes, spec, MODE_SEQUENTIAL, None, f"{cfg['name']}-profile"))
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
        report = run_optimistic(model, plan, Knobs(**cfg["run"]["knobs"]))
    else:
        report = run_sequential(model)
    out = output_dir or cfg["run"]["output_dir"]
    if out:
        write_outputs(cfg, report, out)
    return report


def write_outputs(cfg: dict, report: metrics.RunReport, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "effective_config.yaml"), "w") as fh:
        dump_yaml(cfg, fh, sort_keys=False)
    metrics.write_records_csv(os.path.join(out_dir, "records.csv"), report.records)
    metrics.write_summary(os.path.join(out_dir, "summary.txt"), report)
    if report.gvt_series:
        metrics.write_gvt_series_csv(os.path.join(out_dir, "gvt_series.csv"), report)

"""Scenario configs: defaults, overrides, validation, identity, outputs."""

import dataclasses
import os
import re

import pytest
import yaml

from dsnetsim.kernel import Knobs
from dsnetsim.metrics import read_records_csv
from dsnetsim.partition import (
    WeightModel, derive_vertex_throughput_weights, partition_balanced,
)
from dsnetsim.qos import Color, make_profile
from dsnetsim.scenario import (
    MODE_BASELINE, MODE_OPTIMISTIC, MODE_SEQUENTIAL, ScenarioError,
    _SCHEMA, build_plan, build_profiles, build_scenario_model, build_topology,
    dump_yaml, load_scenario, run_scenario, scenario_identity,
)
from dsnetsim.routing import RouteMetric, compute_routes
from dsnetsim.topology import Link, NodeTier, Topology, save_topology
from dsnetsim.traffic import Flow

SMALL = {
    "name": "small",
    "topology": {"synthetic": {"n_access": 4, "n_mixed": 2, "n_kernel": 1, "seed": 0}},
    "run": {"end_ns": 200_000},
}


def test_defaults_load_without_a_file():
    cfg = load_scenario()
    assert cfg["run"]["mode"] == MODE_SEQUENTIAL
    assert cfg["traffic"]["rate_pps"] == 25_000
    assert cfg["topology"]["synthetic"]["n_access"] == 40


def test_file_and_overrides_merge_deeply(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text(yaml.safe_dump(SMALL))
    cfg = load_scenario(str(path), {"run": {"seed": 7}})
    assert cfg["name"] == "small"
    assert cfg["run"]["end_ns"] == 200_000
    assert cfg["run"]["seed"] == 7
    assert cfg["run"]["mode"] == MODE_SEQUENTIAL  # default survives the merge
    assert cfg["traffic"]["rate_pps"] == 25_000


def test_mode_validation():
    with pytest.raises(ScenarioError, match="run.mode: expected one of"):
        load_scenario(None, {"run": {"mode": "speculative"}})
    with pytest.raises(ScenarioError, match="requires token_interval"):
        load_scenario(None, {"run": {"mode": MODE_BASELINE}})
    with pytest.raises(ScenarioError, match="only valid in baseline"):
        load_scenario(None, {"run": {"token_interval_ns": 100}})


def _leaves(table, path=()):
    """(path, check) of every value in the schema table, blocks excluded;
    a list of entries also yields the leaves of its first entry."""
    for key, spec in table.items():
        if isinstance(spec, dict):
            yield from _leaves(spec, path + (key,))
            continue
        check = spec[1]
        yield path + (key,), check
        if isinstance(check, dict):
            yield from _leaves(check, path + (key,))
        elif isinstance(check, list):
            yield from _leaves(check[0], path + (key, 0))


def _dotted(path):
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)[1:]


def _nest(path, value):
    for p in reversed(path):
        value = [value] if isinstance(p, int) else {p: value}
    return value


LEAVES = list(_leaves(_SCHEMA))


@pytest.mark.parametrize("path, check", LEAVES, ids=[_dotted(p) for p, _ in LEAVES])
def test_every_leaf_rejects_a_wrong_type(path, check):
    bad = "wrong type" if isinstance(check, (dict, list)) else {"wrong": "type"}
    with pytest.raises(ScenarioError, match=rf"^{re.escape(_dotted(path))}: "):
        load_scenario(None, _nest(path, bad))


def test_schema_knobs_are_the_knobs_fields():
    assert list(_SCHEMA["run"]["knobs"]) == [f.name for f in dataclasses.fields(Knobs)]


def test_unknown_routing_metric_is_rejected():
    assert load_scenario(None, {"routing": {"metric": "latency"}})
    with pytest.raises(ScenarioError, match="routing.metric"):
        load_scenario(None, {"routing": {"metric": "latnecy"}})


def test_identity_ignores_execution_choices():
    base = load_scenario(None, {"name": "x"})
    opt = load_scenario(None, {
        "name": "x",
        "run": {"mode": MODE_OPTIMISTIC, "partitions": {"k": 4}},
    })
    baseline = load_scenario(None, {
        "name": "x",
        "run": {"mode": MODE_BASELINE, "token_interval_ns": 1_000},
    })
    assert scenario_identity(base) == scenario_identity(opt)
    assert scenario_identity(base) == scenario_identity(baseline)
    other = load_scenario(None, {"name": "x", "traffic": {"rate_pps": 1}})
    assert scenario_identity(base) != scenario_identity(other)


@pytest.mark.parametrize("overrides", [
    {},
    {**SMALL, "traffic": {"pattern": "explicit", "ds_probs": {46: 0.5, 26: 0.0},
                          "flows": [{"src": 3, "dst": 0, "rate_pps": 20_000, "ds": 46},
                                    {"src": 4, "dst": 1, "rate_pps": 20_000}]}},
], ids=["defaults", "explicit-flows"])
@pytest.mark.parametrize("sort_keys", [True, False])
def test_dump_yaml_writes_what_safe_dump_writes(overrides, sort_keys):
    """The identity hash and effective_config.yaml depend on these bytes."""
    cfg = load_scenario(None, overrides)
    assert dump_yaml(cfg, sort_keys=sort_keys) == yaml.safe_dump(cfg, sort_keys=sort_keys)


def test_per_tier_qos_overrides():
    cfg = load_scenario(None, {
        "qos": {
            "default": {"queue_capacity_bytes": 10_000},
            "tiers": {"kernel": {"shaper_rate_bps": 999}},
        },
    })
    profiles = build_profiles(cfg)
    assert profiles[NodeTier.ACCESS].queue_capacity_bytes == 10_000
    assert profiles[NodeTier.ACCESS].shaper_rate_bps == 1_250_000_000
    assert profiles[NodeTier.KERNEL].shaper_rate_bps == 999
    assert profiles[NodeTier.KERNEL].queue_capacity_bytes == 10_000


def test_empty_qos_block_gives_make_profile_defaults():
    cfg = load_scenario(None, {"qos": {"default": {}, "tiers": {}}})
    want = make_profile()
    for tier, got in build_profiles(cfg).items():
        for f in dataclasses.fields(want):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if f.name == "classifier":
                assert (a.mapping, a.default_class, a.num_classes) == \
                    (b.mapping, b.default_class, b.num_classes), tier
            else:
                assert a == b, (tier, f.name)


def test_explicit_red_and_srtcm_blocks():
    cfg = load_scenario(None, {
        "qos": {"default": {
            "num_classes": 2,
            "classifier": {46: 0},
            "default_class": 1,
            "srtcm": [
                {"cir_bps": 1000, "cbs_bytes": 2000, "ebs_bytes": 3000},
                {"cir_bps": 1000, "cbs_bytes": 2000, "ebs_bytes": 3000},
            ],
            "red": {"green": [100, 200, 0.5]},
        }},
    })
    prof = build_profiles(cfg)[NodeTier.ACCESS]
    assert prof.num_classes == 2
    assert prof.srtcm[0].cbs_bytes == 2000
    assert prof.red[0][Color.GREEN].min_th_bytes == 100
    assert prof.red[0][Color.GREEN].max_p == 0.5
    # unspecified colors fall back to the built-in per-color defaults
    assert prof.red[0][Color.RED].max_p == 0.5
    assert prof.red[0][Color.YELLOW].max_p == 0.1


def test_run_scenario_writes_artifacts(tmp_path):
    cfg = load_scenario(None, SMALL)
    out = tmp_path / "out"
    report = run_scenario(cfg, str(out))
    assert (out / "effective_config.yaml").exists()
    assert (out / "summary.txt").exists()
    loaded = read_records_csv(str(out / "records.csv"))
    assert loaded == sorted(report.records, key=lambda r: r.pid)
    echoed = yaml.safe_load((out / "effective_config.yaml").read_text())
    assert echoed["run"]["end_ns"] == 200_000


def test_effective_config_loads_back_to_the_same_cfg(tmp_path):
    cfg = load_scenario(None, {
        **SMALL,
        "traffic": {"pattern": "explicit", "ds_probs": {46: 0.5, 26: 0.0},
                    "flows": [{"src": 3, "dst": 0, "rate_pps": 20_000, "ds": 46},
                              {"src": 4, "dst": 1, "rate_pps": 20_000}]},
        "qos": {"default": {"queue_capacity_bytes": 30_000},
                "tiers": {"kernel": {
                    "srtcm": [{"cir_bps": 10**6, "cbs_bytes": 4_000, "ebs_bytes": 8_000}] * 3,
                    "red": {"green": [1_000, 20_000, 0.1, 0.01]}}}},
        "run": {"end_ns": 200_000, "mode": MODE_OPTIMISTIC, "partitions": {"k": 2},
                "knobs": {"gvt_interval": 64, "schedule_seed": 3}},
    })
    out = tmp_path / "out"
    run_scenario(cfg, str(out))
    assert load_scenario(str(out / "effective_config.yaml")) == cfg


def test_optimistic_scenario_end_to_end(tmp_path):
    seq = run_scenario(load_scenario(None, SMALL))
    opt_cfg = load_scenario(None, {
        **SMALL,
        "run": {"end_ns": 200_000, "mode": MODE_OPTIMISTIC,
                "partitions": {"k": 2},
                "knobs": {"runtime": "stepped", "gvt_interval": 64}},
    })
    out = tmp_path / "opt"
    rep = run_scenario(opt_cfg, str(out))
    assert sorted(rep.records, key=lambda r: r.pid) == \
        sorted(seq.records, key=lambda r: r.pid)
    assert (out / "gvt_series.csv").exists()


def test_topology_file_beats_synthetic(tmp_path):
    from dsnetsim.topology import save_topology
    cfg = load_scenario(None, SMALL)
    topo = build_topology(cfg)
    path = tmp_path / "t.yaml"
    save_topology(topo, str(path))
    cfg2 = load_scenario(None, {
        "topology": {"path": str(path),
                     "synthetic": {"n_access": 99, "n_mixed": 9, "n_kernel": 9,
                                   "seed": 0}},
    })
    assert build_topology(cfg2).num_nodes == topo.num_nodes


def test_build_plan_weights_follow_the_routing_metric(tmp_path):
    # line 0-1-2-3-4-5 plus a 100 us shortcut 0-5: hop routes between 0 and
    # 5 take the shortcut, latency routes take the line
    def both(a, b, pa, pb, delay):
        return [Link(a, b, pa, pb, 25_000_000_000, delay),
                Link(b, a, pb, pa, 25_000_000_000, delay)]
    links = both(0, 5, 1, 1, 100_000)
    for i in range(5):
        links += both(i, i + 1, 0 if i == 0 else 1, 0, 1_000)
    topo = Topology([(i, NodeTier.ACCESS, 2) for i in range(6)], links)
    path = tmp_path / "t.yaml"
    save_topology(topo, str(path))
    cfg = load_scenario(None, {
        "topology": {"path": str(path)},
        "routing": {"metric": "latency"},
        "traffic": {"pattern": "explicit", "flows": [
            {"src": 0, "dst": 5, "rate_pps": 1000},
            {"src": 5, "dst": 0, "rate_pps": 1000}]},
        "run": {"partitions": {"k": 2, "strategy": "vertex-throughput"}},
    })
    flows = [Flow(0, 5, 1000), Flow(5, 0, 1000)]

    def plan_on(metric):
        w = derive_vertex_throughput_weights(flows, compute_routes(topo, metric), topo)
        return partition_balanced(topo, 2, w, WeightModel.VERTEX_THROUGHPUT)

    want = plan_on(RouteMetric.LATENCY)
    assert want.assignment != plan_on(RouteMetric.HOP_COUNT).assignment
    assert build_plan(cfg, build_topology(cfg)) == want

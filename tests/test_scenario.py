"""Scenario configs: defaults, overrides, validation, identity, outputs."""

import dataclasses
import os
import re

import pytest
import yaml

from dsnetsim.kernel import Knobs
from dsnetsim.metrics import read_records_csv
from dsnetsim.partition import (
    WeightModel, derive_edge_throughput_weights, derive_vertex_throughput_weights,
    partition_balanced, partition_vertex_plus_edge,
)
from dsnetsim.qos import Color, QosProfile, RedParams
from dsnetsim.scenario import (
    MODE_BASELINE, MODE_OPTIMISTIC, MODE_SEQUENTIAL, ScenarioError,
    _SCHEMA, build_plan, build_profiles, build_scenario_model, build_topology,
    dump_yaml, load_scenario, run_scenario, scenario_identity,
)
from dsnetsim.routing import RouteMetric, compute_routes
from dsnetsim.topology import (
    Link, NodeTier, Topology, generate_synthetic_topology, save_topology,
)
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
    with pytest.raises(ScenarioError, match="run.token_interval_ns: baseline mode requires"):
        build_scenario_model(load_scenario(None), mode=MODE_BASELINE)


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
    # schedule_seed acts only on unbounded runs, which no scenario makes
    assert list(_SCHEMA["run"]["knobs"]) == [
        f.name for f in dataclasses.fields(Knobs) if f.name != "schedule_seed"]


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


def test_identity_follows_the_topology_file_content_not_its_path(tmp_path):
    save_topology(generate_synthetic_topology(4, 2, 1, seed=3), str(tmp_path / "t.yaml"))
    topo_doc = yaml.safe_load((tmp_path / "t.yaml").read_text())

    def identity_in(where):
        """The id of a scenario file that sits next to ``topo_doc``."""
        os.makedirs(tmp_path / where)
        (tmp_path / where / "t.yaml").write_text(yaml.safe_dump(topo_doc))
        (tmp_path / where / "s.yaml").write_text(yaml.safe_dump(
            {"name": "x", "topology": {"path": "t.yaml"}}))
        return scenario_identity(load_scenario(str(tmp_path / where / "s.yaml")))

    first = identity_in("a")
    assert identity_in("b") == first
    topo_doc["links"][0]["delay_ns"] += 1
    assert identity_in("c") != first


def _reversed_keys(doc):
    """``doc`` with the keys of every mapping in it in reverse order."""
    if isinstance(doc, dict):
        return {k: _reversed_keys(doc[k]) for k in reversed(doc)}
    if isinstance(doc, list):
        return [_reversed_keys(x) for x in doc]
    return doc


_EXPLICIT = {"pattern": "explicit", "ds_probs": {46: 0.5, 0: 0.5},
             "flows": [{"src": 3, "dst": 0, "rate_pps": 20_000, "ds": 46},
                       {"src": 4, "dst": 1, "rate_pps": 20_000}]}


def test_identity_ignores_the_key_order_of_the_scenario_file(tmp_path):
    doc = {**SMALL, "traffic": _EXPLICIT,
           "qos": {"default": {"queue_capacity_bytes": 30_000, "shaper_rate_Bps": 10**8},
                   "tiers": {"kernel": {"num_classes": 4}, "access": {"default_class": 1}}}}

    def load(where, body):
        (tmp_path / where).write_text(yaml.safe_dump(body, sort_keys=False))
        return load_scenario(str(tmp_path / where))

    cfg, shuffled = load("a.yaml", doc), load("b.yaml", _reversed_keys(doc))
    assert dump_yaml(cfg) != dump_yaml(shuffled)  # the order reaches the loaded config
    assert scenario_identity(cfg) == scenario_identity(shuffled)


def test_identity_follows_value_types_and_flow_order():
    def ident(traffic):
        return scenario_identity(load_scenario(None, {**SMALL, "traffic": traffic}))

    assert ident({"ds_probs": {0: 1}}) != ident({"ds_probs": {0: 1.0}})
    assert ident(_EXPLICIT) != ident({**_EXPLICIT, "flows": _EXPLICIT["flows"][::-1]})


def test_identity_is_the_name_and_twelve_hex_digits():
    assert re.fullmatch(r"small-[0-9a-f]{12}", scenario_identity(load_scenario(None, SMALL)))


@pytest.mark.parametrize("overrides", [
    {},
    {**SMALL, "traffic": {"pattern": "explicit", "ds_probs": {46: 0.5, 26: 0.0, 0: 0.5},
                          "flows": [{"src": 3, "dst": 0, "rate_pps": 20_000, "ds": 46},
                                    {"src": 4, "dst": 1, "rate_pps": 20_000}]}},
], ids=["defaults", "explicit-flows"])
def test_dump_yaml_writes_what_safe_dump_writes(overrides):
    """effective_config.yaml depends on these bytes."""
    cfg = load_scenario(None, overrides)
    assert dump_yaml(cfg) == yaml.safe_dump(cfg, sort_keys=False)


def test_per_tier_qos_overrides():
    cfg = load_scenario(None, {
        "qos": {
            "default": {"queue_capacity_bytes": 10_000},
            "tiers": {"kernel": {"shaper_rate_Bps": 999}},
        },
    })
    profiles = build_profiles(cfg)
    assert profiles[NodeTier.ACCESS].queues[0].capacity_bytes == 10_000
    assert profiles[NodeTier.ACCESS].shaper.rate_Bps == 1_250_000_000
    assert profiles[NodeTier.KERNEL].shaper.rate_Bps == 999
    assert profiles[NodeTier.KERNEL].queues[0].capacity_bytes == 10_000


def test_a_mapping_value_replaces_the_default_whole():
    # ds_probs is one value, not a block: it does not merge into the default
    cfg = load_scenario(None, {"traffic": {"ds_probs": {46: 1.0}}})
    assert cfg["traffic"]["ds_probs"] == {46: 1.0}
    # a tier's classifier replaces qos.default's, so DS 46 there falls to
    # the default class
    cfg = load_scenario(None, {"qos": {"tiers": {"kernel": {"classifier": {0: 0}}}}})
    profiles = build_profiles(cfg)
    assert profiles[NodeTier.KERNEL].classes[46] == 2
    assert profiles[NodeTier.KERNEL].classes[0] == 0
    assert profiles[NodeTier.ACCESS].classes[46] == 0


@pytest.mark.parametrize("num_classes", [1, 2])
def test_a_tier_of_one_or_two_classes_loads_with_the_default_classifier(num_classes):
    cfg = load_scenario(None, {"qos": {"default": {"num_classes": num_classes}}})
    profiles = build_profiles(cfg)
    assert all(p.num_classes == num_classes for p in profiles.values())
    assert profiles[NodeTier.ACCESS].classes[0] == num_classes - 1


def test_a_tier_red_block_merges_into_the_default_color_by_color():
    cfg = load_scenario(None, {"qos": {
        "default": {"red": {"green": [100, 200, 0.5]}},
        "tiers": {"kernel": {"red": {"yellow": [300, 400, 0.25]}}},
    }})
    row = build_profiles(cfg)[NodeTier.KERNEL].red[0]
    assert row[Color.GREEN].params == RedParams(100, 200, 0.5)
    assert row[Color.YELLOW].params == RedParams(300, 400, 0.25)


def _parameters(profile):
    """Every parameter of a profile, read through its elements."""
    return (profile.classes,
            (profile.shaper.capacity_bytes, profile.shaper.rate_Bps),
            [q.capacity_bytes for q in profile.queues], [m.params for m in profile.srtcm],
            [[r.params for r in row] for row in profile.red], profile.initial)


def test_empty_qos_block_gives_the_profile_defaults():
    cfg = load_scenario(None, {"qos": {"default": {}, "tiers": {}}})
    want = QosProfile()
    for tier, got in build_profiles(cfg).items():
        assert got.num_classes == want.num_classes, tier
        assert _parameters(got) == _parameters(want), tier


def test_explicit_red_and_srtcm_blocks():
    cfg = load_scenario(None, {
        "qos": {"default": {
            "num_classes": 2,
            "classifier": {46: 0},
            "default_class": 1,
            "srtcm": [
                {"cir_Bps": 1000, "cbs_bytes": 2000, "ebs_bytes": 3000},
                {"cir_Bps": 1000, "cbs_bytes": 2000, "ebs_bytes": 3000},
            ],
            "red": {"green": [100, 200, 0.5]},
        }},
    })
    prof = build_profiles(cfg)[NodeTier.ACCESS]
    assert prof.num_classes == 2
    assert prof.srtcm[0].params.cbs_bytes == 2000
    # the red row applies to every class
    for row in prof.red:
        assert row[Color.GREEN].params.min_th_bytes == 100
        assert row[Color.GREEN].params.max_p == 0.5
        # unspecified colors fall back to the built-in per-color defaults
        assert row[Color.RED].params.max_p == 0.5
        assert row[Color.YELLOW].params.max_p == 0.1


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
        "traffic": {"pattern": "explicit", "ds_probs": {46: 0.5, 26: 0.0, 0: 0.5},
                    "flows": [{"src": 3, "dst": 0, "rate_pps": 20_000, "ds": 46},
                              {"src": 4, "dst": 1, "rate_pps": 20_000}]},
        "qos": {"default": {"queue_capacity_bytes": 30_000},
                "tiers": {"kernel": {
                    "srtcm": [{"cir_Bps": 10**6, "cbs_bytes": 4_000, "ebs_bytes": 8_000}] * 3,
                    "red": {"green": [1_000, 20_000, 0.1, 0.01]}}}},
        "run": {"end_ns": 200_000, "mode": MODE_OPTIMISTIC, "partitions": {"k": 2},
                "knobs": {"gvt_interval": 64, "batch_size": 3}},
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


def test_topology_file_with_synthetic_is_a_config_error(tmp_path):
    """A topology file fixes the topology: synthetic settings given as well
    would be ignored, and the loaded config holds none."""
    topo = build_topology(load_scenario(None, SMALL))
    path = tmp_path / "t.yaml"
    save_topology(topo, str(path))
    cfg = load_scenario(None, {"topology": {"path": str(path)}})
    assert cfg["topology"] == {"path": str(path)}
    assert build_topology(cfg).num_nodes == topo.num_nodes
    doc = tmp_path / "s.yaml"
    doc.write_text(yaml.safe_dump({"topology": {"path": "t.yaml"}}))
    message = ("topology.synthetic: cannot be given with topology.path, "
               "which fixes the topology")
    with pytest.raises(ScenarioError, match=rf"^{re.escape(message)}$"):
        load_scenario(None, {"topology": {"path": str(path), **SMALL["topology"]}})
    # the file gives the path, an override the synthetic settings
    with pytest.raises(ScenarioError, match=rf"^{re.escape(message)}$"):
        load_scenario(str(doc), {"topology": SMALL["topology"]})


def test_input_paths_resolve_against_the_file_that_gives_them(tmp_path, monkeypatch):
    """A relative path in a scenario file names a file next to it; one
    given by an override names a file in the working directory."""
    (tmp_path / "sub").mkdir()
    doc = tmp_path / "sub" / "s.yaml"
    doc.write_text(yaml.safe_dump({
        "topology": {"path": "t.yaml"}, "run": {"partitions": {"plan_path": "p.txt"}}}))
    monkeypatch.chdir(tmp_path)
    cfg = load_scenario(str(doc.relative_to(tmp_path)))
    assert cfg["topology"]["path"] == str(tmp_path / "sub" / "t.yaml")
    assert cfg["run"]["partitions"] == {"plan_path": str(tmp_path / "sub" / "p.txt")}
    cfg = load_scenario(str(doc), {"run": {"partitions": {"plan_path": "p.txt"}}})
    assert cfg["topology"]["path"] == str(tmp_path / "sub" / "t.yaml")
    assert cfg["run"]["partitions"] == {"plan_path": str(tmp_path / "p.txt")}
    cfg = load_scenario(None, {"topology": {"path": "t.yaml"}})
    assert cfg["topology"] == {"path": str(tmp_path / "t.yaml")}


def test_build_plan_weights_follow_the_routing_metric(tmp_path):
    # line 0-1-2-3-4-5 plus a 100 us shortcut 0-5: hop routes between 0 and
    # 5 take the shortcut, latency routes take the line
    links = [Link(0, 5, 1, 1, 25_000_000_000, 100_000)]
    for i in range(5):
        links.append(Link(i, i + 1, 0 if i == 0 else 1, 0, 25_000_000_000, 1_000))
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

    # vertex+edge weighs both the nodes and the links on the latency routes
    routes = compute_routes(topo, RouteMetric.LATENCY)
    want = partition_vertex_plus_edge(
        topo, 2, derive_vertex_throughput_weights(flows, routes, topo),
        derive_edge_throughput_weights(flows, routes, topo))
    cfg["run"]["partitions"]["strategy"] = "vertex+edge"
    assert build_plan(cfg, build_topology(cfg)) == want

"""Command-line interface: subcommands, artifacts, exit codes."""

import csv
import json
import re

import pytest
import yaml

from dsnetsim.cli import EXIT_CONFIG, EXIT_OK, main
from dsnetsim.topology import load_topology
from dsnetsim.scenario import ScenarioError, build_topology, build_traffic_spec, load_scenario
from dsnetsim.traffic import expected_generated

SMALL = {
    "name": "cli-small",
    "topology": {"synthetic": {"n_access": 4, "n_mixed": 2, "n_kernel": 1, "seed": 0}},
    "run": {"end_ns": 400_000},
}


def _write_cfg(tmp_path, extra=None):
    cfg = dict(SMALL)
    if extra:
        cfg = {**cfg, **extra}
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return str(path)


def _summary(path):
    out = {}
    for line in open(path):
        key, _, value = line.partition(" = ")
        out[key] = value.strip()
    return out


def test_run_sequential_writes_summary_matching_traffic_oracle(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    out = tmp_path / "out"
    rc = main(["run", "--config", cfg_path, "--mode", "sequential",
               "--out", str(out)])
    assert rc == EXIT_OK
    summary = _summary(out / "summary.txt")
    cfg = load_scenario(cfg_path)
    topo = build_topology(cfg)
    spec = build_traffic_spec(cfg)
    assert int(summary["generated"]) == expected_generated(spec, topo, 400_000)


def test_run_optimistic_k1_record_file_identical_to_sequential(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    a, b = tmp_path / "seq", tmp_path / "opt"
    assert main(["run", "--config", cfg_path, "--mode", "sequential",
                 "--out", str(a)]) == EXIT_OK
    assert main(["run", "--config", cfg_path, "--mode", "optimistic", "-k", "1",
                 "--out", str(b)]) == EXIT_OK
    assert (a / "records.csv").read_bytes() == (b / "records.csv").read_bytes()


def test_run_prints_efficiency(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    assert main(["run", "--config", cfg_path, "--mode", "optimistic", "-k", "2"]) == EXIT_OK
    line = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("committed_events=")][0]
    fields = dict(f.split("=") for f in line.split())
    committed = int(fields["committed_events"])
    rolled_back = int(fields["rolled_back_events"])
    assert rolled_back > 0
    assert fields["efficiency"] == f"{committed / (committed + rolled_back):.4f}"


def test_run_baseline_refill_event_count(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    seq_out = tmp_path / "seq"
    base_out = tmp_path / "base"
    assert main(["run", "--config", cfg_path, "--mode", "sequential",
                 "--out", str(seq_out)]) == EXIT_OK
    assert main(["run", "--config", cfg_path, "--mode", "baseline",
                 "--token-interval-ns", "10000", "--out", str(base_out)]) == EXIT_OK
    seq_events = int(_summary(seq_out / "summary.txt")["committed_events"])
    base_events = int(_summary(base_out / "summary.txt")["committed_events"])
    topo = build_topology(load_scenario(cfg_path))
    # one REFILL chain per connected directed port
    expected_refills = topo.num_links * (400_000 // 10_000)
    assert base_events == seq_events + expected_refills


def test_partition_command_exports_plan(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    plan_path = tmp_path / "plan.txt"
    rc = main(["partition", "--config", cfg_path, "-k", "2",
               "--strategy", "vertex-throughput", "--plan-out", str(plan_path)])
    assert rc == EXIT_OK
    lines = plan_path.read_text().splitlines()
    assert lines[0] == "k=2"
    assert len(lines) == 1 + 7  # one entry per node
    assert set(lines[1:]) <= {"0", "1"}


def test_partition_k1_plan_is_all_zeros(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    plan_path = tmp_path / "plan.txt"
    assert main(["partition", "--config", cfg_path, "-k", "1",
                 "--plan-out", str(plan_path)]) == EXIT_OK
    lines = plan_path.read_text().splitlines()
    assert lines == ["k=1"] + ["0"] * 7


def test_partition_vertex_event_requires_profiling_opt_in(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    plan_path = tmp_path / "plan.txt"
    rc = main(["partition", "--config", cfg_path, "-k", "2",
               "--strategy", "vertex-event", "--plan-out", str(plan_path)])
    assert rc == EXIT_CONFIG
    assert "profiling" in capsys.readouterr().err
    # with the opt-in flag it runs the profiling pass and succeeds
    rc = main(["partition", "--config", cfg_path, "-k", "2",
               "--strategy", "vertex-event", "--plan-out", str(plan_path),
               "--allow-profiling"])
    assert rc == EXIT_OK
    assert plan_path.exists()


def test_run_with_imported_plan(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    plan_path = tmp_path / "plan.txt"
    assert main(["partition", "--config", cfg_path, "-k", "2",
                 "--plan-out", str(plan_path)]) == EXIT_OK
    out = tmp_path / "opt"
    rc = main(["run", "--config", cfg_path, "--mode", "optimistic",
               "--plan", str(plan_path), "--runtime", "stepped",
               "--out", str(out)])
    assert rc == EXIT_OK
    seq_out = tmp_path / "seq"
    assert main(["run", "--config", cfg_path, "--mode", "sequential",
                 "--out", str(seq_out)]) == EXIT_OK
    assert (out / "records.csv").read_bytes() == \
        (seq_out / "records.csv").read_bytes()


def test_sweep_token_interval_with_repetitions(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    out = tmp_path / "sweep"
    rc = main(["sweep", "--config", cfg_path, "--variable", "token_interval",
               "--values", "10000,100000", "--repetitions", "2",
               "--out", str(out)])
    assert rc == EXIT_OK
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2 * 2 + 2  # runs plus one mean row per value
    means = [r for r in rows if r["rep"] == "mean"]
    assert len(means) == 2
    for value in ("10000", "100000"):
        group = [r for r in rows if r["value"] == value and r["rep"] != "mean"]
        mean = next(r for r in means if r["value"] == value)
        got = sum(float(r["committed_events"]) for r in group) / len(group)
        assert float(mean["committed_events"]) == got


def test_topo_gen_and_convert_round_trip(tmp_path):
    gen_path = tmp_path / "topo.yaml"
    assert main(["topo-gen", "--access", "4", "--mixed", "2", "--kernel", "1",
                 "--seed", "3", "--out-file", str(gen_path)]) == EXIT_OK
    topo = load_topology(str(gen_path))
    assert topo.num_nodes == 7
    conv_path = tmp_path / "converted.yaml"
    assert main(["topo-convert", "--in-file", str(gen_path),
                 "--out-file", str(conv_path)]) == EXIT_OK
    # the native format itself is an accepted input layout
    assert load_topology(str(conv_path)).num_nodes == 7


def test_config_errors_exit_with_code_1(tmp_path):
    assert main(["run", "--config", str(tmp_path / "missing.yaml")]) == EXIT_CONFIG
    cfg_path = _write_cfg(tmp_path)
    # baseline without a token interval is a config error
    assert main(["run", "--config", cfg_path, "--mode", "baseline"]) == EXIT_CONFIG


def test_unknown_knob_is_a_config_error(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, {"run": {
        **SMALL["run"], "mode": "optimistic", "knobs": {"gvt_intervall": 64}}})
    assert main(["run", "--config", cfg_path]) == EXIT_CONFIG
    assert "run.knobs.gvt_intervall" in capsys.readouterr().err


def test_unknown_runtime_is_a_config_error(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, {"run": {
        **SMALL["run"], "mode": "optimistic", "knobs": {"runtime": "threads"}}})
    assert main(["run", "--config", cfg_path]) == EXIT_CONFIG
    assert "run.knobs.runtime" in capsys.readouterr().err


@pytest.mark.parametrize("block, key", [
    ({"default": {"red": {"green": [200, 100, 0.5]}}}, "qos.default"),
    ({"tiers": {"kernel": {"red": {"green": [200, 100, 0.5]}}}}, "qos.tiers.kernel"),
    ({"default": {"shaper_rate_bsp": 1000}}, "qos.default.shaper_rate_bsp"),
    ({"tiers": {"mixed": {"shaper_rate_bsp": 1000}}}, "qos.tiers.mixed.shaper_rate_bsp"),
    ({"tiers": {"core": {"shaper_rate_bps": 1000}}}, "qos.tiers.core"),
    ({"default": {"red": {"gren": [100, 200, 0.5]}}}, "qos.default.red.gren"),
], ids=["bad-red-default", "bad-red-tier", "unknown-key-default", "unknown-key-tier",
        "unknown-tier", "unknown-color"])
def test_bad_qos_block_is_a_config_error(tmp_path, capsys, block, key):
    cfg_path = _write_cfg(tmp_path, {"qos": block})
    assert main(["run", "--config", cfg_path]) == EXIT_CONFIG
    assert f"{key}:" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("gvt_interval", "64"),
    ("gvt_interval", 0),
    ("batch_size", 0),
    ("batch_size", 2.5),
    ("jitter", -1),
    ("schedule_seed", "3"),
    ("watchdog_s", "60"),
    ("watchdog_s", -1),
])
def test_bad_knob_value_is_a_config_error(tmp_path, capsys, key, value):
    cfg_path = _write_cfg(tmp_path, {"run": {
        **SMALL["run"], "mode": "optimistic", "knobs": {key: value}}})
    assert main(["run", "--config", cfg_path]) == EXIT_CONFIG
    assert f"run.knobs.{key}:" in capsys.readouterr().err


def test_bad_partition_strategy_is_a_config_error(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, {"run": {
        **SMALL["run"], "mode": "optimistic",
        "partitions": {"k": 2, "strategy": "vertex-thruput"}}})
    assert main(["run", "--config", cfg_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "run.partitions.strategy:" in err
    assert "vertex-throughput" in err and "no-weights" in err


@pytest.mark.parametrize("doc, key", [
    ({"traffic": {"rate_ps": 10}}, "traffic.rate_ps"),
    ({"run": {**SMALL["run"], "partitons": {"k": 2}}}, "run.partitons"),
    ({"run": {**SMALL["run"], "partitions": {"k": 2, "stratgy": "edge"}}},
     "run.partitions.stratgy"),
    ({"traffic": {"pattern": "explicit",
                  "flows": [{"src": 0, "dst": 5, "rate_pps": 10},
                            {"src": 0, "dst": 5, "rate_ps": 1000}]}},
     "traffic.flows[1].rate_ps"),
    ({"rn": {"end_ns": 100_000}}, "rn"),
    ({"topology": {**SMALL["topology"], "pth": "x"}}, "topology.pth"),
    ({"topology": {"synthetic": {**SMALL["topology"]["synthetic"], "n_acess": 4}}},
     "topology.synthetic.n_acess"),
    ({"routing": {"metrc": "latency"}}, "routing.metrc"),
    ({"qos": {"defualt": {}}}, "qos.defualt"),
    ({"run": {**SMALL["run"], "knobs": {"debug_audit": True}}}, "run.knobs.debug_audit"),
], ids=["traffic", "run", "run-partitions", "traffic-flows", "top-level", "topology",
        "topology-synthetic", "routing", "qos", "run-knobs"])
def test_unknown_key_is_a_config_error(tmp_path, capsys, doc, key):
    cfg_path = _write_cfg(tmp_path, doc)
    assert main(["run", "--config", cfg_path]) == EXIT_CONFIG
    assert f"{key}: unknown key" in capsys.readouterr().err


def test_flow_without_a_rate_is_a_config_error(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, {"traffic": {
        "pattern": "explicit", "flows": [{"src": 0, "dst": 5}]}})
    assert main(["run", "--config", cfg_path]) == EXIT_CONFIG
    assert "traffic.flows[0].rate_pps: missing" in capsys.readouterr().err


@pytest.mark.parametrize("doc, key", [
    ({"run": {"end_ns": "abc"}}, "run.end_ns"),
    ({"run": {**SMALL["run"], "mode": "optimistic", "partitions": {"k": "2"}}},
     "run.partitions.k"),
    ({"traffic": {"pattern": "explicti"}}, "traffic.pattern"),
    ({"traffic": {"packet_size": 0}}, "traffic.packet_size"),
    ({"traffic": {"pattern": "explicit",
                  "flows": [{"src": 0, "dst": 5, "rate_pps": 0}]}},
     "traffic.flows[0].rate_pps"),
    ({"traffic": {"ds_probs": {46: 0.5, 26: 0.3, 0: 0.1}}}, "traffic"),
    ({"qos": {"default": {"srtcm": [
        {"cir_bps": 1000, "cbs_bytes": 2000, "ebs_bytes": 3000, "bogus": 1}] * 3}}},
     "qos.default.srtcm[0].bogus"),
    ({"qos": {"default": {"srtcm": [{"cir_bps": 1000, "cbs_bytes": 2000}] * 3}}},
     "qos.default.srtcm[0].ebs_bytes"),
], ids=["end-ns", "k", "pattern", "packet-size", "flow-rate", "ds-probs-sum",
        "srtcm-entry", "srtcm-entry-missing-key"])
def test_bad_value_is_a_config_error_at_load_time(tmp_path, capsys, doc, key):
    cfg_path = _write_cfg(tmp_path, doc)
    with pytest.raises(ScenarioError, match=rf"^{re.escape(key)}: "):
        load_scenario(cfg_path)
    assert main(["run", "--config", cfg_path]) == EXIT_CONFIG
    assert f"{key}:" in capsys.readouterr().err


@pytest.mark.parametrize("n", [0, 1, 4])
def test_srtcm_list_needs_one_entry_per_class(tmp_path, capsys, n):
    entry = {"cir_bps": 1000, "cbs_bytes": 2000, "ebs_bytes": 3000}
    cfg_path = _write_cfg(tmp_path, {"qos": {"default": {"srtcm": [entry] * n}}})
    message = "qos.default: srtcm list must have one entry per class"
    with pytest.raises(ScenarioError, match=rf"^{re.escape(message)}$"):
        load_scenario(cfg_path)
    assert main(["run", "--config", cfg_path]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flow, message", [
    ({"src": 0, "dst": 999, "rate_pps": 10}, "flows[0]: node 999 is not in the topology"),
    ({"src": 5, "dst": 5, "rate_pps": 10}, "has src == dst"),
], ids=["unknown-node", "src-is-dst"])
def test_bad_flow_endpoint_is_a_config_error(tmp_path, capsys, flow, message):
    cfg_path = _write_cfg(tmp_path, {"traffic": {"pattern": "explicit", "flows": [flow]}})
    assert main(["run", "--config", cfg_path]) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv, key", [
    (["run", "--mode", "bogus"], "run.mode"),
    (["run", "--end-ns", "abc"], "run.end_ns"),
    (["run", "--end-ns", "[1"], "run.end_ns"),
    (["run", "--runtime", "fibers"], "run.knobs.runtime"),
    (["run", "--strategy", "foo"], "run.partitions.strategy"),
    (["partition", "-k", "0", "--plan-out", "plan.txt"], "run.partitions.k"),
    (["sweep", "--variable", "k", "--values", "0"], "run.partitions.k"),
], ids=["mode", "end-ns", "end-ns-not-yaml", "runtime", "strategy", "partition-k", "sweep-k"])
def test_bad_flag_value_is_a_config_error(tmp_path, capsys, argv, key):
    cfg_path = _write_cfg(tmp_path)
    assert main(argv + ["--config", cfg_path]) == EXIT_CONFIG
    assert f"{key}:" in capsys.readouterr().err


@pytest.mark.parametrize("qos, key", [
    ({}, "qos.default.shaper_burst_bytes"),
    ({"tiers": {"kernel": {"shaper_burst_bytes": 1500}}}, "qos.tiers.kernel.shaper_burst_bytes"),
], ids=["default", "tier"])
def test_packet_larger_than_shaper_burst_is_a_config_error(tmp_path, capsys, qos, key):
    size = 20_000 if not qos else 2_000
    cfg_path = _write_cfg(tmp_path, {"traffic": {"packet_size": size}, "qos": qos})
    assert main(["run", "--config", cfg_path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "traffic.packet_size:" in err and key in err


@pytest.mark.parametrize("doc, message", [
    ({"nodes": [{"id": 0}, {"id": 1}], "links": [{"src": 0, "dst": 1}, {"src": 1, "dst": 1}]},
     "self-loop at node 1"),
    ({"nodes": [{"id": 0}, {"id": 1}, {"id": 2}], "links": [{"src": 0, "dst": 1}]},
     "graph is disconnected"),
    ({"nodes": [{"id": 0}, {"id": 1}], "links": [{"src": 0, "dst": 7}]}, "unknown node 7"),
    ({"nodes": [{"id": 0}, {"id": 0}], "links": [{"src": 0, "dst": 0}]}, "duplicate node id"),
    ({"nodes": [0, 1], "links": [{"src": 0, "dst": 1}]}, "nodes[0] must be a mapping"),
    ({"nodes": [{"id": 0}, {"id": 1}], "edges": [{"src": 0, "dst": 1}, [0, 1]]},
     "edges[1] must be a mapping"),
], ids=["self-loop", "unconnected-node", "unknown-node", "duplicate-id", "non-mapping-node",
        "non-mapping-link"])
def test_topo_convert_rejects_an_invalid_topology(tmp_path, capsys, doc, message):
    dump = tmp_path / "dump.json"
    dump.write_text(json.dumps(doc))
    out = tmp_path / "native.yaml"
    assert main(["topo-convert", "--in-file", str(dump), "--out-file", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "topo-convert"])
def test_broken_yaml_is_a_config_error(tmp_path, capsys, command):
    broken = tmp_path / "broken.yaml"
    broken.write_text("run: {end_ns: [1\n")
    out = tmp_path / "native.yaml"
    argv = (["run", "--config", str(broken)] if command == "run"
            else ["topo-convert", "--in-file", str(broken), "--out-file", str(out)])
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot parse") and str(broken) in err
    assert not out.exists()

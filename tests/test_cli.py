"""Command-line interface: subcommands, artifacts, exit codes."""

import csv
import functools
import json
import os
import re

import pytest
import yaml

from dsnetsim import cli, kernel, scenario
from dsnetsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, RUN_FLAGS, main
from dsnetsim.topology import load_topology, save_topology
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


def _efficiency_fields(capsys) -> dict:
    line = [ln for ln in capsys.readouterr().out.splitlines()
            if ln.startswith("committed_events=")][0]
    return dict(f.split("=") for f in line.split())


def test_run_prints_efficiency(tmp_path, capsys, monkeypatch):
    # lift the lookahead window, so that the run rolls back
    monkeypatch.setattr(scenario, "run_optimistic",
                        functools.partial(kernel.run_optimistic, unbounded=True))
    cfg_path = _write_cfg(tmp_path)
    assert main(["run", "--config", cfg_path, "--mode", "optimistic", "-k", "2"]) == EXIT_OK
    fields = _efficiency_fields(capsys)
    committed = int(fields["committed_events"])
    rolled_back = int(fields["rolled_back_events"])
    assert rolled_back > 0
    assert fields["efficiency"] == f"{committed / (committed + rolled_back):.4f}"


def test_run_on_the_default_window_rolls_nothing_back(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path)
    assert main(["run", "--config", cfg_path, "--mode", "optimistic", "-k", "2"]) == EXIT_OK
    fields = _efficiency_fields(capsys)
    assert int(fields["committed_events"]) > 0
    assert (fields["rolled_back_events"], fields["efficiency"]) == ("0", "1.0000")


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


def test_partition_vertex_event_runs_its_own_profiling(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    plan_path = tmp_path / "plan.txt"
    rc = main(["partition", "--config", cfg_path, "-k", "2",
               "--strategy", "vertex-event", "--plan-out", str(plan_path)])
    assert rc == EXIT_OK
    assert plan_path.exists()


def test_run_with_imported_plan(tmp_path):
    cfg_path = _write_cfg(tmp_path)
    plan_path = tmp_path / "plan.txt"
    assert main(["partition", "--config", cfg_path, "-k", "2",
                 "--plan-out", str(plan_path)]) == EXIT_OK
    out = tmp_path / "opt"
    rc = main(["run", "--config", cfg_path, "--mode", "optimistic",
               "--plan", str(plan_path), "--out", str(out)])
    assert rc == EXIT_OK
    seq_out = tmp_path / "seq"
    assert main(["run", "--config", cfg_path, "--mode", "sequential",
                 "--out", str(seq_out)]) == EXIT_OK
    assert (out / "records.csv").read_bytes() == \
        (seq_out / "records.csv").read_bytes()
    # the plan fixes the partitioning, so the echo holds no planner setting
    # and loads again, repeating the run
    echo = out / "effective_config.yaml"
    assert yaml.safe_load(echo.read_text())["run"]["partitions"] == {"plan_path": str(plan_path)}
    again = tmp_path / "again"
    assert main(["run", "--config", str(echo), "--out", str(again)]) == EXIT_OK
    assert (again / "records.csv").read_bytes() == (out / "records.csv").read_bytes()


@pytest.mark.parametrize("flags, topology_file", [
    (["--mode", "sequential"], False),
    (["--mode", "baseline", "--token-interval-ns", "10000"], False),
    (["--mode", "optimistic", "-k", "2"], False),
    (["--mode", "optimistic", "--plan", "p.txt"], False),
    (["--mode", "sequential"], True),
], ids=["sequential", "baseline", "optimistic-k2", "optimistic-plan", "topology-file"])
def test_every_run_shape_echo_reloads_from_another_directory(tmp_path, monkeypatch,
                                                             flags, topology_file):
    """effective_config.yaml repeats its run with byte-identical records
    from any working directory: the echo names its input files by absolute
    path, resolved against the scenario file or, for a flag, against the
    working directory of the first run."""
    scen = tmp_path / "scen"
    scen.mkdir()
    doc = dict(SMALL)
    if topology_file:  # named relative to the scenario file, which sits next to it
        save_topology(build_topology(load_scenario(None, SMALL)), str(scen / "t.yaml"))
        doc["topology"] = {"path": "t.yaml"}
    (scen / "scenario.yaml").write_text(yaml.safe_dump(doc))
    work = tmp_path / "work"
    work.mkdir()
    monkeypatch.chdir(work)
    cfg_path = os.path.join("..", "scen", "scenario.yaml")
    if "--plan" in flags:
        assert main(["partition", "--config", cfg_path, "-k", "2", "--plan-out", "p.txt"]) == EXIT_OK
    assert main(["run", "--config", cfg_path, *flags, "--out", "o1"]) == EXIT_OK
    monkeypatch.chdir(work / "o1")
    assert main(["run", "--config", "effective_config.yaml", "--out", "../o2"]) == EXIT_OK
    assert (work / "o2" / "records.csv").read_bytes() == (work / "o1" / "records.csv").read_bytes()


def test_watchdog_abort_is_a_runtime_error(tmp_path, capsys, monkeypatch):
    # only an unbounded library run can stall; the CLI has no exit code of its own for it
    def stall(*args):
        raise kernel.WatchdogError("no GVT progress past 0 ns for 60.0s")
    monkeypatch.setattr(cli, "run_scenario", stall)
    assert main(["run", "--config", _write_cfg(tmp_path)]) == EXIT_RUNTIME
    assert "runtime error: no GVT progress past 0 ns" in capsys.readouterr().err


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


@pytest.mark.parametrize("out_flag", [True, False], ids=["out-flag", "output-dir-key"])
def test_sweep_writes_only_its_table_to_the_output_directory(tmp_path, monkeypatch, out_flag):
    # --out wins over run.output_dir; the runs themselves write nothing
    monkeypatch.chdir(tmp_path)
    cfg_path = _write_cfg(tmp_path, {"run": {"end_ns": 100_000, "output_dir": "keyed"}})
    argv = ["sweep", "--config", cfg_path, "--variable", "k", "--values", "1,2"]
    assert main(argv + (["--out", "flagged"] if out_flag else [])) == EXIT_OK
    out = "flagged" if out_flag else "keyed"
    assert sorted(p.name for p in tmp_path.iterdir()) == [out, "scenario.yaml"]
    assert [p.name for p in (tmp_path / out).iterdir()] == ["sweep.csv"]


def test_sweep_loads_every_config_before_the_first_run(tmp_path, capsys, monkeypatch):
    runs = []
    monkeypatch.setattr(cli, "run_scenario", lambda cfg, *args: runs.append(cfg))
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", _write_cfg(tmp_path), "--variable", "k",
                 "--values", "2,0", "--out", str(out)]) == EXIT_CONFIG
    assert "run.partitions.k:" in capsys.readouterr().err
    assert runs == [] and not out.exists()


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
    ({"tiers": {"core": {"shaper_rate_Bps": 1000}}}, "qos.tiers.core"),
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
    # no longer a scenario key, so every value is refused
    ("watchdog_s", "60"),
    ("watchdog_s", -1),
    ("watchdog_s", 0),
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
    # Knobs fields that act only on unbounded runs, which no scenario makes
    ({"run": {**SMALL["run"], "knobs": {"jitter": 2}}}, "run.knobs.jitter"),
    ({"run": {**SMALL["run"], "knobs": {"schedule_seed": 3}}}, "run.knobs.schedule_seed"),
    # a windowed run cannot stall, so no scenario sets the watchdog
    ({"run": {**SMALL["run"], "knobs": {"watchdog_s": 60}}}, "run.knobs.watchdog_s"),
    # byte rates are named *_Bps; bits/s keep *_bps (bandwidth_bps)
    ({"qos": {"default": {"shaper_rate_bps": 1000}}}, "qos.default.shaper_rate_bps"),
], ids=["traffic", "run", "run-partitions", "traffic-flows", "top-level", "topology",
        "topology-synthetic", "routing", "qos", "run-knobs", "run-knobs-jitter",
        "run-knobs-schedule-seed", "run-knobs-watchdog-s", "qos-byte-rate-unit"])
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
    # a packet interval that rounds to 0 ns
    ({"traffic": {"rate_pps": 2_000_000_000}}, "traffic.rate_pps"),
    ({"traffic": {"pattern": "explicit",
                  "flows": [{"src": 0, "dst": 5, "rate_pps": 2_000_000_000}]}},
     "traffic.flows[0].rate_pps"),
    ({"traffic": {"ds_probs": {46: 0.5, 26: 0.3, 0: 0.1}}}, "traffic"),
    # the access_to_core pattern makes its own flows
    ({"traffic": {"flows": [{"src": 10, "dst": 0, "rate_pps": 1000}]}}, "traffic.flows"),
    ({"qos": {"default": {"srtcm": [
        {"cir_Bps": 1000, "cbs_bytes": 2000, "ebs_bytes": 3000, "bogus": 1}] * 3}}},
     "qos.default.srtcm[0].bogus"),
    ({"qos": {"default": {"srtcm": [{"cir_Bps": 1000, "cbs_bytes": 2000}] * 3}}},
     "qos.default.srtcm[0].ebs_bytes"),
    ({"qos": {"default": {"srtcm": [
        {"cir_bps": 1000, "cbs_bytes": 2000, "ebs_bytes": 3000}] * 3}}},
     "qos.default.srtcm[0].cir_bps"),
], ids=["end-ns", "k", "pattern", "packet-size", "flow-rate", "rate-0-ns-interval",
        "flow-rate-0-ns-interval", "ds-probs-sum", "flows-without-explicit-pattern",
        "srtcm-entry", "srtcm-entry-missing-key", "srtcm-entry-byte-rate-unit"])
def test_bad_value_is_a_config_error_at_load_time(tmp_path, capsys, doc, key):
    cfg_path = _write_cfg(tmp_path, doc)
    with pytest.raises(ScenarioError, match=rf"^{re.escape(key)}: "):
        load_scenario(cfg_path)
    assert main(["run", "--config", cfg_path]) == EXIT_CONFIG
    assert f"{key}:" in capsys.readouterr().err


@pytest.mark.parametrize("n", [0, 1, 4])
def test_srtcm_list_needs_one_entry_per_class(tmp_path, capsys, n):
    entry = {"cir_Bps": 1000, "cbs_bytes": 2000, "ebs_bytes": 3000}
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
    (["run", "--strategy", "foo"], "run.partitions.strategy"),
    (["run", "--strategy", "edge"], "run.partitions.strategy"),
    (["partition", "-k", "0", "--plan-out", "plan.txt"], "run.partitions.k"),
    (["sweep", "--variable", "k", "--values", "0"], "run.partitions.k"),
    (["sweep", "--variable", "k", "--values", "2", "--repetitions", "0"], "--repetitions"),
    # a plan file fixes k and the strategy
    (["run", "--mode", "optimistic", "--plan", "p2.txt", "-k", "4", "--strategy", "vertex-event"],
     "run.partitions.k"),
    (["sweep", "--variable", "k", "--values", "2,4", "--plan", "p2.txt"], "run.partitions.k"),
], ids=["mode", "end-ns", "end-ns-not-yaml", "strategy", "strategy-edge",
        "partition-k", "sweep-k", "sweep-repetitions", "plan-with-k", "sweep-k-with-plan"])
def test_bad_flag_value_is_a_config_error(tmp_path, capsys, argv, key):
    cfg_path = _write_cfg(tmp_path)
    assert main(argv + ["--config", cfg_path]) == EXIT_CONFIG
    assert f"{key}:" in capsys.readouterr().err


@pytest.mark.parametrize("doc, flags, key", [
    ({"run": None}, [], "run"),
    ({"run": None}, ["--end-ns", "1000"], "run"),
    ({"run": {"partitions": None}}, ["-k", "2"], "run.partitions"),
], ids=["null-block", "null-block-filled-by-a-flag", "null-sub-block-filled-by-a-flag"])
def test_null_block_in_the_file_is_a_config_error(tmp_path, capsys, doc, flags, key):
    # the file is checked before the flags are merged into it
    cfg_path = _write_cfg(tmp_path, doc)
    assert main(["run", "--config", cfg_path] + flags) == EXIT_CONFIG
    assert f"config error: {key}: expected a mapping, got None" in capsys.readouterr().err


def test_every_run_flag_sets_a_scenario_value():
    """A flag whose key left the schema would only ever give config errors."""
    for flag, key in RUN_FLAGS.items():
        *blocks, leaf = key.split(".")
        table = scenario._SCHEMA
        for block in blocks:
            table = table[block]
            assert isinstance(table, dict), f"{flag}: {block} is not a block"
        assert leaf in table and not isinstance(table[leaf], dict), \
            f"{flag}: {key} is not a scenario value"


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
    ({"nodes": {"id": 0}, "links": []}, "nodes must be a list"),
    ({"nodes": [{"id": 0}, {"id": "r1"}], "links": [{"src": 0, "dst": 1}]},
     "nodes[1].id: expected an integer, got 'r1'"),
    ({"nodes": [{"id": 0}, {"id": 1}], "links": [{"src": 0, "dst": 1, "bw": "fast"}]},
     "links[0].bw: expected an integer"),
    ({"nodes": [{"id": 0}, {"id": 1}], "links": [{"src": 0, "dst": 1, "delay_ns": 10.7}]},
     "links[0].delay_ns: expected an integer, got 10.7"),
    ({"nodes": [{"id": 0}, {"id": 1}], "links": [{"src": 0, "dst": 1, "bandwidth_bps": True}]},
     "links[0].bandwidth_bps: expected an integer, got True"),
    ({"nodes": [{"id": 0}, {"node_id": 1.0}], "links": [{"src": 0, "dst": 1}]},
     "nodes[1].node_id: expected an integer, got 1.0"),
    ({"nodes": [{"id": 0}, {"id": 1}], "links": [{"src": 0, "dst": 1, "delay_ns": "2000"}]},
     "links[0].delay_ns: expected an integer, got '2000'"),
    ({"nodes": [{"id": 0}, {"id": 1, "type": "core"}], "links": [{"src": 0, "dst": 1}]},
     "nodes[1].type: expected one of access, mixed, kernel, got 'core'"),
], ids=["self-loop", "unconnected-node", "unknown-node", "duplicate-id", "non-mapping-node",
        "non-mapping-link", "non-list-section", "named-node-id", "non-integer-bandwidth",
        "float-delay", "bool-bandwidth", "float-node-id", "string-delay", "unknown-tier"])
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


def _two_nodes(node=(), link=()):
    """A valid two-node topology document with ``node`` merged into its
    first node entry and ``link`` into its link entry."""
    return {"nodes": [{"id": 0, "tier": "access", "ports": 1, **dict(node)},
                      {"id": 1, "tier": "access", "ports": 1}],
            "links": [{"src": 0, "dst": 1, "src_port": 0, "dst_port": 0,
                       "bandwidth_bps": 1_000_000_000, **dict(link)}]}


@pytest.mark.parametrize("doc, message", [
    ({"nodes": [0, 1], "links": []}, "nodes[0] must be a mapping"),
    ({"nodes": [{"id": 0, "tier": "access", "ports": 1}], "links": [7]},
     "links[0] must be a mapping"),
    ({"nodes": 3, "links": []}, "nodes must be a list"),
    ({"nodes": [{"id": 0, "tier": "access", "ports": 1}, {"id": 1, "tier": "access"}],
      "links": []}, "nodes[1]: bad node entry"),
    ({"nodes": [{"id": 0, "tier": "access", "ports": 1}],
      "links": [{"src": 0, "dst": [1], "src_port": 0, "dst_port": 0, "bandwidth_bps": 1}]},
     "links[0]: bad link entry"),
    (_two_nodes(link={"delay": 20_000}), "links[0]: bad link entry: delay: unknown key"),
    (_two_nodes(node={"colour": "red"}), "nodes[0]: bad node entry: colour: unknown key"),
    (_two_nodes(node={"tier": "core"}),
     "nodes[0]: bad node entry: tier: expected one of access, mixed, kernel, got 'core'"),
    (_two_nodes(link={"delay_ns": 10.7}),
     "links[0]: bad link entry: delay_ns: expected an integer, got 10.7"),
    (_two_nodes(link={"delay_ns": "2000"}),
     "links[0]: bad link entry: delay_ns: expected an integer, got '2000'"),
    (_two_nodes(link={"bandwidth_bps": True}),
     "links[0]: bad link entry: bandwidth_bps: expected an integer, got True"),
], ids=["non-mapping-node", "non-mapping-link", "non-list-section", "node-missing-key",
        "non-integer-endpoint", "unknown-link-key", "unknown-node-key", "unknown-tier",
        "float-delay", "string-delay", "boolean-bandwidth"])
def test_run_rejects_an_invalid_topology_file(tmp_path, capsys, doc, message):
    topo = tmp_path / "topo.yaml"
    topo.write_text(yaml.safe_dump(doc))
    cfg_path = _write_cfg(tmp_path, {"topology": {"path": str(topo)}})
    assert main(["run", "--config", cfg_path]) == EXIT_CONFIG
    assert message in capsys.readouterr().err

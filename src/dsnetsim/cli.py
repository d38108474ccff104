"""Command-line entry point.

Subcommands: ``run``, ``sweep``, ``partition``, ``topo-gen``,
``topo-convert``. Every run flag sets one scenario key (``RUN_FLAGS``). The
output directory is ``--out``, else ``run.output_dir``. ``run`` writes its
files there, among them ``effective_config.yaml``, which ``--config``
reloads to repeat the run; ``sweep`` writes only ``sweep.csv`` (else in
``.``). Exit codes: 0 success, 1 config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

import yaml

from . import partition as partition_mod
from .metrics import SUMMARY_FIELDS
from .scenario import (
    MODE_BASELINE, MODE_OPTIMISTIC, ScenarioError, build_plan, build_topology,
    load_scenario, run_scenario,
)
from .topology import TopologyError, convert_external_topology, \
    generate_synthetic_topology, save_topology
from .traffic import TrafficError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


# each run flag and the scenario key it sets; the scenario table checks the
# value, which is read as a YAML scalar like the key in a scenario file
RUN_FLAGS = {
    "--mode": "run.mode",
    "--end-ns": "run.end_ns",
    "--seed": "run.seed",
    "--token-interval-ns": "run.token_interval_ns",
    "-k": "run.partitions.k",
    "--strategy": "run.partitions.strategy",
    "--plan": "run.partitions.plan_path",
    "--gvt-interval": "run.knobs.gvt_interval",
}

# sweep variable -> (the key it sets, the mode it runs in)
SWEEP_VARIABLES = {
    "token_interval": ("run.token_interval_ns", MODE_BASELINE),
    "k": ("run.partitions.k", MODE_OPTIMISTIC),
    "strategy": ("run.partitions.strategy", MODE_OPTIMISTIC),
}


def _set_key(overrides: dict, key: str, value):
    *blocks, leaf = key.split(".")
    for block in blocks:
        overrides = overrides.setdefault(block, {})
    overrides[leaf] = value


def _yaml_scalar(key: str, text: str):
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as e:
        raise ScenarioError(f"{key}: cannot parse {text!r} as a YAML value") from e


def _scenario_overrides(args) -> dict:
    overrides: dict = {}
    for flag, key in RUN_FLAGS.items():
        text = getattr(args, key)
        if text is not None:
            _set_key(overrides, key, text if flag == "--plan" else _yaml_scalar(key, text))
    return overrides


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="scenario YAML file")
    for flag, key in RUN_FLAGS.items():
        p.add_argument(flag, dest=key, metavar=key)
    p.add_argument("--out", help="output directory")


def cmd_run(args) -> int:
    cfg = load_scenario(args.config, _scenario_overrides(args))
    report = run_scenario(cfg, args.out)
    print(f"generated={report.generated} delivered={report.delivered} "
          f"dropped={report.dropped} drop_rate={report.drop_rate:.4f}")
    if report.mean_delay_ns is not None:
        print(f"mean_delay_ns={report.mean_delay_ns:.1f} jitter_ns={report.jitter_ns:.1f}")
    processed = report.committed_events + report.rolled_back_events
    efficiency = report.committed_events / processed if processed else 1.0
    print(f"committed_events={report.committed_events} "
          f"rolled_back_events={report.rolled_back_events} "
          f"efficiency={efficiency:.4f} "
          f"wall_clock_s={report.wall_clock_s:.2f}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.repetitions < 1:
        raise ScenarioError(f"--repetitions: expected an integer >= 1, got {args.repetitions}")
    cfg = load_scenario(args.config, _scenario_overrides(args))
    key, mode = SWEEP_VARIABLES[args.variable]
    values = [_yaml_scalar(key, v) for v in args.values.split(",")]
    # load every run's config first: a bad value fails before any run
    runs = []
    for value in values:
        for rep in range(args.repetitions):
            overrides = _scenario_overrides(args)
            _set_key(overrides, "run.seed", cfg["run"]["seed"] + rep)
            _set_key(overrides, "run.mode", mode)
            _set_key(overrides, key, value)
            # the runs write nothing: only sweep.csv goes to the output directory
            _set_key(overrides, "run.output_dir", None)
            runs.append((value, rep, load_scenario(args.config, overrides)))
    out_dir = args.out or cfg["run"]["output_dir"] or "."
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    failures = 0
    for value, rep, run_cfg in runs:
        try:
            report = run_scenario(run_cfg)
            rows.append({
                "variable": args.variable, "value": value, "rep": rep,
                "status": "ok",
                **{f: getattr(report, f) for f in SUMMARY_FIELDS if f != "scenario_id"},
            })
        except Exception as e:  # record and continue
            failures += 1
            rows.append({"variable": args.variable, "value": value,
                         "rep": rep, "status": f"failed: {e}"})
    # aggregate means over repetitions
    agg = {}
    for row in rows:
        if row["status"] != "ok":
            continue
        agg.setdefault(row["value"], []).append(row)
    for value, group in agg.items():
        mean_row = {"variable": args.variable, "value": value, "rep": "mean",
                    "status": "ok"}
        for f in SUMMARY_FIELDS:
            if f == "scenario_id":
                continue
            vals = [r[f] for r in group if isinstance(r.get(f), (int, float))]
            mean_row[f] = sum(vals) / len(vals) if vals else ""
        rows.append(mean_row)
    path = os.path.join(out_dir, "sweep.csv")
    fields = ["variable", "value", "rep", "status"] + \
        [f for f in SUMMARY_FIELDS if f != "scenario_id"]
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        w.writeheader()
        w.writerows(rows)
    print(f"wrote {path} ({len(rows)} rows, {failures} failures)")
    return EXIT_RUNTIME if failures else EXIT_OK


def cmd_partition(args) -> int:
    cfg = load_scenario(args.config, _scenario_overrides(args))
    topo = build_topology(cfg)
    plan = build_plan(cfg, topo)
    partition_mod.export_plan(plan, args.plan_out)
    print(f"k={plan.k} strategy={plan.strategy.value} "
          f"imbalance={plan.imbalance:.3f} cut={plan.cut_weight} "
          f"degraded={plan.degraded}")
    return EXIT_OK


def cmd_topo_gen(args) -> int:
    topo = generate_synthetic_topology(args.access, args.mixed, args.kernel, args.seed)
    save_topology(topo, args.out_file)
    print(f"wrote {args.out_file}: {topo.num_nodes} nodes, "
          f"{len(topo.edges)} bidirectional links")
    return EXIT_OK


def cmd_topo_convert(args) -> int:
    convert_external_topology(args.in_file, args.out_file)
    print(f"converted {args.in_file} -> {args.out_file}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dsnetsim",
        description="Packet-level DiffServ network simulator with an "
                    "optimistic parallel kernel")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute one scenario")
    _add_run_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="run a parameter sweep")
    _add_run_flags(p)
    p.add_argument("--variable", required=True, choices=SWEEP_VARIABLES)
    p.add_argument("--values", required=True,
                   help="comma-separated sweep values")
    p.add_argument("--repetitions", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("partition", help="compute and export a partition plan")
    _add_run_flags(p)
    p.add_argument("--plan-out", required=True, dest="plan_out")
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("topo-gen", help="generate a synthetic topology file")
    p.add_argument("--access", type=int, required=True)
    p.add_argument("--mixed", type=int, required=True)
    p.add_argument("--kernel", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-file", required=True, dest="out_file")
    p.set_defaults(func=cmd_topo_gen)

    p = sub.add_parser("topo-convert",
                       help="convert an external topology dump to the native format")
    p.add_argument("--in-file", required=True, dest="in_file")
    p.add_argument("--out-file", required=True, dest="out_file")
    p.set_defaults(func=cmd_topo_convert)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, TopologyError, TrafficError, partition_mod.PartitionError,
            FileNotFoundError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # noqa: BLE001
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry point.

Subcommands: ``run``, ``sweep``, ``partition``, ``topo-gen``,
``topo-convert``. Every flag mirrors a scenario-config field; the effective
config is echoed into the output directory. Exit codes: 0 success, 1 config
error, 2 runtime error, 3 watchdog abort.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys

from . import partition as partition_mod
from .kernel import RUNTIMES, WatchdogError
from .metrics import SUMMARY_FIELDS
from .scenario import (
    MODE_BASELINE, MODE_OPTIMISTIC, MODE_SEQUENTIAL,
    ScenarioError, build_plan, build_scenario_model, build_topology,
    load_scenario, run_scenario,
)
from .topology import TopologyError, convert_external_topology, \
    generate_synthetic_topology, save_topology

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_WATCHDOG = 3

OUTPUT_ROOT_ENV = "DSNETSIM_OUTPUT_ROOT"


def _output_dir(args_dir: str | None, name: str) -> str | None:
    if args_dir:
        return args_dir
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root:
        return os.path.join(root, name)
    return None


def _scenario_overrides(args) -> dict:
    run: dict = {}
    if args.mode:
        run["mode"] = args.mode
    if args.end_ns is not None:
        run["end_ns"] = args.end_ns
    if args.seed is not None:
        run["seed"] = args.seed
    if args.token_interval_ns is not None:
        run["token_interval_ns"] = args.token_interval_ns
    parts: dict = {}
    if args.k is not None:
        parts["k"] = args.k
    if args.strategy:
        parts["strategy"] = args.strategy
    if getattr(args, "plan", None):
        parts["plan_path"] = args.plan
    if parts:
        run["partitions"] = parts
    knobs: dict = {}
    for name in ("gvt_interval", "batch_size", "runtime", "watchdog_s"):
        val = getattr(args, name, None)
        if val is not None:
            knobs[name] = val
    if knobs:
        run["knobs"] = knobs
    return {"run": run} if run else {}


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="scenario YAML file")
    p.add_argument("--mode", choices=[MODE_SEQUENTIAL, MODE_OPTIMISTIC, MODE_BASELINE])
    p.add_argument("--end-ns", type=int, dest="end_ns")
    p.add_argument("--seed", type=int)
    p.add_argument("--token-interval-ns", type=int, dest="token_interval_ns")
    p.add_argument("-k", type=int, dest="k", help="partition count")
    p.add_argument("--strategy", choices=[m.value for m in partition_mod.WeightModel])
    p.add_argument("--plan", help="partition plan file to import")
    p.add_argument("--gvt-interval", type=int, dest="gvt_interval")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--runtime", choices=RUNTIMES)
    p.add_argument("--watchdog-s", type=float, dest="watchdog_s")
    p.add_argument("--out", help="output directory")


def cmd_run(args) -> int:
    cfg = load_scenario(args.config, _scenario_overrides(args))
    report = run_scenario(cfg, _output_dir(args.out, cfg["name"]))
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
    cfg = load_scenario(args.config, _scenario_overrides(args))
    values = [int(v) if v.isdigit() else v for v in args.values.split(",")]
    out_dir = _output_dir(args.out, f"{cfg['name']}-sweep") or "."
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    failures = 0
    for value in values:
        for rep in range(args.repetitions):
            overrides: dict = {"run": {"seed": cfg["run"]["seed"] + rep}}
            if args.variable == "token_interval":
                overrides["run"]["mode"] = MODE_BASELINE
                overrides["run"]["token_interval_ns"] = int(value)
            elif args.variable == "k":
                overrides["run"]["mode"] = MODE_OPTIMISTIC
                overrides["run"]["partitions"] = {"k": int(value)}
            elif args.variable == "strategy":
                overrides["run"]["mode"] = MODE_OPTIMISTIC
                overrides["run"]["partitions"] = {"strategy": str(value)}
            else:
                raise ScenarioError(f"unknown sweep variable {args.variable}")
            run_cfg = load_scenario(args.config, _deep(overrides, args))
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


def _deep(overrides: dict, args) -> dict:
    base = _scenario_overrides(args)
    from .scenario import _deep_merge
    return _deep_merge(base, overrides)


def cmd_partition(args) -> int:
    cfg = load_scenario(args.config, _scenario_overrides(args))
    strategy = cfg["run"]["partitions"]["strategy"]
    if strategy == partition_mod.WeightModel.VERTEX_EVENT.value and not args.allow_profiling:
        print("vertex-event weights need a profiling trace; run "
              "`dsnetsim run --mode sequential` first or pass "
              "--allow-profiling to run one now", file=sys.stderr)
        return EXIT_CONFIG
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
          f"{topo.num_links // 2} bidirectional links")
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
    p.add_argument("--variable", required=True,
                   choices=["token_interval", "k", "strategy"])
    p.add_argument("--values", required=True,
                   help="comma-separated sweep values")
    p.add_argument("--repetitions", type=int, default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("partition", help="compute and export a partition plan")
    _add_run_flags(p)
    p.add_argument("--plan-out", required=True, dest="plan_out")
    p.add_argument("--allow-profiling", action="store_true",
                   help="permit an on-the-fly sequential profiling run for "
                        "vertex-event weights")
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
    except WatchdogError as e:
        print(f"watchdog abort: {e}", file=sys.stderr)
        return EXIT_WATCHDOG
    except (ScenarioError, TopologyError, partition_mod.PartitionError,
            FileNotFoundError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # noqa: BLE001
        print(f"runtime error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())

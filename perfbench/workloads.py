"""Benchmark workloads and the one-scenario path every timed run takes.

Each workload is a scenario config built from the library defaults plus a
few overrides. The workload seed goes into both ``run.seed`` and
``traffic.seed``; the simulator only ever sees the generated config.

The run path is the one ``dsnetsim.scenario.run_scenario`` takes
(load_scenario -> build_scenario_model -> build_plan ->
run_sequential/run_optimistic -> write_outputs). Every library call goes
through a module attribute, so the tracer can patch it.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

if not os.path.isfile(os.path.join(SRC, "dsnetsim", "__init__.py")):
    raise ImportError(f"dsnetsim sources not found under {SRC}")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import dsnetsim  # noqa: E402
from dsnetsim import kernel, metrics, scenario  # noqa: E402

if os.path.dirname(os.path.dirname(os.path.abspath(dsnetsim.__file__))) != SRC:
    raise ImportError(f"imported dsnetsim from {dsnetsim.__file__}, not from {SRC}")

# Pinned records.csv digests hold for this seed only.
DEFAULT_SEED = 1
# A workload seed n stands for VARIANTS scenarios, with scenario seeds
# n*VARIANTS .. n*VARIANTS+VARIANTS-1. The destinations that traffic.seed
# draws change the rollback regime of the optimistic workloads (on opt-k4,
# about one scenario seed in six runs at efficiency 0.73 instead of 0.58,
# and the run time per committed event moves with it), so a run averages
# over several scenarios rather than reporting the luck of one.
VARIANTS = 8
DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")

def _straggler_flows() -> list[dict]:
    """The A5 skewed mix: 32 flows into 5 hot cores, light flows into the
    other cores, and reply flows out of the hot region, so the overloaded
    side also emits into partitions that have raced ahead."""
    hot = [0, 1, 2, 3, 4]
    flows = [{"src": src, "dst": hot[i % 5], "rate_pps": 25_000}
             for i, src in enumerate(range(10, 42))]
    flows += [{"src": src, "dst": 5 + (i % 5), "rate_pps": 6_250}
              for i, src in enumerate(range(42, 50))]
    flows += [{"src": h, "dst": 10 + (h * 7 + j * 13) % 40, "rate_pps": 6_250}
              for h in hot for j in range(2)]
    return flows


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # simulated horizon: one scenario runs in about 0.1-0.25 s on a 2-vCPU
    # Xeon, so that the calibration samples taken between runs stay close
    # in time to the runs they scale (see calibrate.py); opt-k4 runs about
    # 1 s, because at shorter horizons its efficiency depends on the
    # scenario seed far more (0.70-0.81 at 250 us)
    end_ns: int
    run: dict  # overrides of the config's "run" block
    traffic: dict = field(default_factory=dict)

    @property
    def optimistic(self) -> bool:
        return self.run.get("mode") == scenario.MODE_OPTIMISTIC

    def overrides(self, seed: int, end_ns: int) -> dict:
        """Config overrides for one scenario seed."""
        return {
            "name": self.name,
            "traffic": {**self.traffic, "seed": seed},
            "run": {**self.run, "seed": seed, "end_ns": end_ns},
        }


WORKLOADS = {w.name: w for w in (
    Workload(
        name="seq-default",
        why=("reference path: every ARRIVE runs classify, srTCM, RED, queue and "
             "shaper, so router, qos and rng dominate; no snapshot, rollback or GVT"),
        end_ns=3_000_000,
        run={"mode": scenario.MODE_SEQUENTIAL},
    ),
    Workload(
        name="baseline-1us",
        why=("same router layer driven by a 1 us REFILL timer chain: little QoS "
             "work per event, so the sequential heap loop and dispatch show"),
        end_ns=300_000,
        run={"mode": scenario.MODE_BASELINE, "token_interval_ns": 1_000},
    ),
    Workload(
        name="opt-k4",
        why=("speculation-heavy: whole-router snapshots, rollbacks, anti-messages "
             "and GVT/fossil collection do most of the work"),
        end_ns=1_000_000,
        run={"mode": scenario.MODE_OPTIMISTIC,
             "partitions": {"k": 4, "strategy": "no-weights"},
             "knobs": {"runtime": "stepped", "gvt_interval": 256, "batch_size": 8}},
    ),
    Workload(
        name="straggler-k4",
        why=("A5 skewed traffic with a profiled vertex-event plan: planning "
             "dominates setup, rollbacks are rare and snapshot cost dominates"),
        end_ns=300_000,
        run={"mode": scenario.MODE_OPTIMISTIC,
             "partitions": {"k": 4, "strategy": "vertex-event"},
             "knobs": {"runtime": "stepped", "gvt_interval": 256, "batch_size": 16}},
        traffic={"pattern": "explicit", "flows": _straggler_flows()},
    ),
)}


def scenario_seeds(seed: int) -> list[int]:
    return [seed * VARIANTS + j for j in range(VARIANTS)]


def pinned_digests(wl: Workload, seed: int, end_ns: int) -> list[str | None]:
    """records.csv sha256 per scenario seed, pinned at DEFAULT_SEED and
    each workload's own horizon; None where nothing is pinned."""
    if seed != DEFAULT_SEED or end_ns != wl.end_ns:
        return [None] * VARIANTS
    with open(DIGESTS_PATH) as fh:
        return json.load(fh)[wl.name]


@dataclass
class Rep:
    """One closed-loop scenario run: host times and the report."""

    setup_s: float
    run_s: float
    write_s: float
    report: object
    plan: object

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.run_s + self.write_s


def setup(wl: Workload, seed: int, end_ns: int):
    """Scenario load, topology, routing, model build and partition plan."""
    cfg = scenario.load_scenario(None, wl.overrides(seed, end_ns))
    model = scenario.build_scenario_model(cfg)
    plan = scenario.build_plan(cfg, model.topology) if wl.optimistic else None
    return cfg, model, plan


def run_once(wl: Workload, seed: int, end_ns: int, out_dir: str) -> Rep:
    t0 = time.perf_counter()
    cfg, model, plan = setup(wl, seed, end_ns)
    t1 = time.perf_counter()
    if plan is None:
        report = kernel.run_sequential(model)
    else:
        report = kernel.run_optimistic(
            model, plan, kernel.Knobs(**(cfg["run"].get("knobs") or {})))
    t2 = time.perf_counter()
    scenario.write_outputs(cfg, report, out_dir)
    t3 = time.perf_counter()
    return Rep(t1 - t0, t2 - t1, t3 - t2, report, plan)


def reference_digest(wl: Workload, seed: int, end_ns: int, out_dir: str) -> str:
    """records.csv digest of an untimed sequential run of the same scenario."""
    cfg = scenario.load_scenario(None, wl.overrides(seed, end_ns))
    report = kernel.run_sequential(
        scenario.build_scenario_model(cfg, mode=scenario.MODE_SEQUENTIAL))
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "records.csv")
    metrics.write_records_csv(path, report.records)
    return file_digest(path)


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()

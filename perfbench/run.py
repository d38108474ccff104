"""dsnetsim benchmark: one workload per call, closed loop, single-threaded.

    python3 perfbench/run.py --workload seq-default --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one report

The workload seed n stands for workloads.VARIANTS scenario seeds. A run
first builds the scenarios for SETUP_SECONDS, each at least twice (set-up
samples), then runs whole scenarios (set-up, simulation, output files)
back to back, cycling through the scenario seeds, until every seed ran
once and ``--seconds`` have passed. Each run starts when the previous one
has ended.

Times are means over the run, scaled to a reference host speed (see
calibrate.py): host seconds on a shared host follow the share of time its
CPU runs slow, and that share drifts from minute to minute. The scaled
values are the metrics; the report also prints the host values and the
scale. The workloads' short horizons keep the calibration samples close
in time to the runs they scale.

Every run's records.csv is checked against the pinned digest (default seed
and horizon only), against an untimed sequential run of the same scenario
for optimistic workloads, and against earlier runs of the same scenario;
the kernel counts must repeat exactly too. A failed run contributes no
timing, and any failure makes the exit code 1.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; the
peak RSS is the median, over the first RSS_PROBES scenario seeds, of a
fresh process that runs one scenario. With ``--trace 1`` it holds the
per-layer metrics of TRACED_REPS traced runs of the first scenario seed,
whose counts must agree; their times are host times, not scaled. Samples,
spans and provenance go to ``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

# set-up builds before the timed runs: whole passes over the scenario
# seeds, at least this many and for at least SETUP_SECONDS
SETUP_PASSES = 2
SETUP_SECONDS = 2.0
# fresh processes that measure peak RSS, on the first scenario seeds
RSS_PROBES = 3
TRACED_REPS = 2
PROBE_TIMEOUT_S = 120
MAX_ERRORS_KEPT = 20

E2E_UNITS = {
    "events_per_s": "events/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "efficiency": "ratio",
}


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "loadavg_start": list(os.getloadavg()),
    }


def exact_counts(report) -> tuple:
    """Kernel counts that must repeat exactly across runs of one scenario."""
    return (report.committed_events, report.rolled_back_events,
            report.inter_partition_messages, report.gvt_rounds,
            report.peak_history_entries)


class Gate:
    """Correctness checks on one scenario's records.csv and kernel counts."""

    def __init__(self, pinned: str | None, reference: str | None):
        self.pinned = pinned
        self.reference = reference
        self.first_digest: str | None = None
        self.first_counts: tuple | None = None

    def check(self, report, digest: str) -> list[str]:
        problems = []
        if self.pinned is not None and digest != self.pinned:
            problems.append(f"records.csv sha256 {digest} != pinned {self.pinned}")
        if self.reference is not None and digest != self.reference:
            problems.append(
                f"records.csv sha256 {digest} != sequential run {self.reference}")
        if self.first_digest is None:
            self.first_digest = digest
        elif digest != self.first_digest:
            problems.append(f"records.csv changed between runs of one scenario: {digest}")
        counts = exact_counts(report)
        if self.first_counts is None:
            self.first_counts = counts
        elif counts != self.first_counts:
            problems.append(
                "kernel counts (committed, rolled_back, messages, gvt_rounds, "
                f"peak_history) drifted: {counts} != {self.first_counts}")
        return problems


class WorkloadRun:
    """The runs of one workload and seed, with their correctness record."""

    def __init__(self, wl_name: str, seed: int, end_ns: int | None,
                 pinned: list | None, out_root: str):
        import workloads

        self.wl = workloads.WORKLOADS[wl_name]
        self.end_ns = end_ns or self.wl.end_ns
        self.seeds = workloads.scenario_seeds(seed)
        self.pinned = pinned or workloads.pinned_digests(self.wl, seed, self.end_ns)
        self.out_dir = os.path.join(out_root, self.wl.name)
        self.records_path = os.path.join(self.out_dir, "records.csv")
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.gates: list[Gate] = []
        self.setups: list[float] = []
        self.calibration: list[float] = []
        self.reps: list[tuple[int, object]] = []  # (scenario index, Rep)
        # layers the library no longer has; their per-layer values read 0
        self.unwrapped: list[str] = []

    def fail(self, problems: list[str]) -> None:
        self.failed += 1
        self.errors.extend(problems[:MAX_ERRORS_KEPT - len(self.errors)])

    def prepare(self) -> bool:
        """Set-up samples and, for optimistic workloads, sequential reference
        digests. Returns False if that failed."""
        import workloads

        os.makedirs(self.out_dir, exist_ok=True)
        try:
            start = time.perf_counter()
            passes = 0
            while passes < SETUP_PASSES or time.perf_counter() - start < SETUP_SECONDS:
                passes += 1
                for s in self.seeds:
                    gc.collect()
                    t0 = time.perf_counter()
                    workloads.setup(self.wl, s, self.end_ns)
                    self.setups.append(time.perf_counter() - t0)
                    calibrate.sample(self.calibration, self.setups[-1])
            ref_dir = os.path.join(self.out_dir, "reference")
            self.gates = [
                Gate(pinned, workloads.reference_digest(self.wl, s, self.end_ns, ref_dir)
                     if self.wl.optimistic else None)
                for s, pinned in zip(self.seeds, self.pinned)]
        except Exception:
            self.attempted += 1
            self.fail([traceback.format_exc()])
            return False
        return True

    def run_checked(self, i: int, runner=None):
        """Run scenario ``i`` once and check it; returns the Rep or None."""
        import workloads

        self.attempted += 1
        gc.collect()
        try:
            rep = (runner or workloads.run_once)(self.wl, self.seeds[i], self.end_ns, self.out_dir)
            problems = self.gates[i].check(rep.report, workloads.file_digest(self.records_path))
        except Exception:
            rep, problems = None, [traceback.format_exc()]
        if problems:
            self.fail(problems)
            return None
        return rep

    def loop(self, seconds: float) -> None:
        start = time.perf_counter()
        n = 0
        while n < len(self.seeds) or time.perf_counter() - start < seconds:
            i = n % len(self.seeds)
            rep = self.run_checked(i)
            if rep is not None:
                self.reps.append((i, rep))
                calibrate.sample(self.calibration, rep.wall_s)
            n += 1

    def host_times(self) -> dict[str, float]:
        """Unscaled end-to-end times. Each scenario that ran weighs the
        same: events_per_s is their committed events over the sum of their
        mean run times, wall_s the mean of their mean walls. setup_s is the
        mean of every set-up sample."""
        by_seed: dict[int, list] = {}
        for i, rep in self.reps:
            by_seed.setdefault(i, []).append(rep)
        runs = by_seed.values()
        return {
            "events_per_s": (sum(r[0].report.committed_events for r in runs)
                             / sum(statistics.fmean(x.run_s for x in r) for r in runs)),
            "wall_s": statistics.fmean(statistics.fmean(x.wall_s for x in r) for r in runs),
            "setup_s": statistics.fmean(self.setups + [rep.setup_s for _, rep in self.reps]),
        }

    def e2e_metrics(self) -> dict[str, float]:
        scale = calibrate.scale(self.calibration)
        host = self.host_times()
        out = {
            "events_per_s": host["events_per_s"] / scale,
            "wall_s": host["wall_s"] * scale,
            "setup_s": host["setup_s"] * scale,
            "efficiency": statistics.median(
                c[0] / (c[0] + c[1]) for c in (g.first_counts for g in self.gates) if c),
        }
        peaks = []
        for s, gate in list(zip(self.seeds, self.gates))[:RSS_PROBES]:
            self.attempted += 1
            try:
                probe = _probe_rss(self.wl.name, s, self.end_ns,
                                   os.path.join(self.out_dir, "probe"))
            except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError):
                self.fail([traceback.format_exc()])
                continue
            if gate.first_digest is not None and probe["digest"] != gate.first_digest:
                self.fail([f"rss probe records.csv sha256 {probe['digest']} "
                           f"!= {gate.first_digest}"])
                continue
            peaks.append(probe["peak_rss_mb"])
        if peaks:
            out["peak_rss_mb"] = statistics.median(peaks)
        return out

    def traced_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the first scenario: the mean time of
        TRACED_REPS traced runs, whose non-time values must agree exactly
        and whose span self times must add up to the run."""
        import tracer as tracing
        import workloads

        untraced = [rep.wall_s for i, rep in self.reps if i == 0]
        runs = []
        for k in range(TRACED_REPS):
            elapsed = []

            def traced_run(*args):
                t0 = time.perf_counter()
                rep = tr.run(workloads.run_once, *args)
                elapsed.append(time.perf_counter() - t0)
                return rep

            with tracing.Tracer() as tr:
                rep = self.run_checked(0, runner=traced_run)
            if rep is None:
                continue
            traced_s = elapsed[0]
            own = tr.self_times()
            if min(own) < -1e-6 or abs(sum(own) - traced_s) > 0.01 * traced_s + 1e-3:
                self.fail([f"span self times sum to {sum(own):.6f} s, "
                           f"traced run took {traced_s:.6f} s"])
                continue
            self.unwrapped = tr.missing
            layer = tracing.layer_metrics(tr, rep.report, rep.plan)
            if untraced:
                layer["trace.overhead_s"] = traced_s - statistics.median(untraced)
            runs.append(layer)
            if k == 0:
                tr.write_spans(os.path.join(self.out_dir, "spans.csv"))
                with open(os.path.join(self.out_dir, "layers.json"), "w") as fh:
                    json.dump(tr.summary(), fh, indent=1)
        if not runs:
            return {}
        exact = [n for n, unit in tracing.LAYER_UNITS.items() if unit != "s"]
        for other in runs[1:]:
            drift = {n: (runs[0][n], other[n]) for n in exact if other[n] != runs[0][n]}
            if drift:
                self.fail([f"traced counts drifted between runs: {drift}"])
        return {n: (statistics.fmean(r[n] for r in runs)
                    if tracing.LAYER_UNITS[n] == "s" else runs[0][n])
                for n in runs[0]}


def _probe_rss(wl_name: str, scenario_seed: int, end_ns: int, out_dir: str) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "rss_probe.py"), "--workload", wl_name,
           "--scenario-seed", str(scenario_seed), "--end-ns", str(end_ns), "--out", out_dir]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"rss probe exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(wl_name: str, seed: int, seconds: float, trace: bool,
            end_ns: int | None = None, pinned: list | None = None,
            out_root: str = OUT_ROOT) -> dict:
    """Run one workload; returns the result record (see module doc).
    ``pinned`` overrides the pinned digests, one per scenario seed."""
    import tracer as tracing

    prov = provenance()
    wr = WorkloadRun(wl_name, seed, end_ns, pinned, out_root)
    metrics: dict[str, float] = {}
    host: dict[str, float] = {}
    if wr.prepare():
        wr.loop(seconds)
        if wr.reps:
            metrics = wr.traced_metrics() if trace else wr.e2e_metrics()
            host = wr.host_times()

    units = tracing.LAYER_UNITS if trace else E2E_UNITS
    missing = [n for n in units if n not in metrics]
    if missing and wr.failed == 0:
        wr.errors.append(f"metrics not measured: {missing}")
    prov.update(
        workload=wr.wl.name, why=wr.wl.why, seed=seed, scenario_seeds=wr.seeds,
        end_ns=wr.end_ns, pinned_digests=wr.pinned, unwrapped_layers=wr.unwrapped,
        input_committed_events=[g.first_counts[0] if g.first_counts else None
                                for g in wr.gates])
    result = {
        "correct": wr.failed == 0 and not missing,
        "attempted": wr.attempted,
        "failed": wr.failed,
        "metrics": {n: {"value": metrics[n], "unit": units[n]}
                    for n in units if n in metrics},
        "provenance": prov,
        "host_times": host,
        "calibration_scale": calibrate.scale(wr.calibration) if wr.calibration else None,
        "errors": wr.errors,
        "samples": {
            "calibration_chunk_s": wr.calibration,
            "setup_s": wr.setups,
            "reps": [{"scenario_seed": wr.seeds[i], "setup_s": r.setup_s,
                      "run_s": r.run_s, "write_s": r.write_s} for i, r in wr.reps],
        },
    }
    with open(os.path.join(wr.out_dir, f"result-{'trace' if trace else 'e2e'}.json"),
              "w") as fh:
        json.dump(result, fh, indent=1)
    return result


def print_report(result: dict) -> None:
    prov = result["provenance"]
    rate = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    print(f"# {prov['workload']} seed={prov['seed']} end_ns={prov['end_ns']}: "
          f"{result['attempted']} runs, {result['failed']} failed, error_rate {rate:g}")
    print(f"#   provenance {json.dumps(prov, sort_keys=True)}")
    for name, m in result["metrics"].items():
        print(f"#   {name} = {m['value']!r} {m['unit']}")
    if result["host_times"]:
        print(f"#   unscaled host times {json.dumps(result['host_times'])}, "
              f"calibration scale {result['calibration_scale']!r}")
    for err in result["errors"]:
        print(f"#   ERROR {err.strip()}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import workloads
    except ImportError as e:
        print(f"perfbench: cannot load the library: {e}", file=sys.stderr)
        return 2
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)} or all")
    results = {}
    for name in names:
        results[name] = measure(name, seed, args.seconds, bool(args.trace))
        print_report(results[name])
    if len(results) == 1:
        (result,) = results.values()
        final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
        eps = {w: r["metrics"].get("events_per_s", {}).get("value")
               for w, r in results.items()}
        if eps.get("seq-default") and eps.get("opt-k4"):
            overhead = eps["seq-default"] / eps["opt-k4"]
            print(f"# speculation_overhead = {overhead!r} "
                  "(events_per_s of seq-default / opt-k4)")
            final["metrics"]["speculation_overhead"] = {"value": overhead, "unit": "ratio"}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

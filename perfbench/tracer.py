"""Traced runs: spans and counts at the boundaries of the library's modules.

The tracer patches the attribute each caller looks up (``kernel.dispatch``
for the event loops, ``router.strict_priority_select`` for the router,
class attributes such as ``RouterLp.clone``) with a wrapper that records a
span (name, start, end, parent). Spans and counts stay in memory until the
run ends. A span's self time is its duration minus the durations of its
direct children, so the self times of all spans add up to the root span.
"""

from __future__ import annotations

import csv
import time
from collections import Counter, defaultdict

import workloads  # noqa: F401  puts the checkout's library first on sys.path
from dsnetsim import events, kernel, qos, rng, router, scenario

KIND_SPANS = {
    events.ARRIVE: "router.dispatch.arrive",
    events.SEND: "router.dispatch.send",
    events.GENERATE: "router.dispatch.generate",
    events.REFILL: "router.dispatch.refill",
}


def _count_pipelines(args, counts):
    counts["kernel.snapshot.pipelines"] += sum(p is not None for p in args[0].pipelines)


def _count_antis(args, counts):
    if args[1].sign == events.ANTI:
        counts["kernel.anti_messages"] += 1


def _dispatch_span(args):
    return KIND_SPANS[args[1].kind]


# (owner, attribute, span name or callable(args) -> name, hook(args, counts))
LAYERS = [
    (scenario, "load_scenario", "scenario.load", None),
    (scenario, "build_scenario_model", "model.build", None),
    (scenario, "build_topology", "topology.build", None),
    (scenario, "compute_routes", "routing.compute", None),
    (scenario, "build_plan", "partition.plan", None),
    # build_plan's nested profiling run looks up scenario.run_sequential
    (scenario, "run_sequential", "partition.profile", None),
    (scenario, "write_outputs", "metrics.write_outputs", None),
    (kernel, "run_sequential", "kernel.seq_loop", None),
    (kernel, "run_optimistic", "kernel.driver", None),
    (kernel, "dispatch", _dispatch_span, None),
    (kernel, "finalize", "metrics.finalize", None),
    (kernel.Partition, "step", "kernel.step", None),
    (kernel.Partition, "receive_remote", "kernel.receive", _count_antis),
    (kernel.Partition, "min_pending_time", "kernel.gvt", None),
    (kernel.Partition, "fossil_collect", "kernel.fossil", None),
    (router.RouterLp, "clone", "kernel.snapshot", _count_pipelines),
    (router, "strict_priority_select", "qos.queue", None),
    (router, "periodic_refill_amount_scaled", "qos.shaper", None),
    (qos.SrtcmMeter, "mark", "qos.srtcm", None),
    (qos.RedState, "decide", "qos.red", None),
    (qos.TokenBucket, "refill", "qos.shaper", None),
    (qos.TokenBucket, "take", "qos.shaper", None),
    (qos.TokenBucket, "earliest_ready_ns", "qos.shaper", None),
    (qos.TokenBucket, "add_scaled", "qos.shaper", None),
    (qos.ClassQueue, "fits", "qos.queue", None),
    (qos.ClassQueue, "push", "qos.queue", None),
    (qos.ClassQueue, "head", "qos.queue", None),
    (qos.ClassQueue, "pop", "qos.queue", None),
    (rng.CursorRng, "uniform", "rng.draw", None),
]

ROOT_SPAN = "bench.run"


class Tracer:
    """In-memory span and count recorder; use as a context manager so the
    patched attributes are always restored."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []  # layer attributes the library lacks
        self._stack: list[int] = []
        self._patches: list = []

    def __enter__(self):
        for owner, attr, name, hook in LAYERS:
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{owner.__name__}.{attr}")
                continue
            setattr(owner, attr, self._wrap(fn, name, hook))
            self._patches.append((owner, attr, fn))
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()
        return False

    def _wrap(self, fn, name, hook):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack, counts, clock = self._stack, self.counts, time.perf_counter
        namer = name if callable(name) else None

        def traced(*args, **kwargs):
            if hook is not None:
                hook(args, counts)
            i = len(names)
            names.append(namer(args) if namer else name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def run(self, fn, *args):
        """Call ``fn`` inside the root span."""
        return self._wrap(fn, ROOT_SPAN, None)(*args)

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.starts, self.ends)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                own[p] -= self.ends[i] - self.starts[i]
        return own

    def summary(self) -> dict:
        """Per span name: count, inclusive seconds and self seconds."""
        out = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for name, s, e, own in zip(self.names, self.starts, self.ends, self.self_times()):
            row = out[name]
            row["count"] += 1
            row["total_s"] += e - s
            row["self_s"] += own
        return dict(out)

    def write_spans(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["span", "name", "parent", "start_s", "end_s"])
            t0 = self.starts[0] if self.starts else 0.0
            for i, (name, parent, s, e) in enumerate(
                    zip(self.names, self.parents, self.starts, self.ends)):
                w.writerow([i, name, parent, f"{s - t0:.9f}", f"{e - t0:.9f}"])


# per-layer metric -> unit, in report order
LAYER_UNITS = {
    "scenario.load_s": "s",
    "topology.build_s": "s",
    "topology.build.calls": "count",
    "routing.compute_s": "s",
    "routing.compute.calls": "count",
    "model.build_s": "s",
    "partition.plan_s": "s",
    "partition.profile_s": "s",
    "partition.imbalance": "ratio",
    "partition.cut_weight": "links",
    # SEND spans are recorded but not reported: no workload's shaper ever
    # blocks a port, so SEND events never occur
    **{f"router.dispatch.{k}.{m}": u
       for k in ("arrive", "generate", "refill")
       for m, u in (("count", "count"), ("self_s", "s"))},
    **{f"qos.{q}{m}": u
       for q in ("srtcm", "red", "shaper", "queue")
       for m, u in ((".count", "count"), ("_s", "s"))},
    "rng.draw.count": "count",
    "rng.draw_s": "s",
    "kernel.seq_loop.self_s": "s",
    "kernel.snapshot.count": "count",
    "kernel.snapshot_s": "s",
    "kernel.snapshot.pipelines": "pipelines/save",
    "kernel.processed": "count",
    "kernel.committed": "count",
    "kernel.rolled_back": "count",
    "kernel.messages": "count",
    "kernel.anti_messages": "count",
    "kernel.gvt_rounds": "count",
    "kernel.peak_history": "count",
    "kernel.step.self_s": "s",
    "kernel.receive.count": "count",
    "kernel.receive_s": "s",
    "kernel.gvt_s": "s",
    "kernel.fossil_s": "s",
    "kernel.driver.self_s": "s",
    "metrics.finalize_s": "s",
    "metrics.write_outputs_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer: Tracer, report, plan) -> dict[str, float]:
    """Per-layer values of one traced run, except ``trace.overhead_s``.

    Times are self times, except ``partition.profile_s``, which is the whole
    nested profiling run inside ``build_plan``. Dispatch and QoS counts on a
    profiled plan include the profiling run's events. Without a partition
    plan the model is one partition: imbalance 1, no cut links.
    """
    rows = tracer.summary()

    def count(name):
        return rows[name]["count"] if name in rows else 0

    def self_s(name):
        return rows[name]["self_s"] if name in rows else 0.0

    snapshots = count("kernel.snapshot")
    out = {
        "scenario.load_s": self_s("scenario.load"),
        "topology.build_s": self_s("topology.build"),
        "topology.build.calls": count("topology.build"),
        "routing.compute_s": self_s("routing.compute"),
        "routing.compute.calls": count("routing.compute"),
        "model.build_s": self_s("model.build"),
        "partition.plan_s": self_s("partition.plan"),
        "partition.profile_s": rows.get("partition.profile", {}).get("total_s", 0.0),
        "partition.imbalance": plan.imbalance if plan is not None else 1.0,
        "partition.cut_weight": plan.cut_weight if plan is not None else 0,
        "rng.draw.count": count("rng.draw"),
        "rng.draw_s": self_s("rng.draw"),
        "kernel.seq_loop.self_s": self_s("kernel.seq_loop"),
        "kernel.snapshot.count": snapshots,
        "kernel.snapshot_s": self_s("kernel.snapshot"),
        "kernel.snapshot.pipelines": (
            tracer.counts["kernel.snapshot.pipelines"] / snapshots if snapshots else 0.0),
        "kernel.processed": report.committed_events + report.rolled_back_events,
        "kernel.committed": report.committed_events,
        "kernel.rolled_back": report.rolled_back_events,
        "kernel.messages": report.inter_partition_messages,
        "kernel.anti_messages": tracer.counts["kernel.anti_messages"],
        "kernel.gvt_rounds": report.gvt_rounds,
        "kernel.peak_history": report.peak_history_entries,
        "kernel.step.self_s": self_s("kernel.step"),
        "kernel.receive.count": count("kernel.receive"),
        "kernel.receive_s": self_s("kernel.receive"),
        "kernel.gvt_s": self_s("kernel.gvt") + self_s("kernel.fossil"),
        "kernel.fossil_s": self_s("kernel.fossil"),
        "kernel.driver.self_s": self_s("kernel.driver"),
        "metrics.finalize_s": self_s("metrics.finalize"),
        "metrics.write_outputs_s": self_s("metrics.write_outputs"),
    }
    for kind in ("arrive", "generate", "refill"):
        span = f"router.dispatch.{kind}"
        out[f"{span}.count"] = count(span)
        out[f"{span}.self_s"] = self_s(span)
    for q in ("srtcm", "red", "shaper", "queue"):
        out[f"qos.{q}.count"] = count(f"qos.{q}")
        out[f"qos.{q}_s"] = self_s(f"qos.{q}")
    return out

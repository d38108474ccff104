"""Per-packet records and run-level statistics.

All statistics are pure functions of the multiset of packet records plus a
few kernel counters, so a parallel run that commits the same records as a
sequential run reports the same delay/jitter/drop figures.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import NamedTuple


class MetricsError(Exception):
    pass


class PacketRecord(NamedTuple):
    """One packet's fate, its fields in ``records.csv`` column order: either
    delivered at ``delivered_ns`` or dropped at ``drop_node`` by
    ``drop_stage``, the other two being None."""

    pid: int
    src: int
    dst: int
    class_index: int
    color: int
    created_ns: int
    delivered_ns: int | None
    drop_node: int | None
    drop_stage: str | None


@dataclass
class RunReport:
    scenario_id: str
    records: list[PacketRecord]
    generated: int
    mean_delay_ns: float | None
    jitter_ns: float | None  # population std-dev of end-to-end delays
    jitter_rfc3550_ns: float | None  # smoothed inter-arrival jitter, alternate
    drop_rate: float
    delivered: int
    dropped: int
    wall_clock_s: float
    # the run's counts; committed_events, per_lp_events and port_audit
    # ((node, port) -> PORT_AUDIT_HEADER's counters by name) come from the
    # model's final state, and a sequential run has no rollback, message or cut
    committed_events: int = 0
    rolled_back_events: int = 0
    inter_partition_messages: int = 0
    gvt_rounds: int = 0
    peak_history_entries: int = 0
    per_lp_events: dict[int, int] = field(default_factory=dict)
    port_audit: dict = field(default_factory=dict)
    gvt_series: list = field(default_factory=list)  # per-round counter snapshots

    @property
    def stale_sends(self) -> int:
        return sum(audit["stale"] for audit in self.port_audit.values())


def finalize(scenario_id: str, records: list[PacketRecord], generated: int,
             counts: dict, wall_clock_s: float) -> RunReport:
    """Assemble a report from the records and the kernel's ``counts``, named
    as :class:`RunReport`'s fields (an unknown name raises ``TypeError``);
    delay and jitter are absent (None) with zero delivered packets rather
    than reported as zero."""
    # (delivered_ns, pid, delay) of each delivered packet, in record order
    arrivals = [(r.delivered_ns, r.pid, r.delivered_ns - r.created_ns)
                for r in records if r.delivered_ns is not None]
    dropped = len(records) - len(arrivals)
    mean_delay = jitter = jitter_rfc = None
    if arrivals:
        delays = [a[2] for a in arrivals]
        mean_delay = sum(delays) / len(delays)
        jitter = math.sqrt(sum((d - mean_delay) ** 2 for d in delays) / len(delays))
        j = 0.0
        # RFC 3550 order: by delivery time, then packet id
        ordered = [a[2] for a in sorted(arrivals)]
        for prev, cur in zip(ordered, ordered[1:]):
            j += (abs(cur - prev) - j) / 16.0
        jitter_rfc = j
    return RunReport(
        scenario_id=scenario_id,
        records=records,
        generated=generated,
        mean_delay_ns=mean_delay,
        jitter_ns=jitter,
        jitter_rfc3550_ns=jitter_rfc,
        drop_rate=(dropped / generated) if generated else 0.0,
        delivered=len(arrivals),
        dropped=dropped,
        wall_clock_s=wall_clock_s,
        **counts,
    )


def record_sort_key(r: PacketRecord):
    return r.pid


def compare_reports(a: RunReport, b: RunReport) -> dict:
    """Relative metric differences plus the count of differing records."""
    if a.scenario_id != b.scenario_id:
        raise MetricsError(
            f"cannot compare different scenarios: {a.scenario_id!r} vs {b.scenario_id!r}")

    def rel(x, y):
        if x is None or y is None:
            return None
        if x == y == 0:
            return 0.0
        return abs(x - y) / max(abs(x), abs(y))

    ra = sorted(a.records, key=record_sort_key)
    rb = sorted(b.records, key=record_sort_key)
    diff_count = abs(len(ra) - len(rb))
    for x, y in zip(ra, rb):
        if x != y:
            diff_count += 1
    return {
        "mean_delay_rel": rel(a.mean_delay_ns, b.mean_delay_ns),
        "jitter_rel": rel(a.jitter_ns, b.jitter_ns),
        "drop_rate_abs": abs(a.drop_rate - b.drop_rate),
        "record_diff_count": diff_count,
    }


# --------------------------------------------------------------------------
# file output

RECORD_HEADER = [
    "pkt_id", "src", "dst", "class", "color",
    "created_ns", "delivered_ns", "drop_node", "drop_stage",
]


def write_records_csv(path: str, records: list[PacketRecord]):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(RECORD_HEADER)
        # a record's fields are the columns; csv writes None as ""
        w.writerows(sorted(records, key=record_sort_key))


def read_records_csv(path: str) -> list[PacketRecord]:
    records = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            records.append(PacketRecord(
                pid=int(row["pkt_id"]),
                src=int(row["src"]),
                dst=int(row["dst"]),
                class_index=int(row["class"]),
                color=int(row["color"]),
                created_ns=int(row["created_ns"]),
                delivered_ns=int(row["delivered_ns"]) if row["delivered_ns"] else None,
                drop_node=int(row["drop_node"]) if row["drop_node"] else None,
                drop_stage=row["drop_stage"] or None,
            ))
    return records


SUMMARY_FIELDS = [
    "scenario_id", "generated", "delivered", "dropped", "drop_rate",
    "mean_delay_ns", "jitter_ns", "jitter_rfc3550_ns", "committed_events",
    "rolled_back_events", "inter_partition_messages", "stale_sends",
    "gvt_rounds", "peak_history_entries", "wall_clock_s",
]


def write_summary(path: str, report: RunReport):
    with open(path, "w") as fh:
        for name in SUMMARY_FIELDS:
            value = getattr(report, name)
            fh.write(f"{name} = {'' if value is None else value}\n")


def write_gvt_series_csv(path: str, report: RunReport):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["round", "gvt_ns", "committed_events",
                    "rolled_back_events", "inter_partition_messages"])
        for row in report.gvt_series:
            w.writerow(row)


PORT_AUDIT_HEADER = ["node", "port", "arrive", "send", "blocked", "stale", "redundant"]


def write_port_audit_csv(path: str, report: RunReport):
    """One row per connected port, in (node, port) order."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(PORT_AUDIT_HEADER)
        for (node, port), audit in sorted(report.port_audit.items()):
            w.writerow([node, port, *(audit[name] for name in PORT_AUDIT_HEADER[2:])])

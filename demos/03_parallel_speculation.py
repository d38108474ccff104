"""Run the optimistic parallel kernel and verify serial equivalence.

Partitions the default 50-node scenario four ways and runs it speculatively
with the deterministic stepper (one batch per partition per round), under
and without its speculation window. Unbounded, partitions race ahead and
roll back thousands of events; under the default lookahead window no
partition runs past GVT plus the plan's lookahead, so nothing rolls back, at the price of more GVT
rounds. Either way the per-packet records match the sequential run exactly.
Also prints the tail of each GVT progression.
"""

from dsnetsim.kernel import Knobs, run_optimistic, run_sequential
from dsnetsim.metrics import compare_reports
from dsnetsim.partition import partition_balanced
from dsnetsim.scenario import (
    MODE_SEQUENTIAL, build_scenario_model, build_topology, load_scenario,
)


def main():
    cfg = load_scenario(None, {"run": {"end_ns": 2_000_000}})
    seq = run_sequential(build_scenario_model(cfg, mode=MODE_SEQUENTIAL))

    plan = partition_balanced(build_topology(cfg), 4)
    print(f"sequential: {seq.committed_events} events in "
          f"{seq.wall_clock_s:.2f} s")
    for window in ("unbounded", "lookahead"):
        rep = run_optimistic(
            build_scenario_model(cfg, mode=MODE_SEQUENTIAL), plan,
            Knobs(gvt_interval=256, batch_size=8), unbounded=window == "unbounded")
        diff = compare_reports(seq, rep)
        print(f"\noptimistic k=4, {window} window: {rep.committed_events} committed, "
              f"{rep.rolled_back_events} rolled back, "
              f"{rep.gvt_rounds} GVT rounds, {rep.wall_clock_s:.2f} s")
        print(f"record differences vs sequential: {diff['record_diff_count']}")
        print("last GVT snapshots (round, gvt, committed):")
        for row in rep.gvt_series[-3:]:
            print(f"  {row[:3]}")


if __name__ == "__main__":
    main()

"""Compare the lazy shaper-refill kernel against periodic-refill baselines.

The lazy kernel computes token state exactly at the moments it matters, so it
needs no REFILL events at all. The baseline mode schedules a REFILL chain per
port at a fixed interval: accurate when the interval is tiny, cheap but wrong
when it is coarse. This script sweeps the interval on the default 50-node
scenario and prints events vs. accuracy side by side.
"""

from dsnetsim.kernel import run_sequential
from dsnetsim.scenario import MODE_BASELINE, build_scenario_model, load_scenario


def main():
    lazy = run_sequential(build_scenario_model(load_scenario()))
    print(f"lazy: {lazy.committed_events} events, "
          f"mean delay {lazy.mean_delay_ns:.1f} ns, "
          f"drop rate {lazy.drop_rate:.4f}")

    for interval in (1_000, 10_000, 100_000, 1_000_000):
        rep = run_sequential(build_scenario_model(load_scenario(None, {
            "run": {"mode": MODE_BASELINE, "token_interval_ns": interval}})))
        ratio = rep.committed_events / lazy.committed_events
        print(f"baseline interval {interval:>9} ns: "
              f"{rep.committed_events:>8} events ({ratio:5.1f}x lazy), "
              f"mean delay {rep.mean_delay_ns:>10.1f} ns, "
              f"drop rate {rep.drop_rate:.4f}")


if __name__ == "__main__":
    main()

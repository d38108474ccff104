"""Peak resident memory of a fresh process that runs one scenario once.

    python3 perfbench/rss_probe.py --workload opt-k4 --scenario-seed 5 --end-ns 1000000 --out DIR

Prints one JSON line: the peak RSS in MiB and the records.csv sha256.
"""

import argparse
import json
import os
import resource

import workloads


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--scenario-seed", type=int, required=True)
    parser.add_argument("--end-ns", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    workloads.run_once(workloads.WORKLOADS[args.workload], args.scenario_seed,
                       args.end_ns, args.out)
    digest = workloads.file_digest(os.path.join(args.out, "records.csv"))
    print(json.dumps({"peak_rss_mb": peak_rss_mib(), "digest": digest}))


def peak_rss_mib() -> float:
    """High-water resident set of this process image. Linux carries
    ru_maxrss across execve, so a process spawned by the benchmark would
    report the benchmark's own peak; VmHWM starts afresh at exec."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


if __name__ == "__main__":
    main()

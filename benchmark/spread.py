#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics across seeds.

Runs the command BENCHMARK.json names once per seed on each workload and
prints, for every metric, the median of the runs and the distance between
the first and third quartile as a share of that median (Python's
``statistics.quantiles(values, n=4)``), next to the metric's bound.

    python3 benchmark/spread.py --workloads warm_mix,skew_tri --seeds 1-5
    python3 benchmark/spread.py --seeds 1-10 --trace 1

Run it from the repository root. Exits non-zero if a run fails or the
spread of any metric with a bound, ``setup_s`` included, exceeds a third of
that bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    steady = True
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds_of(args.seeds):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                sys.stderr.write(out.stderr)
                print(f"{workload} seed {seed}: exit {out.returncode}")
                return 1
            result = json.loads(lines[-1])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
            for line in lines[:-1]:
                if line.startswith(("# rounds", "# setup", "# peak_rss_mb")):
                    print("   " + line, flush=True)
        for name, xs in values.items():
            med = statistics.median(xs)
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and not spread <= bound / 3:
                flag, steady = "  <-- above a third of the bound", False
            print(f"  {workload:9} {name:24} median {med:12.6g}  spread {spread:7.4f}"
                  f"  bound {bound}{flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py WORKLOAD [WORKLOAD ...] --seeds 1 2 3 [--trace 0|1]

Runs the command from BENCHMARK.json once per (workload, seed) from the
repository root and prints each run's wall time and metrics; then, for every metric,
the median of its values and the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median, next to
a third of the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="+")
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    for w in args.workloads:
        values = {}
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            t0 = time.monotonic()
            out = subprocess.run(cmd, capture_output=True, text=True)
            wall = time.monotonic() - t0
            if out.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {out.returncode}\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            assert result["correct"], result
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(w, seed, f"{wall:.1f}s",
                  json.dumps({k: round(v["value"], 4) for k, v in result["metrics"].items()}),
                  flush=True)
        for name, vs in values.items():
            med = statistics.median(vs)
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(name)
            limit = f"{bound / 3:.3f}" if bound else "-"
            print(f"  {w:9} {name:32} median {med:12.4f}  spread {spread:.3f}  bound/3 {limit}")


if __name__ == "__main__":
    main()

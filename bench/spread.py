#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json bounds.

    python3 bench/spread.py --workload NAME [--seeds 1-10]

Runs bench/run.py once per seed and prints, per metric, the median, the
quartiles (statistics.quantiles, n=4) and the spread: the distance between
the quartiles as a share of the median.  Exits 1 if a run fails its checks or
a spread other than setup_s's exceeds the metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_range(text):
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values, ok = {}, True
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"seed {seed}: exit {done.returncode}\n{done.stdout}{done.stderr}", flush=True)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
    for name, vs in values.items():
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / statistics.median(vs)
        verdict = "ok" if name == "setup_s" or spread <= bounds[name] else "OVER BOUND"
        ok = ok and verdict == "ok"
        print(f"{name:16s} median={statistics.median(vs):.5g} q1={q1:.5g} q3={q3:.5g} "
              f"spread={spread:.4f} bound={bounds[name]} {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

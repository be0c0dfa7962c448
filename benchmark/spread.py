#!/usr/bin/env python3
"""Run the benchmark ten times per workload, each time with another seed,
and print for every end-to-end metric the median and the spread the driver
computes: the distance between the first and third quartile of the ten
values (statistics.quantiles, n=4) as a share of their median.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--seconds S]
                                [--workload NAME ...] [--trace 1]

Run it from the repo root. It reads the command, the workloads, the window
and the bounds from BENCHMARK.json, so it checks what the driver checks. A
spread above a third of its bound is marked `!`, above the bound `FAIL`.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def main():
    spec = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--workload", action="append")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    worst = 0.0
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
            ]
            started = time.time()
            done = subprocess.run(cmd, capture_output=True, text=True)
            if done.returncode != 0:
                sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0, result
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"# {workload} seed {seed}: {time.time() - started:.1f} s",
                  file=sys.stderr, flush=True)
        print(f"== {workload} ({args.runs} seeds, {args.seconds} s window)")
        for name, v in values.items():
            if len(v) < 2 or statistics.median(v) == 0:
                print(f"{name:34} median {statistics.median(v):.6g}")
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            bound = bounds.get(name)
            mark = ""
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
                mark = "FAIL" if spread > bound else "!" if spread > bound / 3 else "ok"
            print(f"{name:34} median {med:<14.6g} spread {spread:8.4f} "
                  f"min {min(v):.6g} max {max(v):.6g} {mark}")
        sys.stdout.flush()
    print(f"worst spread/bound: {worst:.2f}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Alternating A/B pairs of the repo's benchmark between two checkouts.

    python3 tools/ab_pairs.py PARENT CHANGE [--workload NAME ...]
        [--pairs 10] [--first-seed 201] [--seconds S]
        [--target-root /root/scratch/ab-target]

PARENT and CHANGE are checkouts (for the parent, a `git clone` of the
parent commit). Each side is built once, into its own CARGO_TARGET_DIR
under --target-root; then, per workload, pair i runs both binaries with
seed first-seed + i from the same directory, the change first in even
pairs and the parent first in odd ones. The command, the workloads, the
window and the end-to-end metrics come from CHANGE's BENCHMARK.json, so
this measures what the driver measures.

Printed per workload: every pair with both values of every end-to-end
metric, then per metric each side's median and quartiles
(statistics.quantiles, n=4), the ratio of the medians, how many pairs
the change won (ties count for neither) and each side's `failed` total.
A pair in which either side's setup_s is more than twice that side's
median is marked `disturbed`: something else had the machine. It is
still listed and still counted — report every run made.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def build(checkout, target_dir, manifest):
    """Builds the benchmark of `checkout` and returns its executable."""
    cmd = ["cargo", "build", "--release", "--offline",
           "--message-format=json", "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    done = subprocess.run(cmd, cwd=checkout, env=env, text=True,
                          stdout=subprocess.PIPE)
    if done.returncode != 0:
        sys.exit(f"building {checkout} failed")
    exe = None
    for line in done.stdout.splitlines():
        try:
            msg = json.loads(line)
        except ValueError:
            continue
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            exe = msg["executable"]
    if exe is None:
        sys.exit(f"building {checkout} produced no executable")
    return exe


def run(exe, cwd, workload, seed, seconds):
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{' '.join(cmd)} reported an incorrect run:\n{done.stdout}")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    return values, result["failed"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=201)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--target-root", default="/root/scratch/ab-target")
    args = ap.parse_args()
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    with open(os.path.join(sides["change"], "BENCHMARK.json")) as f:
        spec = json.load(f)
    command = spec["command"]
    manifest = command[command.index("--manifest-path") + 1]
    seconds = args.seconds or spec["run_seconds"]
    metrics = [(m["name"], m["better"]) for m in spec["end_to_end"]]
    exes = {side: build(path, os.path.join(args.target_root, side), manifest)
            for side, path in sides.items()}

    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        pairs = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = ("change", "parent") if i % 2 == 0 else ("parent", "change")
            pair = {"seed": seed, "first": order[0], "failed": {}}
            for side in order:
                pair[side], pair["failed"][side] = run(
                    exes[side], sides["change"], workload, seed, seconds)
            pairs.append(pair)
            print(f"# {workload} pair {i + 1}/{args.pairs} seed {seed}: req_per_s "
                  f"{pair['parent']['req_per_s']:.6g} -> {pair['change']['req_per_s']:.6g}",
                  file=sys.stderr, flush=True)

        setup_median = {side: statistics.median(p[side]["setup_s"] for p in pairs)
                        for side in sides}
        for p in pairs:
            p["disturbed"] = any(p[side]["setup_s"] > 2 * setup_median[side]
                                 for side in sides)

        print(f"== {workload}: {args.pairs} pairs, {seconds} s window, "
              f"seeds {args.first_seed}..{args.first_seed + args.pairs - 1}")
        for i, p in enumerate(pairs):
            mark = "  disturbed" if p["disturbed"] else ""
            print(f"pair {i + 1} seed {p['seed']} ({p['first']} first){mark}")
            for name, _ in metrics:
                a, b = p["parent"][name], p["change"][name]
                ratio = f"{b / a:.3f}x" if a else "-"
                print(f"    {name:20} parent {a:<22.17g} change {b:<22.17g} {ratio}")
        print(f"-- {workload} summary (parent -> change; median [q1, q3])")
        for name, better in metrics:
            a = [p["parent"][name] for p in pairs]
            b = [p["change"][name] for p in pairs]
            won = sum((y > x) if better == "higher" else (y < x) for x, y in zip(a, b))
            lost = sum((y < x) if better == "higher" else (y > x) for x, y in zip(a, b))
            (aq1, am, aq3), (bq1, bm, bq3) = quartiles(a), quartiles(b)
            ratio = f"{bm / am:.3f}x" if am else "-"
            print(f"    {name:20} {am:.6g} [{aq1:.6g}, {aq3:.6g}] -> "
                  f"{bm:.6g} [{bq1:.6g}, {bq3:.6g}]  {ratio}  "
                  f"change ahead in {won}/{len(pairs)}, behind in {lost}")
        failed = {side: sum(p["failed"][side] for p in pairs) for side in sides}
        disturbed = [i + 1 for i, p in enumerate(pairs) if p["disturbed"]]
        print(f"    failed: parent {failed['parent']}, change {failed['change']}; "
              f"disturbed pairs: {disturbed or 'none'}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

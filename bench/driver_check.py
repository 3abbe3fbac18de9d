#!/usr/bin/env python3
"""Run the benchmark the way its driver does and judge it by the driver's rule.

    python3 bench/driver_check.py [-n 10] [-first-seed 1] [-out spreads.json]

For every workload of BENCHMARK.json the command is run n times, each time
with another --seed, with --trace 0 (and once with --trace 1, to see that
every per-layer metric is printed). For each end-to-end metric the distance
between the first and third quartile of the n values is taken as a share of
their median; the driver accepts the benchmark only if that spread stays
within the metric's bound (setup_s excepted), and the bounds were chosen so
that it stays within a third of it on the reference box. Run from the root
of the checkout, on an otherwise idle machine.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def run(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    start = time.time()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    took = time.time() - start
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit code {out.returncode}")
    res = json.loads(out.stdout.strip().splitlines()[-1])
    want = spec["per_layer"] if trace else spec["end_to_end"]
    if sorted(res) != ["attempted", "correct", "failed", "metrics"] or not res["correct"] or res["attempted"] < 1:
        sys.exit(f"{' '.join(cmd)}: bad result line {res}")
    if sorted(res["metrics"]) != sorted(m["name"] for m in want):
        sys.exit(f"{' '.join(cmd)}: metrics {sorted(res['metrics'])} are not the ones BENCHMARK.json lists")
    for m in want:
        if res["metrics"][m["name"]]["unit"] != m["unit"]:
            sys.exit(f"{' '.join(cmd)}: {m['name']} has unit {res['metrics'][m['name']]['unit']}, not {m['unit']}")
    return res, took


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("-n", type=int, default=10)
    ap.add_argument("-first-seed", type=int, default=1)
    ap.add_argument("-out")
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    report = {"first_seed": args.first_seed, "runs": args.n, "wall_s": {}, "values": {}, "spread": {}}
    worst = 0.0
    for w in (w["name"] for w in spec["workloads"]):
        _, took = run(spec, w, args.first_seed, 1)
        walls = [took]
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.n):
            res, took = run(spec, w, args.first_seed + i, 0)
            walls.append(took)
            if res["failed"]:
                sys.exit(f"{w} seed {args.first_seed + i}: {res['failed']} of {res['attempted']} requests failed")
            for name, xs in values.items():
                xs.append(res["metrics"][name]["value"])
        report["wall_s"][w], report["values"][w], report["spread"][w] = walls, values, {}
        for m in spec["end_to_end"]:
            xs = values[m["name"]]
            q1, _, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / statistics.median(xs)
            report["spread"][w][m["name"]] = spread
            share = spread / m["bound"]
            if m["name"] != "setup_s":
                worst = max(worst, share)
            note = "" if share <= 1 / 3 else ("  > bound/3" if share <= 1 else "  > BOUND")
            print(f"{w:16s} {m['name']:18s} median {statistics.median(xs):12.6g} {m['unit']:5s}"
                  f" spread {spread * 100:5.1f}%  bound {m['bound'] * 100:4.1f}%{note}", flush=True)
        print(f"{w:16s} slowest run {max(walls):.0f} s, all {sum(walls):.0f} s", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")
    if worst > 1:
        sys.exit("a spread exceeds its bound: the driver would refuse the benchmark")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run every workload over several seeds and print each metric's spread.

    python3 perfbench/report.py [--workloads derive,bound,count] \\
        [--seeds 1-10] [--seconds S] [--trace] [--save FILE]

For each workload and seed it runs perfbench/run.py once, one run at a
time, and prints every end-to-end metric by name and unit: the median over
the runs, the quartiles, and the spread (q3 - q1) / median next to the
metric's bound from BENCHMARK.json.  A spread below a third of the bound is
marked steady.  It also prints failed_frac, the jobs that failed their
check over the jobs attempted.  With --trace it adds one traced run per
workload (the first seed) and prints its per-layer metrics, including the
tracing overhead.  --save writes everything as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(workload, seed, seconds, trace):
    t0 = time.perf_counter()
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(lines[-2])["meta"]
    meta["run_s"] = time.perf_counter() - t0
    return meta, json.loads(lines[-1])


def summarize(values):
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--save")
    args = ap.parse_args()

    saved = {"seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    for wl in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            meta, result = run_once(wl, seed, args.seconds, False)
            runs.append(result)
            print(f"# {wl} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                + f"; probe median {meta['probe_s']['median'] * 1e3:.3f} ms, unscaled wall_s "
                f"{meta['unscaled_s']['wall_s']:.6g}, run {meta['run_s']:.1f} s", flush=True)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        rows = {}
        print(f"\n{wl}: {len(runs)} runs, {attempted} jobs, "
              f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
        print(f"  {'metric':<20}{'unit':<7}{'median':>12}{'q1':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}  steady")
        for m in spec["end_to_end"]:
            s = summarize([r["metrics"][m["name"]]["value"] for r in runs])
            s["values"] = [r["metrics"][m["name"]]["value"] for r in runs]
            rows[m["name"]] = s
            steady = "yes" if s["spread"] < m["bound"] / 3 else "NO"
            print(f"  {m['name']:<20}{m['unit']:<7}{s['median']:>12.6g}{s['q1']:>12.6g}"
                  f"{s['q3']:>12.6g}{s['spread']:>9.4f}{m['bound']:>7}  {steady}")
        entry = {"failed_frac": failed / attempted, "attempted": attempted,
                 "metrics": rows, "meta": meta}
        if args.trace:
            _, traced = run_once(wl, args.seeds[0], args.seconds, True)
            print(f"  traced run, seed {args.seeds[0]}, per pass:")
            for m in spec["per_layer"]:
                v = traced["metrics"][m["name"]]["value"]
                print(f"    {m['name']:<40}{v:>14.6g} {m['unit']}")
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        saved["workloads"][wl] = entry
        print(flush=True)
    if args.save:
        with open(args.save, "w") as fh:
            json.dump(saved, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())

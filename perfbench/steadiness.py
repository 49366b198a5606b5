#!/usr/bin/env python3
"""Steadiness check: run each workload on several seeds and report, for every
end-to-end metric, the median, the quartiles and the interquartile spread as
a share of the median, against the metric's bound in BENCHMARK.json.

    python3 perfbench/steadiness.py [--seeds 10] [--workloads sim_bmdos,...]
                                    [--first-seed 1] [--trace 0]

Run from the repository root. Exits 1 when a spread exceeds its metric's
bound, the failed share differs between runs, or a run is incorrect.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, seed, seconds, trace, extra=()):
    cmd = ["python3", os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    cmd += list(extra)
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ok = True
    for wl in workloads:
        values = {}
        shares = set()
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            r = run(wl, seed, bench["run_seconds"], args.trace)
            ok &= r["correct"]
            shares.add(r["failed"] / r["attempted"])
            for name, m in r["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        ok &= len(shares) == 1
        print(f"== {wl}: {args.seeds} seeds, failed share {sorted(shares)}")
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and args.trace == 0:
                flag = f" bound {bound}"
                if spread > bound:
                    flag += " EXCEEDED"
                    ok = False
                elif spread > bound / 3:
                    flag += " (above bound/3)"
            print(f"  {name:40s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}"
                  f"  spread {spread:7.4f}{flag}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

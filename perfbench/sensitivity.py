#!/usr/bin/env python3
"""Sensitivity check: double one layer's time through its outside wrapper and
show that the end-to-end metric mapped to that layer moves past its bound.

    python3 perfbench/sensitivity.py [--seeds 3] [--seconds N]

Run from the repository root. For each (layer, workload, metric) below it
alternates untraced runs with and without `--slow <layer>` on the same seeds
and compares the medians. Exits 1 when a doubled layer does not push its
metric past the bound in BENCHMARK.json.
"""
import argparse
import json
import os
import statistics
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from steadiness import ROOT, run  # noqa: E402

# layer flag -> (workload, end-to-end metric it should move). `socket` doubles
# every socket syscall in the process: the victim's and those of the clients,
# which run the program's own RealTransport.
CASES = [
    ("fs", "loopback_durable", "rx_frames_per_s"),
    ("socket", "loopback_durable", "rx_frames_per_s"),
    ("node", "sim_bmdos", "rx_frames_per_s"),
]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=3)
    ap.add_argument("--seconds", type=int, default=0,
                    help="run length (default: run_seconds from BENCHMARK.json)")
    args = ap.parse_args()
    bench = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ok = True
    for layer, workload, metric in CASES:
        base, slow = [], []
        for seed in range(1, args.seeds + 1):
            order = [False, True] if seed % 2 else [True, False]
            for slowed in order:
                extra = ["--slow", layer] if slowed else []
                r = run(workload, seed, args.seconds or bench["run_seconds"], 0, extra)
                ok &= r["correct"]
                (slow if slowed else base).append(r["metrics"][metric]["value"])
        b, s = statistics.median(base), statistics.median(slow)
        m = metrics[metric]
        worse = (s - b) / b if m["better"] == "lower" else (b - s) / b
        passed = worse > m["bound"]
        ok &= passed
        print(f"--slow {layer:6s} {workload:16s} {metric}: base {b:.6g} slowed {s:.6g} "
              f"worse by {worse:.3f} (bound {m['bound']}) {'PASS' if passed else 'FAIL'}")
        sys.stdout.flush()
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

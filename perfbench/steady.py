#!/usr/bin/env python3
"""Check that the benchmark is steady: two sets of runs of the same code.

Usage, from the root of a checkout:

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--traced]

Every run uses its own seed (set 1: 1..N, set 2: 1001..1000+N) and the
command, run length and bounds of BENCHMARK.json. For each end-to-end
metric of each workload it prints both sets' medians and quartiles, the
spread (Q3 - Q1) / median of each set, the shift of the second median
against the first in the metric's worse direction, and the bound. It also
prints each run's reference-loop time and compares the share of failed
operations between the sets. ``--traced`` adds one traced run per workload
and the tracing overhead: its operation time per round over the median of
the first set's. Raw results go to .bench_work/steady.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: two sets of runs of the same code; the second set's seeds are offset by 1000
SETS = 2


def run_once(spec, workload, seed, seconds, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    info = next(json.loads(x[len("# run "):]) for x in reversed(lines) if x.startswith("# run "))
    return {"seed": seed, "result": json.loads(lines[-1]), "info": info}


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    runs = {}  # (set, workload) -> list of runs
    for s in range(SETS):
        for w in names:
            for i in range(args.runs):
                r = run_once(spec, w, 1000 * s + i + 1, seconds, 0)
                runs.setdefault((s, w), []).append(r)
                info = r["info"]
                print(f"set {s + 1} {w:<14} seed {r['seed']:>4}  rounds {info['rounds']:>4}  "
                      f"wall {info['wall_s']:6.2f} s  ref loop {info['ref_loop_ms']:6.2f} ms "
                      f"({info['ref_loop_ms_min']:.2f}-{info['ref_loop_ms_max']:.2f})  "
                      f"failed {r['result']['failed']}/{r['result']['attempted']}", flush=True)

    report = {"seconds": seconds, "runs": args.runs, "workloads": {}}
    print()
    print(f"{'workload':<14} {'metric':<12} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'shift':>7} {'bound':>6}")
    for w in names:
        rows = {}
        for name, m in bounds.items():
            per_set = [summary([r["result"]["metrics"][name]["value"] for r in runs[(s, w)]])
                       for s in range(SETS)]
            a, b = per_set[0]["median"], per_set[1]["median"]
            shift = (b - a) / a if m["better"] == "lower" else (a - b) / a
            rows[name] = {"sets": per_set, "worse_shift": shift, "bound": m["bound"]}
            for s, st in enumerate(per_set):
                shown = f"{shift:+7.1%}" if s == 1 else ""
                print(f"{w:<14} {name:<12} {s + 1:>3} {st['median']:>12.6g} {st['q1']:>12.6g} "
                      f"{st['q3']:>12.6g} {st['spread']:>7.1%} {shown:>7} {m['bound']:>6}")
        shares = [Fraction(sum(r["result"]["failed"] for r in runs[(s, w)]),
                           sum(r["result"]["attempted"] for r in runs[(s, w)]))
                  for s in range(SETS)]
        print(f"{w:<14} failed share per set: {', '.join(str(x) for x in shares)}")
        report["workloads"][w] = {"metrics": rows, "failed_share": [str(x) for x in shares],
                                  "runs": {str(s + 1): runs[(s, w)] for s in range(SETS)}}

    if args.traced:
        print()
        for w in names:
            r = run_once(spec, w, 1, seconds, 1)
            base = statistics.median(x["info"]["scaled_op_s_per_round"] for x in runs[(0, w)])
            overhead = r["info"]["scaled_op_s_per_round"] / base - 1
            report["workloads"][w]["traced"] = {"run": r, "overhead": overhead}
            print(f"{w}: traced run, operation time per round {overhead:+.1%} against untraced")
            for name, m in r["result"]["metrics"].items():
                print(f"  {name:<32} {m['value']:>14.6g} {m['unit']}")

    out = os.path.join(ROOT, ".bench_work", "steady.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    print(f"\nraw results: {os.path.relpath(out, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

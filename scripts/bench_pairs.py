#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark and record every run.

Usage:

    python3 scripts/bench_pairs.py --parent DIR --change DIR \\
        --workload algebra,surgery,statesum-deep,pachner-long \\
        --seeds 1-10 --seconds 20 --out BENCH_<n>.json

DIR is the root of a checkout (a copy of the parent commit, and of the
change). ``--workload`` takes one workload or a comma-separated list. Each
seed is one pair, run for every listed workload in turn: both sides run
``perfbench/run.py`` of their own checkout with that seed, the parent first
in even pairs and the change first in odd ones. Every run is appended to
``--out`` (created if missing) as one record: workload, seed, pair, side,
run order, the end-to-end metrics, ``failed`` and ``attempted``; pairs
and run order continue the file's. Then, for each listed workload, each
side's failed and attempted operations, summed over the workload's pairs in
the file, are printed, and per end-to-end metric each side's median over
those pairs, the parent's quartile distance and the pairs the change wins.
The end-to-end metrics, and which direction of each is better, are those
of ``end_to_end`` in the repository's ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def end_to_end() -> dict:
    """Each end-to-end metric of the repository's benchmark and the
    direction, ``"lower"`` or ``"higher"``, that is better."""
    with open(Path(__file__).resolve().parents[1] / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def seeds(text: str) -> list:
    """``"1-10"`` or ``"3,5,9"`` as a list of seeds."""
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run(root: str, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"metrics": {k: result["metrics"][k]["value"] for k in end_to_end()},
            "failed": result["failed"], "attempted": result["attempted"]}


def summary(runs: list, workload: str) -> list:
    """Lines comparing the sides of ``workload``'s pairs: each side's failed
    operations over attempted ones, summed over the pairs, then one line per
    metric."""
    by_pair = {}
    for r in runs:
        if r["workload"] == workload:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r
    pairs = [p for p in by_pair.values() if len(p) == 2]
    failed = " ".join(
        f"{side} {sum(p[side]['failed'] for p in pairs)}/{sum(p[side]['attempted'] for p in pairs)}"
        for side in ("parent", "change"))
    lines = [f"{workload} failed: {failed}"]
    for name, better in end_to_end().items():
        parent = [p["parent"]["metrics"][name] for p in pairs]
        change = [p["change"]["metrics"][name] for p in pairs]
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        q1, _, q3 = statistics.quantiles(parent, n=4) if len(parent) > 1 else (0, 0, 0)
        lines.append(f"{workload} {name}: parent {statistics.median(parent):.4g} "
                     f"change {statistics.median(change):.4g} parent IQR {q3 - q1:.3g} "
                     f"change better in {wins}/{len(pairs)}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workload", type=lambda text: text.split(","), required=True)
    ap.add_argument("--seeds", type=seeds, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    record = {"runs": []}
    if os.path.exists(args.out):
        with open(args.out, encoding="utf-8") as fh:
            record = json.load(fh)
    runs = record["runs"]
    roots = {"parent": args.parent, "change": args.change}
    first = max((r["pair"] for r in runs), default=-1) + 1
    for pair, seed in enumerate(args.seeds, start=first):
        sides = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for workload in args.workload:
            for side in sides:
                out = run(roots[side], workload, seed, args.seconds)
                runs.append({"workload": workload, "seed": seed, "pair": pair, "side": side,
                             "order": len(runs), **out})
                with open(args.out, "w", encoding="utf-8") as fh:
                    json.dump(record, fh, indent=1)
                    fh.write("\n")
                print(json.dumps(runs[-1]), flush=True)
    for workload in args.workload:
        print("\n".join(summary(runs, workload)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

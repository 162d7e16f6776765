#!/usr/bin/env python3
"""Run one benchmark workload of tvo and print its metrics as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload surgery --seed 1 --seconds 20 --trace 0

The package is imported from the checkout's own ``src/``. With ``--trace 0``
the last line holds the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run. The line before it, starting ``# run``,
holds the run's bookkeeping, including the reference-loop times.

Times are scaled to a nominal host speed. The speed of a shared host drifts
by up to ~1.9x over seconds to minutes, from load outside this process. So
a short fixed pure-Python reference loop is timed before and after each
slice of operations, and every measured time is multiplied by the loop's
nominal time over the mean of the two samples that bracket it. The slow
phases slow tvo's pure-Python code more than a plain arithmetic loop, so
for the workloads that run mostly such code the reference also builds and
hashes a few thousand small objects (see reference_loop_ms).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

# Evaluation is single-threaded by design; BLAS threads would only add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

NAMES = ("algebra", "surgery", "statesum-deep", "pachner-long")
#: set-ups per run; setup_s is their median
SETUPS = 5
#: a fresh interpreter times ``import tvo`` this way for every set-up but the first
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import tvo; print(time.perf_counter() - t)")
#: the reference loop's time on the nominal host, without and with its object
#: part; times are scaled to it
REF_NOMINAL_MS = {False: 1.5, True: 3.6}
#: workloads that run mostly tvo's pure-Python code; their operations are
#: scaled by the reference loop with its object part
OBJECT_REFERENCE = ("surgery", "statesum-deep", "pachner-long")
#: operations between two reference samples span at least this long
REF_SLICE_S = 0.1
#: scaled times kept per operation; from then on each overwrites the oldest
MAX_SAMPLES = 256

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "peak_rss_mb": "MB"}

#: per-layer metrics: (name, unit); "<layer>.<function>_s" is that span's self time
PER_LAYER = (
    ("setup.import_s", "s"), ("setup.inputs_s", "s"),
    ("catalog.generators_s", "s"),
    ("dataio.load_modular_file_s", "s"), ("dataio.bytes_read", "B"),
    ("modular.verify_verlinde_s", "s"), ("modular.associative_ok_s", "s"),
    ("modular.fusion_from_S_s", "s"), ("modular.conjugate_equivalent_s", "s"),
    ("modular.double_data_s", "s"),
    ("tube.tube_pointed_s", "s"), ("tube.associativity_residual_s", "s"),
    ("tube.center_idempotents_s", "s"), ("tube.tube_modular_data_s", "s"),
    ("tube.traced_peak_mb", "MB"),
    ("surgery.lens_general_s", "s"), ("surgery.lens_p1_s", "s"), ("surgery.lens_p2_s", "s"),
    ("surgery.brieskorn_s", "s"), ("surgery.plumbing_invariant_s", "s"),
    ("surgery.calls", "count"), ("surgery.tree_vertices", "count"),
    ("statesum.tv_evaluate_s", "s"), ("statesum.layout_probe_s", "s"),
    ("statesum.verify_pentagon_s", "s"), ("statesum.edges", "count"),
    ("statesum.vertices", "count"),
    ("triangulation.pachner_23_s", "s"), ("triangulation.pachner_14_s", "s"),
    ("triangulation.classes_s", "s"), ("triangulation.moves", "count"),
)


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def reference_loop_ms(objects: bool = False) -> float:
    """A fixed pure-Python loop, best of two; its time tracks the speed of the host.

    The arithmetic part alone tracks numpy-bound work. With ``objects`` the
    time of a second part is added, which builds, filters and hashes a few
    thousand small objects: over 5-minute traces, scaling by both parts
    together took the spread of 20 s medians of tvo's pure-Python
    operations from 4-6 % to 2-3 %, where either part alone left them
    correlated with the host's speed (one too little, one too much).
    """
    best = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i % 7
        best = min(best, (perf_counter() - t0) * 1e3)
    if not objects:
        return best
    best_objects = float("inf")
    for _ in range(2):
        t0 = perf_counter()
        pairs = [_Pair(i, -i) for i in range(3000)]
        acc = sum(p.a * p.b for p in pairs if p.a & 1)
        frozenset(tuple(sorted((p.a % 17, p.a % 5))) for p in pairs)
        best_objects = min(best_objects, (perf_counter() - t0) * 1e3)
    return best + best_objects


def scale(before_ms: float, after_ms: float, objects: bool = False) -> float:
    """The factor from the host's speed, bracketed by two samples, to the nominal one."""
    return 2 * REF_NOMINAL_MS[objects] / (before_ms + after_ms)


def timed_scaled(fn):
    """(result, seconds, scale) of one call of ``fn``, bracketed by reference samples."""
    before = reference_loop_ms()
    t0 = perf_counter()
    out = fn()
    dt = perf_counter() - t0
    return out, dt, scale(before, reference_loop_ms())


def import_probe() -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout.strip().splitlines()[-1])


def run_rounds(ops, seconds, tracer=None, probe=None, objects=False):
    """Whole rounds of ``ops`` until about ``seconds`` have passed; returns the tallies.

    ``samples[i]`` holds the scaled times of ``ops[i]``, the last
    MAX_SAMPLES of them; ``kept[i]`` counts every one. The array is filled
    before the first round, so the memory it takes does not depend on the
    number of rounds. ``objects`` picks the reference loop (see
    reference_loop_ms).
    """
    import numpy as np

    from workloads import Clock

    clock = Clock()
    tally = {"rounds": 0, "attempted": 0, "failed": 0, "wrong": set(), "raw_s": 0.0,
             "scaled_s": 0.0, "samples": np.full((len(ops), MAX_SAMPLES), np.nan),
             "kept": [0] * len(ops), "errors": {}, "ref_ms": [reference_loop_ms(objects)]}
    samples, kept = tally["samples"], tally["kept"]
    pending = []
    last_ref = perf_counter()

    def sample():
        nonlocal last_ref
        ref = reference_loop_ms(objects)
        factor = scale(tally["ref_ms"][-1], ref, objects)
        for i, raw in pending:
            samples[i, kept[i] % MAX_SAMPLES] = raw * factor
            kept[i] += 1
            tally["scaled_s"] += raw * factor
        pending.clear()
        tally["ref_ms"].append(ref)
        last_ref = perf_counter()

    start = perf_counter()
    while True:
        round_start = perf_counter()
        if round_start - last_ref >= REF_SLICE_S:
            sample()
        outputs = {}
        for i, op in enumerate(ops):
            clock.elapsed = 0.0
            tally["attempted"] += 1
            if tracer is not None:
                for name, amount in op.counts.items():
                    tracer.count(name, amount)
            try:
                outputs[op.key] = op.run(clock)
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
                name = type(exc).__name__
                tally["errors"][name] = tally["errors"].get(name, 0) + 1
                tally["failed"] += 1
                continue
            finally:
                tally["raw_s"] += clock.elapsed
            pending.append((i, clock.elapsed))
            if perf_counter() - last_ref >= REF_SLICE_S:
                sample()
            if op.probe is not None and probe is not None:
                probe(op.probe(outputs[op.key]))
        for op in ops:
            if op.key not in outputs:
                continue
            try:
                ok = op.check(outputs[op.key], outputs)
            except Exception:  # noqa: BLE001 - a check that cannot complete is a wrong value
                ok = False
            if not ok:
                tally["wrong"].add(op.key)
                tally["failed"] += 1
        tally["rounds"] += 1
        now = perf_counter()
        if now - start + 0.5 * (now - round_start) >= seconds:
            tally["wall_s"] = now - start
            sample()
            return tally


def typical_times(ops, tally):
    """Each operation's median scaled time, for every operation that ran and was right."""
    return [float(statistics.median(tally["samples"][i, :min(n, MAX_SAMPLES)]))
            for i, (op, n) in enumerate(zip(ops, tally["kept"]))
            if n and op.key not in tally["wrong"]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "tvo", "__init__.py")):
        print(f"perfbench: no tvo package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    before = reference_loop_ms()
    t0 = perf_counter()
    import tvo
    imports = [(perf_counter() - t0) * scale(before, reference_loop_ms())]
    if os.path.dirname(os.path.abspath(tvo.__file__)) != os.path.join(SRC, "tvo"):
        print(f"perfbench: imported tvo from {tvo.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import workloads
    from spans import Tracer

    tracer = Tracer().install() if args.trace else None
    for _ in range(SETUPS - 1):
        _, dt, factor = timed_scaled(import_probe)
        imports.append(dt * factor)
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        inputs, setup_scales = [], []
        for _ in range(SETUPS):
            if tracer is not None:
                tracer.begin_setup()
            workload, dt, factor = timed_scaled(
                lambda: workloads.WORKLOADS[args.workload](args.seed, workdir, False))
            inputs.append(dt * factor)
            setup_scales.append(factor)
            if tracer is not None:
                for name, amount in workload.setup_counts.items():
                    tracer.count(name, amount)
        probe = None
        if tracer is not None:
            tracer.begin_run()
            sixj1 = tvo.pointed_sixj(1, 0)
            tv_evaluate = tracer.originals["tv_evaluate"]

            def probe(tri):
                # the classes are counted where the operations compute them
                tracer.muted = True
                tri.vertex_class, tri.edge_class, tri.face_classes, tri.orientation
                tracer.muted = False
                tracer.span("statesum.layout_probe", tv_evaluate, sixj1, tri)

        tally = run_rounds(workload.ops, args.seconds, tracer, probe,
                           args.workload in OBJECT_REFERENCE)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    typical = typical_times(workload.ops, tally)
    rounds = tally["rounds"]
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": rounds, "ops_per_round": len(workload.ops), "wall_s": tally["wall_s"],
        "raw_op_s_per_round": tally["raw_s"] / rounds,
        "scaled_op_s_per_round": sum(typical),
        "ref_loop_ms": statistics.median(tally["ref_ms"]),
        "ref_loop_ms_min": min(tally["ref_ms"]), "ref_loop_ms_max": max(tally["ref_ms"]),
        "errors": tally["errors"], "wrong": len(tally["wrong"]),
    }
    if tracer is not None:
        info["span_calls_per_round"] = {k: v / rounds for k, v in tracer.run["calls"].items()}
    print("# run " + json.dumps(info), flush=True)

    if tracer is None:
        values = {
            "setup_s": statistics.median(i + s for i, s in zip(imports, inputs)),
            "ops_per_s": len(typical) / sum(typical),
            "op_p50_ms": statistics.median(typical) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    else:
        setup_scale = statistics.median(setup_scales)
        run_scale = tally["scaled_s"] / tally["raw_s"]
        metrics = layer_metrics(tracer, rounds, imports, inputs, setup_scale, run_scale)
    result = {"correct": not tally["wrong"], "attempted": tally["attempted"],
              "failed": tally["failed"], "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


def layer_metrics(tracer, rounds, imports, inputs, setup_scale, run_scale):
    """Each figure is one set-up's share (median over set-ups) plus one round's share.

    Span times are scaled like the operations: set-up spans by the set-ups'
    median scale, spans in the rounds by the run's overall scale.
    """
    def per(kind, name, setup_factor=1.0, run_factor=1.0):
        setup = statistics.median(s[kind].get(name, 0) for s in tracer.setups)
        return setup * setup_factor + tracer.run[kind].get(name, 0) * run_factor / rounds

    out = {}
    for metric, unit in PER_LAYER:
        if metric == "setup.import_s":
            value = statistics.median(imports)
        elif metric == "setup.inputs_s":
            value = statistics.median(inputs)
        elif metric == "tube.traced_peak_mb":
            value = tracer.peak_bytes / 2**20
        elif metric.endswith("_s"):
            value = per("self_s", metric[:-2], setup_scale, run_scale)
        else:
            value = per("counts", metric)
        out[metric] = {"value": value, "unit": unit}
    return out


if __name__ == "__main__":
    sys.exit(main())

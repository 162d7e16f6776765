"""Small-size tests of the benchmark itself.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import tvo  # noqa: E402
import workloads  # noqa: E402


def small_round(name, tmp_path):
    workload = workloads.WORKLOADS[name](7, str(tmp_path), True)
    return run.run_rounds(workload.ops, 0.0)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_small_workload_checks_pass(name, tmp_path):
    tally = small_round(name, tmp_path)
    assert tally["rounds"] == 1 and not tally["wrong"]
    # only the fixed long chains on the toric code fail, with RecursionError today
    expected = len(workloads.LONG_CHAINS) if name == "surgery" else 0
    assert tally["failed"] == sum(tally["errors"].values()) == expected


def test_wrong_surgery_value_is_counted_as_failed(tmp_path, monkeypatch):
    original = tvo.lens_general

    def off_by_a_little(data, p, q):
        value = original(data, p, q)
        return tvo.InvariantValue(value.value * (1 + 1e-6), value.method)

    monkeypatch.setattr(tvo, "lens_general", off_by_a_little)
    tally = small_round("surgery", tmp_path)
    assert tally["wrong"]
    assert tally["failed"] == len(tally["wrong"]) + sum(tally["errors"].values())


def test_wrong_state_sum_is_counted_as_failed(tmp_path, monkeypatch):
    original = tvo.tv_evaluate
    monkeypatch.setattr(tvo, "tv_evaluate", lambda sixj, tri: tvo.InvariantValue(
        original(sixj, tri).value.conjugate() + 1e-3, "wrong"))
    tally = small_round("statesum-deep", tmp_path)
    assert len(tally["wrong"]) == tally["failed"] == tally["attempted"]


def test_tree_kernel_count_matches_brute_force():
    rng = np.random.default_rng(0)
    for _ in range(20):
        size = int(rng.integers(1, 6))
        framings = [int(x) for x in rng.integers(-3, 4, size=size)]
        edges = [(int(rng.integers(v)), v) for v in range(1, size)]
        for n in (2, 3, 4):
            brute = 0
            for x in itertools.product(range(n), repeat=size):
                Lx = [framings[v] * x[v] for v in range(size)]
                for u, v in edges:
                    Lx[u] += x[v]
                    Lx[v] += x[u]
                brute += all(y % n == 0 for y in Lx)
            assert checks.tree_kernel_count(framings, edges, n) == brute


def test_complex_counts_and_orientability():
    s3 = tvo.boundary_4_simplex()
    assert checks.complex_counts(s3.num_tets, s3.gluings) == (5, 10, 10, 5, True)
    # two tetrahedra glued by identity maps on three faces and an odd map on the fourth
    ident, odd = (0, 1, 2, 3), (0, 2, 1, 3)
    gluings = {(0, f): (1, ident) for f in range(4)} | {(1, f): (0, ident) for f in range(4)}
    gluings[(0, 0)] = (1, odd)
    gluings[(1, 0)] = (0, odd)
    assert checks.complex_counts(2, gluings)[4] is False


def test_fusion_laws_against_small_hand_values():
    # Z/2 double: (1|0) x (1|0) = (0|0); SU(2)_2: 1 x 1 = 0 + 2
    N = checks.abelian_double_fusion((2,))
    assert N[2, 2, 0] == 1 and N[2, 2].sum() == 1
    su2 = checks.su2_fusion(2)
    assert su2[1, 1].tolist() == [1, 0, 1]


def run_cli(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_prints_every_metric_of_benchmark_json(trace):
    proc = run_cli(["--workload", "surgery", "--seed", "3", "--seconds", "0.5",
                    "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[-2].startswith("# run ")
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    info = json.loads(lines[-2][len("# run "):])
    assert result["attempted"] == info["rounds"] * info["ops_per_round"]
    assert result["failed"] == info["rounds"] * len(workloads.LONG_CHAINS)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    listed = spec["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_cli(["--workload", "surgery", "--seed", "1", "--seconds", "1", "--trace", "0"],
                   tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

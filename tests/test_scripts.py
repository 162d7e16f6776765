"""Smoke tests: the scripts run against the library and print what they claim."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_pachner_demo_value_is_constant():
    proc = run_script("pachner_demo.py", "--moves", "30", "--max-new-vertices", "20")
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert len(rows) == 31
    assert len({row.split()[-1] for row in rows}) == 1, proc.stdout


def test_lens_table_rows():
    import math

    from tvo import e6_lens_reference
    from tvo.cli import fmt_value

    proc = run_script("lens_table.py", "--pmax", "6")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    e6_rows = lines[2:8]
    for p, row in enumerate(e6_rows, start=1):
        fields = row.split()
        assert int(fields[0]) == p
        assert " ".join(fields[1:3]) == fmt_value(e6_lens_reference(p, 1))
    for n in (2, 3, 4):
        row = next(line for line in lines if line.startswith(f"Z/{n}:"))
        assert row.split()[1:] == [f"{math.gcd(p, n) / n:.4f}" for p in range(1, 7)]
    p3 = next(line for line in lines if line.strip().startswith("p=3:")).split()
    l31 = complex(float(p3[2]), float(p3[3]))
    l32 = complex(float(p3[5]), float(p3[6]))
    assert abs(l32 - l31.conjugate()) < 1e-12 and abs(l31.imag) > 0.5


def test_fixture_table_matches_the_source():
    import runpy

    render = runpy.run_path(str(ROOT / "scripts" / "export_fixtures.py"))["render"]
    assert (ROOT / "docs" / "golden_fixtures.txt").read_text(encoding="utf-8") == render()


def test_untested_lines_names_the_lines_a_test_file_leaves_unrun():
    proc = run_script("untested_lines.py", str(ROOT / "tests" / "test_tube.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    unrun = [line for line in proc.stdout.splitlines() if line.startswith("src/")]
    assert all(re.fullmatch(r"src/tvo/\w+\.py:[1-9]\d*", line) for line in unrun)
    # the tube's own tests run every line of tvo.tube, each of the ten
    # refusals of the center and the modular data read-out among them, and
    # leave the surgery engine unrun
    tube = (ROOT / "src" / "tvo" / "tube.py").read_text(encoding="utf-8").splitlines()
    refusals = [i for i, text in enumerate(tube, start=1) if "raise DecompositionError" in text]
    assert len(refusals) == 10
    assert not [line for line in unrun if line.startswith("src/tvo/tube.py:")]
    assert any(line.startswith("src/tvo/surgery.py:") for line in unrun)


@pytest.mark.parametrize("module", ["catalog", "modular", "surgery", "statesum"])
def test_each_evaluator_module_is_run_whole_by_its_own_tests(module):
    proc = run_script("untested_lines.py", str(ROOT / "tests" / f"test_{module}.py"))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert not [line for line in proc.stdout.splitlines() if line.startswith(f"src/tvo/{module}.py:")]


def test_bench_pairs_alternates_sides_and_appends(tmp_path, capsys):
    import json
    import runpy

    main = runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"))["main"]
    calls = []

    def fake_run(root, workload, seed, seconds):
        calls.append((root, seed))
        speed = {"old": 10.0, "new": 20.0}[root] + seed
        return {"metrics": {"setup_s": 0.2, "ops_per_s": speed, "op_p50_ms": 1e3 / speed,
                            "peak_rss_mb": 40.0}, "failed": 0, "attempted": 10}

    main.__globals__["run"] = fake_run
    out = tmp_path / "bench.json"
    args = ["--parent", "old", "--change", "new", "--workload", "w", "--seconds", "1",
            "--out", str(out)]
    main([*args, "--seeds", "1-2"])
    main([*args, "--seeds", "7"])
    assert calls == [("old", 1), ("new", 1), ("new", 2), ("old", 2), ("old", 7), ("new", 7)]
    runs = json.loads(out.read_text())["runs"]
    assert [(r["order"], r["pair"], r["seed"], r["side"]) for r in runs] == [
        (0, 0, 1, "parent"), (1, 0, 1, "change"), (2, 1, 2, "change"), (3, 1, 2, "parent"),
        (4, 2, 7, "parent"), (5, 2, 7, "change"),
    ]
    assert set(runs[0]) == {"workload", "seed", "pair", "side", "order", "metrics", "failed",
                            "attempted"}
    summary = capsys.readouterr().out.splitlines()[-4:]
    assert summary[1] == ("w ops_per_s: parent 12 change 22 parent IQR 6 "
                          "change better in 3/3")


def test_bench_pairs_prints_each_sides_failed_share(tmp_path, capsys):
    import runpy

    main = runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"))["main"]

    def fake_run(root, workload, seed, seconds):
        # the change fails one operation in seed 2 and two in seed 3
        failed = {"old": 0, "new": max(seed - 1, 0)}[root]
        return {"metrics": {"setup_s": 0.2, "ops_per_s": 10.0, "op_p50_ms": 100.0,
                            "peak_rss_mb": 40.0},
                "failed": failed, "attempted": 10 + seed}

    main.__globals__["run"] = fake_run
    args = ["--parent", "old", "--change", "new", "--seconds", "1",
            "--out", str(tmp_path / "bench.json")]
    main([*args, "--workload", "w", "--seeds", "1-3"])
    main([*args, "--workload", "other", "--seeds", "4"])  # not summed into w's line
    main([*args, "--workload", "w", "--seeds", "5"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[-5] == "w failed: parent 0/51 change 7/51"
    assert [line.split(":")[0] for line in lines[-4:]] == [
        "w setup_s", "w ops_per_s", "w op_p50_ms", "w peak_rss_mb"]


def test_bench_pairs_runs_each_pair_on_every_listed_workload(tmp_path, capsys):
    import json
    import runpy

    main = runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"))["main"]
    calls = []

    def fake_run(root, workload, seed, seconds):
        calls.append((root, workload, seed))
        speed = {"old": 10.0, "new": 20.0}[root] + {"a": 0.0, "b": 100.0}[workload]
        return {"metrics": {"setup_s": 0.2, "ops_per_s": speed, "op_p50_ms": 1e3 / speed,
                            "peak_rss_mb": 40.0}, "failed": 0, "attempted": 10}

    main.__globals__["run"] = fake_run
    out = tmp_path / "bench.json"
    main(["--parent", "old", "--change", "new", "--workload", "a,b", "--seeds", "1-2",
          "--seconds", "1", "--out", str(out)])
    assert calls == [("old", "a", 1), ("new", "a", 1), ("old", "b", 1), ("new", "b", 1),
                     ("new", "a", 2), ("old", "a", 2), ("new", "b", 2), ("old", "b", 2)]
    runs = json.loads(out.read_text())["runs"]
    assert [(r["workload"], r["pair"], r["side"]) for r in runs[:4]] == [
        ("a", 0, "parent"), ("a", 0, "change"), ("b", 0, "parent"), ("b", 0, "change")]
    lines = capsys.readouterr().out.splitlines()[-10:]
    assert [line.split(":")[0] for line in lines] == [
        f"{w} {name}" for w in "ab"
        for name in ("failed", "setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb")]
    assert lines[2] == "a ops_per_s: parent 10 change 20 parent IQR 0 change better in 2/2"
    assert lines[7] == "b ops_per_s: parent 110 change 120 parent IQR 0 change better in 2/2"

"""Smoke tests: the scripts run against the library and print what they claim."""

import os
import subprocess
import sys
from pathlib import Path

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

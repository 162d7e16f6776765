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

#!/usr/bin/env python3
"""Print the library lines that no test runs.

Usage:

    python3 scripts/untested_lines.py [PYTEST ARGS ...]

Runs pytest in this process (on ``tests/`` when no argument is given)
under a ``sys.settrace`` line tracer that records the lines run in frames
of ``src/tvo/*.py``, then prints each executable line of those files that
no test ran, one per line as ``path:line`` with the path relative to the
repository root. The executable lines are those the compiler numbers in
each file's code objects. Lines that run only in a subprocess (``python
-m tvo``, the scripts' own smoke tests) count as not run. The exit status
is pytest's; with failing tests the list is still printed, but it is the
list of a partial run. The standard library only, since a coverage tool
need not be installed.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LIBRARY = ROOT / "src" / "tvo"


def executable_lines(path: Path) -> set:
    """The line numbers the compiler gives the code of ``path``, nested
    functions and classes included."""
    code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)  # None or 0: no source line
        stack.extend(c for c in co.co_consts if isinstance(c, type(code)))
    return lines


class LineTracer:
    """Records the lines run in frames whose file is in ``LIBRARY``."""

    def __init__(self):
        self.hit = {}  # resolved path -> set of line numbers
        self._files = {}  # co_filename -> its set in self.hit, or None outside the library

    def _lines(self, filename: str):
        if filename not in self._files:
            path = Path(filename).resolve()
            inside = path.parent == LIBRARY and path.suffix == ".py"
            self._files[filename] = self.hit.setdefault(path, set()) if inside else None
        return self._files[filename]

    def __call__(self, frame, event, arg):
        lines = self._lines(frame.f_code.co_filename)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local


def main(argv: list) -> int:
    import pytest

    tracer = LineTracer()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or [str(ROOT / "tests")])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for path in sorted(LIBRARY.glob("*.py")):
        run = tracer.hit.get(path.resolve(), set())
        for line in sorted(executable_lines(path) - run):
            print(f"{path.relative_to(ROOT)}:{line}")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

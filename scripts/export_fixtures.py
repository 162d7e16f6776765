#!/usr/bin/env python3
"""Regenerate docs/golden_fixtures.txt from the fixture constants in the source."""

import os

from tvo import golden_fixtures


def render() -> str:
    """The text of docs/golden_fixtures.txt: one line per golden fixture."""
    lines = [
        "# Published invariant values shipped as golden fixtures.",
        "# columns: source  manifold  re  im  [note]",
    ]
    for fx in golden_fixtures():
        m = fx.manifold
        name = f"L({m[1]},{m[2]})" if m[0] == "lens" else f"M({m[1]},{m[2]},{m[3]})"
        note = f"  # {fx.note}" if fx.note else ""
        lines.append(f"{fx.source:<10} {name:<10} {fx.value.real:+.15f} {fx.value.imag:+.15f}{note}")
    return "\n".join(lines) + "\n"


def main():
    out_path = os.path.join(os.path.dirname(__file__), "..", "docs", "golden_fixtures.txt")
    with open(os.path.abspath(out_path), "w", encoding="utf-8") as fh:
        fh.write(render())
    print(f"wrote {os.path.abspath(out_path)} ({len(golden_fixtures())} fixtures)")


if __name__ == "__main__":
    main()

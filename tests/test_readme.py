"""The README's library example runs against the current API."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def section_code(text: str, heading: str) -> str:
    """The first fenced Python block under a `## ` heading."""
    section = text.split(f"\n{heading}\n", 1)[1].split("\n## ", 1)[0]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, f"no Python block under {heading!r}"
    return match.group(1)


def test_library_example_runs(capsys):
    code = section_code(README.read_text(encoding="utf-8"), "## Library example")
    exec(compile(code, f"{README.name}: Library example", "exec"), {})
    printed = capsys.readouterr().out.split("\n")
    assert printed[0].startswith("True ")

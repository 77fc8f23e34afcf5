"""The documented API: the README's library quick start runs, and every name
``effchan`` exports resolves."""

import re
from pathlib import Path

import effchan

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_quick_start_runs():
    section = README.read_text().split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})


def test_every_export_resolves():
    assert [name for name in effchan.__all__ if not hasattr(effchan, name)] == []

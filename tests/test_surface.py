"""The package root exports what the README's Library section documents."""

import ast
import re
from pathlib import Path

import multiworld

ROOT = Path(__file__).resolve().parents[1]


def library_example() -> str:
    """The python block of the README's ``## Library`` section, as CI's
    wheel step extracts it."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"^## Library\n.*?^```python\n(.*?)^```", readme, re.M | re.S)[1]


def test_every_exported_name_resolves():
    assert len(set(multiworld.__all__)) == len(multiworld.__all__)
    missing = [name for name in multiworld.__all__ if not hasattr(multiworld, name)]
    assert missing == []


def test_readme_library_example_runs_as_written(monkeypatch):
    source = library_example()
    imported = {alias.name for node in ast.walk(ast.parse(source))
                if isinstance(node, ast.ImportFrom) and node.module == "multiworld"
                for alias in node.names}
    assert imported and imported <= set(multiworld.__all__)
    monkeypatch.chdir(ROOT)  # the example reads programs/ by a relative path
    scope: dict = {}
    exec(compile(source, "README.md", "exec"), scope)
    assert (scope["ok"], scope["first_divergence"]) == (True, None)

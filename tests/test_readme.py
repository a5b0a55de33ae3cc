"""The README's library quickstart runs as written, and its layout names every module."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quickstart_runs(capsys):
    # The first python block, run as a reader would paste it; it starts a
    # pool of at most 4 workers.
    block = re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    exec(compile(block.group(1), str(README), "exec"), {"__name__": "readme_quickstart"})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines[:2]] == ["omp", "cosamp"]
    assert len(lines) == 3


def test_readme_layout_names_every_module():
    layout = re.search(r"## Layout\n\n```\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    named = set(re.findall(r"^\s+(\w+\.py)\s", layout.group(1), re.M))
    modules = {p.name for p in (README.parent / "src" / "csdoa").glob("*.py")} - {"__init__.py"}
    assert modules <= named, sorted(modules - named)

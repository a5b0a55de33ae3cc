"""The README's library quickstart runs as written."""

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

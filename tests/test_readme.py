"""The README's Python quick start runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert len(blocks) == 1, "the README holds one Python block, the quick start"
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    printed = [float(v) for v in capsys.readouterr().out.split()]
    assert len(printed) == 2 and all(v > 0 for v in printed), printed

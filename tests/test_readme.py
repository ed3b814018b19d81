"""Every ``python`` block of README.md runs as written, so the examples of
the library and of a user-defined recurrence stay true to the code."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                    re.MULTILINE | re.DOTALL)


def test_readme_has_python_blocks():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("source", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_block_runs(source, capsys):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out

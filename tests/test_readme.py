"""README's Python quick start runs as printed."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    section = README.read_text().split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)[1]
    scope = {}
    exec(compile(block, "README.md quick start", "exec"), scope)
    assert scope["plug"].value == pytest.approx(0.5, abs=0.05)
    assert scope["clip"].value == pytest.approx(scope["plug"].value, abs=1e-6)
    assert scope["result"].log10_n == pytest.approx(14.756, abs=1e-3)
    assert len(capsys.readouterr().out.splitlines()) == 3

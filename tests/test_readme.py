"""The README's library quick start runs as written."""
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    exec(compile(block, str(README), "exec"), {"__name__": "readme"})
    gamma_fit, gamma_mean, r_squared = map(float, capsys.readouterr().out.split())
    assert 0.0 < r_squared <= 1.0

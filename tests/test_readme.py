"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    (code,) = re.findall(r"```python\n(.*?)```", section, flags=re.DOTALL)
    return code


def test_library_example_runs(capsys):
    exec(compile(library_example(), str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.strip()  # it prints the constants and iterations

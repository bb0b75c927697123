"""The README's Library example runs as written, and its Tolerances
table lists every constant of ``config`` with its value."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    exec(compile(block, f"{README.name} (Library)", "exec"), {})


def test_readme_tolerances_table_lists_every_config_constant():
    from spectroid import config

    section = README.read_text(encoding="utf-8").split("\n## Tolerances\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]+) \|", section, re.M)
    names = [name for name, _ in rows]
    want = [name for name in config.__all__ if name != "resolve_tol"]
    assert sorted(names) == sorted(want)
    for name, value in rows:
        assert float(value) == getattr(config, name), name

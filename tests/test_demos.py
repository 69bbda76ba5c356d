"""The narrative scripts in demos/ and the README's library quick start run
to completion against the public API."""
import re
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("path", DEMOS + [README], ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    if path == README:  # its first python block, the library quick start
        code = re.search(r"```python\n(.*?)```", path.read_text(), re.S).group(1)
        exec(compile(code, str(path), "exec"), {"__name__": "__main__"})
    else:
        runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_python(args, cwd):
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": pythonpath},
        timeout=120,
    )


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    result = _run_python([str(demo)], tmp_path)
    assert result.returncode == 0, result.stderr


def test_readme_quick_start_runs(tmp_path):
    # The first python block under the README's "Library quick start" heading.
    readme = (ROOT / "README.md").read_text()
    match = re.search(r"^## Library quick start\n.*?^```python\n(.*?)^```", readme, re.M | re.S)
    assert match, "README has no python block under 'Library quick start'"
    result = _run_python(["-c", match.group(1)], tmp_path)
    assert result.returncode == 0, result.stderr

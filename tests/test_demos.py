"""Every script under demos/, and the README's library quick start, runs to
completion against the library as it is."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tcnad

REPO = Path(__file__).parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def _run(script: Path, tmp_path: Path) -> subprocess.CompletedProcess:
    # the child imports the same tcnad as this suite; anything it writes,
    # temporary directories included, lands in tmp_path
    root = str(Path(tcnad.__file__).parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp_path)}
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    _run(demo, tmp_path)


def test_readme_library_quick_start_runs(tmp_path):
    section = (REPO / "README.md").read_text().split("## Quick start: library", 1)[1]
    script = tmp_path / "quick_start.py"
    script.write_text(section.split("```python\n", 1)[1].split("```", 1)[0])
    # it prints the chosen threshold, precision, recall and F1
    printed = [float(v) for v in _run(script, tmp_path).stdout.split()]
    assert len(printed) == 4 and all(0 <= v <= 1 for v in printed[1:])

"""The demos and the README's library quick start run as published."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import voaleak

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    env = dict(os.environ, MPLBACKEND="Agg")
    src = str(Path(voaleak.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True)


def test_six_demos_found():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    child = run_python([str(demo)], tmp_path)
    assert child.returncode == 0, child.stderr


README_BLOCKS = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(),
                           flags=re.DOTALL)


def test_readme_quick_start_runs(tmp_path):
    assert README_BLOCKS, "README has no python block"
    child = run_python(["-c", README_BLOCKS[0]], tmp_path)
    assert child.returncode == 0, child.stderr
    assert "secret bits per pulse" in child.stdout


@pytest.mark.parametrize("block", README_BLOCKS[1:])
def test_readme_example_runs(block, tmp_path):
    child = run_python(["-c", block], tmp_path)
    assert child.returncode == 0, child.stderr

"""The demos and the README's examples and CLI commands run as published."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import voaleak

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_python(args, cwd):
    # Any warning fails the run, as pytest's filterwarnings makes it fail
    # a test.
    env = dict(os.environ, MPLBACKEND="Agg", PYTHONWARNINGS="error")
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


README = (ROOT / "README.md").read_text()
README_BLOCKS = re.findall(r"```python\n(.*?)```", README, flags=re.DOTALL)


def test_readme_quick_start_runs(tmp_path):
    assert README_BLOCKS, "README has no python block"
    child = run_python(["-c", README_BLOCKS[0]], tmp_path)
    assert child.returncode == 0, child.stderr
    assert "secret bits per pulse" in child.stdout


@pytest.mark.parametrize("block", README_BLOCKS[1:])
def test_readme_example_runs(block, tmp_path):
    child = run_python(["-c", block], tmp_path)
    assert child.returncode == 0, child.stderr


def readme_commands():
    """Arguments of every `voaleak` line in the README's sh blocks."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README, flags=re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["voaleak"]:
                commands.append(words[1:])
    return commands


README_COMMANDS = readme_commands()


def test_readme_commands_found():
    assert README_COMMANDS, "README has no voaleak command"


@pytest.mark.parametrize("args", README_COMMANDS,
                         ids=[" ".join(a) for a in README_COMMANDS])
def test_readme_command_runs(args, tmp_path):
    args = [str(ROOT / a) if a.startswith("configs/") else a for a in args]
    child = run_python(["-m", "voaleak.cli", *args], tmp_path)
    assert child.returncode == 0, child.stderr
    assert child.stderr == ""

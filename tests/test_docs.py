"""The demos and the README's examples and CLI commands run as published."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import voaleak
from voaleak.leakage import EmissionSpec
from voaleak.scenario import _CHANNEL_KEYS, _KEYS, MODES, config_from_mapping

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


def config_key_rows():
    """(modes, key, default) of each row of the README's config key table."""
    table = README.split("<!-- config-keys -->")[1].split("<!-- /config-keys -->")[0]
    rows = []
    for line in table.strip().splitlines()[2:]:
        modes, key, default, _ = (cell.strip() for cell in line.strip("|").split("|"))
        rows.append((modes.split(", "), key.strip("`"), default))
    return rows


CONFIG_KEY_ROWS = config_key_rows()
# The least valid config of each mode: required keys only.
MODE_BASES = {
    "passive_tha": {},
    "dual_source": {},
    "fringe": {"fringe.reference_trace": "ref.csv", "fringe.unknown_trace": "unk.csv",
               "fringe.lambda_ref_nm": "1550"},
    "iv_fit": {"ivfit.trace": "iv.csv"},
    "device": {"emission.1.count_rate": "1e7", "emission.1.pulse_width": "1e-9"},
}
# Keys read only together with others.
COMPANIONS = {"leakage.drive_voltage": {"leakage.count_rate": "1e7",
                                        "leakage.pulse_width": "1e-9"}}


def test_config_key_table_covers_every_mode():
    assert {mode for modes, _, _ in CONFIG_KEY_ROWS for mode in modes} == set(MODES)


def package_config_keys():
    """(mode, key) of each key the package reads; N stands for an emission block."""
    keys = {(mode, key) for mode, rows in _KEYS.items() for key, *_ in rows}
    for mode in ("passive_tha", "dual_source"):
        keys |= {(mode, key) for key, *_ in _CHANNEL_KEYS}
        keys |= {(mode, f"leakage.{name}") for name in EmissionSpec._fields}
    keys |= {("device", f"emission.N.{name}") for name in EmissionSpec._fields}
    return keys


def test_config_key_table_lists_every_key_read():
    listed = {(mode, key) for modes, key, _ in CONFIG_KEY_ROWS for mode in modes}
    assert listed == package_config_keys()


@pytest.mark.parametrize("modes, key, default", CONFIG_KEY_ROWS,
                         ids=[row[1] for row in CONFIG_KEY_ROWS])
def test_config_key_table_default(modes, key, default):
    # A key given at its listed default builds the same config as the key
    # left out: a stale default, or a key the mode does not read, fails.
    key = key.replace(".N.", ".1.")
    for mode in modes:
        base = {"mode": mode, **MODE_BASES[mode], **COMPANIONS.get(key, {})}
        if default == "required":
            assert key in base
            continue
        if default == "none":
            continue
        given = config_from_mapping({**base, key: default})
        assert given == config_from_mapping(base), (mode, key)

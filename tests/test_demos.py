"""Smoke test: every demo runs to completion against the source tree.

Each demo runs in its own process with PYTHONPATH pointing at `src`, in a
temporary working directory. The shell demo calls the `d2moe` entry point;
a shim on PATH stands in for it, running `python -m d2moe.cli`.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SHELL_DEMOS = sorted((ROOT / "demos").glob("*.sh"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", SHELL_DEMOS, ids=[d.name for d in SHELL_DEMOS])
def test_shell_demo_runs(demo, tmp_path):
    bash = shutil.which("bash")
    if bash is None:
        pytest.skip("bash is not installed")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "d2moe"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m d2moe.cli "$@"\n', encoding="utf-8")
    shim.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    proc = subprocess.run([bash, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr

"""Smoke test: every demo and every Python example in README.md runs to
completion against the source tree.

Each demo, and each ```python block of the README, runs in its own process
with PYTHONPATH pointing at `src`, in a temporary working directory. The
shell demo calls the `d2moe` entry point; a shim on PATH stands in for it,
running `python -m d2moe.cli`.
"""

import os
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import d2moe

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SHELL_DEMOS = sorted((ROOT / "demos").glob("*.sh"))
README = (ROOT / "README.md").read_text(encoding="utf-8")
README_BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)

# what the README, the demos and the benchmark reach through the package;
# everything else is imported from its module
PUBLIC_NAMES = {
    "CompressionConfig", "compress", "evaluate", "ratio_frontier", "gen_fixture",
    "moe_forward_dense", "compressed_model_forward", "load_any", "save_model",
    "save_compressed_model", "container_load", "container_save",
    "D2MoeError", "ShapeError", "ParameterError", "DegenerateInputError", "NumericalError",
    "NotPositiveDefiniteError", "ConfigError", "ContainerError", "BadMagicError",
    "ManifestError", "TruncatedPayloadError", "OverlappingPayloadError", "NonFinitePayloadError",
}


def run_ok(argv, cwd, env=None):
    env = dict(os.environ if env is None else env, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    run_ok([sys.executable, str(demo)], tmp_path)


def test_readme_has_a_python_example():
    assert README_BLOCKS


def test_package_exports_exactly_the_public_names():
    exported = {name for name, value in vars(d2moe).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert exported == PUBLIC_NAMES
    assert all(f"`{name}`" in README for name in PUBLIC_NAMES)


@pytest.mark.parametrize("block", README_BLOCKS, ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block, tmp_path):
    script = tmp_path / "readme_block.py"
    script.write_text(block, encoding="utf-8")
    run_ok([sys.executable, str(script)], tmp_path)


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
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    run_ok([bash, str(demo)], tmp_path, env)

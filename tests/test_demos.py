"""Each demo script, and README's library example, runs to completion
against the source tree."""

import ast
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import lcsim

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_exits_zero(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]


def test_readme_library_block_runs_and_the_root_exports_only_what_is_read():
    block = (ROOT / "README.md").read_text().split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    # The root exports exactly the names the block imports and the bench
    # reference check reads from it, submodules aside.
    read = {
        alias.name
        for node in ast.walk(ast.parse(block))
        if isinstance(node, ast.ImportFrom) and node.module == "lcsim"
        for alias in node.names
    }
    reference = ast.parse((ROOT / "bench" / "test_reference.py").read_text())
    read |= {
        node.attr
        for node in ast.walk(reference)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "lcsim"
    }
    submodules = {info.name for info in pkgutil.iter_modules(lcsim.__path__)}
    exported = {
        name
        for name, value in vars(lcsim).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == read - submodules
    assert lcsim.__version__

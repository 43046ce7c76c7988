"""Every example script imports cleanly against the current package.

Most examples only run under ``__main__`` (each takes tens of seconds), so
importing them is what catches a renamed or deleted module they use; the
tuning example is small enough to run end to end.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_examples_exist():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_hyperparameter_tuning_runs():
    # Two configs at budget 1, one survivor at budget 2 (~2 s with imports).
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    script = root / "examples" / "hyperparameter_tuning.py"
    completed = subprocess.run(
        [sys.executable, str(script), "--configs", "2", "--seed", "0"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    lines = completed.stdout.splitlines()
    assert sum("budget=1 " in line for line in lines) == 2
    assert sum("budget=2 " in line for line in lines) == 1
    assert "Best configuration:" in lines
    assert lines[-1].endswith("at budget 2")

"""The project configuration: the console script's entry point, and the
pytest settings that run the suite."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from fixtrace import cli

ROOT = Path(__file__).resolve().parents[1]


def test_console_script_is_cli_run():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    module, name = scripts["fixtrace"].split(":")
    assert getattr(importlib.import_module(module), name) is cli.run


FAILING_HYPOTHESIS_TEST = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_reported_like_any_other(tmp_path):
    """A failed ``@given`` test fails alone: the warnings-as-errors setting
    must not turn the imports of hypothesis's failure report into an
    internal error that stops the run."""
    path = tmp_path / "test_two.py"
    path.write_text(FAILING_HYPOTHESIS_TEST, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
         str(path)],
        capture_output=True, text=True, cwd=tmp_path, timeout=300)
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert "1 failed, 1 passed" in proc.stdout

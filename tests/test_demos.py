"""Every demo script runs to completion."""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    # the demos find magpair the way the tests do: installed or on PYTHONPATH
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

"""Every demo script runs to completion and prints its stored output.

tests/golden/demos/<name>.out holds the exact stdout of demos/<name>.py.
To accept an intended change, regenerate the file from the demo and say
why in the change log.
"""

import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "demos"


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")),
                         ids=lambda p: p.name)
def test_demo_exits_cleanly(demo):
    # the demos find magpair the way the tests do: installed or on PYTHONPATH
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT,
                          capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / f"{demo.stem}.out").read_bytes()

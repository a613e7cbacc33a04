"""Every script under demos/ runs to completion against the library."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(script):
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr

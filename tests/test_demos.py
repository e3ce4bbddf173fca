"""Each script in demos/ runs to completion against this copy of the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import grouporders

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert DEMOS  # an empty list would parametrize no test at all


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    src = os.path.dirname(os.path.dirname(grouporders.__file__))
    done = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout

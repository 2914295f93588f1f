"""Smoke test: every script in demos/ runs to completion."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import subnyq

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(Path(subnyq.__file__).resolve().parents[1])


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo, tmp_path):
    # run a copy, so that demos writing next to themselves leave demos/out be
    script = shutil.copy(demo, tmp_path)
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, script], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr

"""Every script in ``demos/`` runs to completion against this package."""

import os
import subprocess
import sys

import pytest

import dcinv

SRC = os.path.dirname(os.path.dirname(dcinv.__file__))
DEMOS_DIR = os.path.join(os.path.dirname(SRC), "demos")
DEMOS = sorted(name for name in os.listdir(DEMOS_DIR) if name.endswith(".py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(tmp_path, demo):
    # each demo writes under out/ in its working directory
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run([sys.executable, os.path.join(DEMOS_DIR, demo)], cwd=tmp_path,
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr

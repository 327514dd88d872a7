"""Every shipped example runs to completion with FGSan (the runtime
sanitizer) on: no leaked buffer, no protocol violation."""

import os
import subprocess
import sys

import pytest

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
EXAMPLES = sorted(name for name in os.listdir(os.path.join(REPO, "examples"))
                  if name.endswith(".py"))


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_runs_clean_under_fgsan(example, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"),
               REPRO_SANITIZE="1")
    # cwd is a scratch dir: some examples write their artifacts there
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "examples", example)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr

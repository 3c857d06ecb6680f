"""Every script under ``demos/`` runs to completion, with runtime warnings raised as errors,
and leaves nothing behind in its temporary directory.

The ``filterwarnings`` setting in ``pyproject.toml`` does not reach the demo
subprocesses, so each one gets ``-W error::RuntimeWarning`` itself.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_exits_zero(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp_path)
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(script)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    assert list(tmp_path.iterdir()) == []

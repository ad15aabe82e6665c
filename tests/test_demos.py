"""Every quick demo runs to completion.

Demo 08 (the three-way baseline comparison) is left out: it trains three
policies and takes far longer than the rest together.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-7]_*.py"))


def test_quick_demos_found():
    assert len(QUICK_DEMOS) == 7


@pytest.mark.parametrize("demo", QUICK_DEMOS)
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=tmp_path, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]

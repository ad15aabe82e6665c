"""The benchmark's self-test passes against this checkout.

``bench/run.py`` wraps engine entry points by name for ``--trace 1``
(``dispatch_rl.encode_state``, ``select_action``, ``QNetwork.q_values`` and
more), and a wrapped name that no longer exists raises ``AttributeError``.
``bench/selftest.py`` runs every workload for a few ticks, untraced and
traced, and checks every metric that BENCHMARK.json names.
"""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes(tmp_path):
    # a run writes under bench/out next to run.py, so the self-test runs in
    # a copy of the checkout's parts it reads
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out"))
    for part in ("src", "configs"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run([sys.executable, str(tmp_path / "bench" / "selftest.py")],
                            cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, (result.stdout + result.stderr)[-2000:]
    assert result.stdout.strip().splitlines()[-1] == "selftest passed"

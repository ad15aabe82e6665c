"""``tools/phase_split.py`` prints every phase of a benchmark workload's tick."""

import subprocess
import sys
from pathlib import Path

from hopfleet.engine import PHASES

ROOT = Path(__file__).resolve().parents[1]


def test_phase_split_prints_every_phase():
    # the replay workload: its trip file is written to a temporary directory
    # first, and it trains, so every phase runs
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "phase_split.py"),
                             "--workload", "desk_train_replay", "--seed", "1", "--worlds", "1"],
                            cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    lines = result.stdout.strip().splitlines()
    assert lines[0].startswith("desk_train_replay seed 1: 500 ticks, ")
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == list(PHASES)
    assert all(float(row[1]) > 0 for row in rows)
    assert abs(sum(float(row[2].rstrip("%")) for row in rows) - 100) < 0.5

"""``tools/phase_split.py`` prints every phase of a benchmark workload's
tick 0 and of its steady ticks."""

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
    assert lines[0] == "desk_train_replay seed 1: 1 x 500 ticks"
    # two blocks of a title, a header and one row per phase: tick 0, in ms
    # per world, then the steady ticks after it, in ms per tick
    size = len(PHASES) + 2
    assert len(lines) == 1 + 2 * size
    for block, (title, unit) in zip((lines[1 : 1 + size], lines[1 + size :]),
                                    [("tick 0: ", "ms/world"), ("ticks 1..499: ", "ms/tick")]):
        assert block[0].startswith(title) and block[0].endswith(unit)
        assert block[1].split() == ["phase", unit, "share"]
        rows = [line.split() for line in block[2:]]
        assert [row[0] for row in rows] == list(PHASES)
        assert abs(sum(float(row[2].rstrip("%")) for row in rows) - 100) < 0.5
        total = float(block[0].split()[-2])
        assert abs(sum(float(row[1]) for row in rows) - total) < 0.01
    # every phase runs in the steady ticks
    assert all(float(line.split()[1]) > 0 for line in lines[3 + size :])

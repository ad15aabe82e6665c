"""``tools/phase_split.py`` prints every part of a benchmark workload's
set-up and every phase of its tick 0 and of its steady ticks."""

import subprocess
import sys
from pathlib import Path

from hopfleet.engine import PHASES

ROOT = Path(__file__).resolve().parents[1]


SETUP_PARTS = ["config", "policy", "layout", "placement", "warmup", "hubs", "other"]


def test_phase_split_prints_every_phase():
    # the replay workload: its trip file is written to a temporary directory
    # first, and it trains, so every phase runs
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "phase_split.py"),
                             "--workload", "desk_train_replay", "--seed", "1", "--worlds", "1"],
                            cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "desk_train_replay seed 1: 1 x 500 ticks"
    # three blocks of a title, a header and one row per part or phase: the
    # set-up and tick 0, in ms per world, then the steady ticks after it, in
    # ms per tick
    blocks = [("set-up: ", "ms/world", "part", SETUP_PARTS),
              ("tick 0: ", "ms/world", "phase", list(PHASES)),
              ("ticks 1..499: ", "ms/tick", "phase", list(PHASES))]
    assert len(lines) == 1 + sum(len(rows) + 2 for *_, rows in blocks)
    start = 1
    for title, unit, label, names in blocks:
        block, start = lines[start : start + len(names) + 2], start + len(names) + 2
        assert block[0].startswith(title) and block[0].endswith(unit)
        assert block[1].split() == [label, unit, "share"]
        rows = [line.split() for line in block[2:]]
        assert [row[0] for row in rows] == names
        assert abs(sum(float(row[2].rstrip("%")) for row in rows) - 100) < 0.5
        total = float(block[0].split()[-2])
        assert abs(sum(float(row[1]) for row in rows) - total) < 0.01
        # every set-up part but the rest takes time, and every phase runs in
        # the steady ticks
        if label == "part" or title.startswith("ticks"):
            assert all(float(row[1]) > 0 for row in rows if row[0] != "other"), rows

"""``tools/phase_split.py`` prints every part of a benchmark workload's
set-up, every phase of its tick 0 and every part of that tick's dispatch
phase, and every phase of its steady ticks and of its full-check ticks."""

import subprocess
import sys
from pathlib import Path

from hopfleet.engine import FULL_CHECK_EVERY, PHASES

ROOT = Path(__file__).resolve().parents[1]


SETUP_PARTS = ["config", "policy", "layout", "placement", "warmup", "hubs", "other"]
DISPATCH_PARTS = ["maps", "encode", "q_pass", "rest"]


def test_phase_split_prints_every_phase():
    # the replay workload: its trip file is written to a temporary directory
    # first, and it trains, so every phase runs
    result = subprocess.run([sys.executable, str(ROOT / "tools" / "phase_split.py"),
                             "--workload", "desk_train_replay", "--seed", "1", "--worlds", "1"],
                            cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr[-2000:]
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "desk_train_replay seed 1: 1 x 500 ticks"
    # five blocks of a title, a header and one row per part or phase: the
    # set-up, tick 0 and its dispatch phase, in ms per world, then the steady
    # ticks after it and, apart from them, the full-check ticks, in ms per tick
    assert FULL_CHECK_EVERY == 25
    blocks = [("set-up: ", "ms/world", "part", SETUP_PARTS),
              ("tick 0: ", "ms/world", "phase", list(PHASES)),
              ("tick 0 dispatch: ", "ms/world", "part", DISPATCH_PARTS),
              ("ticks 1..499 but every 25th, 480 ticks: ", "ms/tick", "phase", list(PHASES)),
              ("full-check ticks 25..475 every 25th, 19 ticks: ", "ms/tick", "phase",
               list(PHASES))]
    assert len(lines) == 1 + sum(len(rows) + 2 for *_, rows in blocks)
    start, by_title = 1, {}
    for title, unit, label, names in blocks:
        block, start = lines[start : start + len(names) + 2], start + len(names) + 2
        by_title[title] = block
        assert block[0].startswith(title) and block[0].endswith(unit)
        assert block[1].split() == [label, unit, "share"]
        rows = [line.split() for line in block[2:]]
        assert [row[0] for row in rows] == names
        assert abs(sum(float(row[2].rstrip("%")) for row in rows) - 100) < 0.5
        total = float(block[0].split()[-2])
        assert abs(sum(float(row[1]) for row in rows) - total) < 0.01
        # every set-up part but the rest and every part of tick 0's dispatch
        # takes time, and every phase runs in the steady ticks and in the
        # full-check ticks
        if label == "part" or not title.startswith("tick 0"):
            assert all(float(row[1]) > 0 for row in rows if row[0] != "other"), rows
    # the dispatch parts add up to tick 0's dispatch phase: at tick 0 the
    # maps, the encoder and the network run in that phase alone
    phase = next(line for line in by_title["tick 0: "] if line.startswith("dispatch"))
    parts = float(by_title["tick 0 dispatch: "][0].split()[-2])
    assert abs(parts - float(phase.split()[1])) < 0.002
    # a full check costs more than the light pass of a steady tick
    checks = [float(line.split()[1]) for line in lines if line.startswith("checks")]
    assert checks[2] > checks[1]

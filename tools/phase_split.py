"""Where a benchmark workload's tick time goes, phase by phase.

    python3 tools/phase_split.py --workload city_eval --seed 1

Runs one episode of each of the workload's worlds, as ``bench/run.py``
builds them (its ``WORKLOADS``, ``world_seeds`` and ``set_up``), and prints
``Simulation.phase_seconds`` summed over them: the thread's cpu time in each
phase of ``Simulation.step``, in ms per tick and as a share of the tick.
Run it from the root of a source checkout; it imports that checkout's
``src`` and ``bench/run.py``, and pins BLAS to one thread as the bench does.
"""

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run as bench  # noqa: E402  (pins BLAS to one thread before numpy loads)


def phase_split(workload: str, seed: int, worlds: int = 0) -> dict:
    """Phase seconds summed over the workload's worlds, and the ticks run."""
    prog = bench.load_program()
    wl = bench.WORKLOADS[workload]
    total = dict.fromkeys(prog.engine.PHASES, 0.0)
    ticks = 0
    with tempfile.TemporaryDirectory() as work_dir:
        for world in bench.world_seeds(seed, worlds or wl.worlds):
            trips = (bench.write_trips(prog, wl, world, Path(work_dir) / f"trips-{world}.csv")
                     if wl.replay else None)
            sim = bench.set_up(prog, wl, world, trips)
            sim.run(mode=wl.mode)
            for phase, seconds in sim.phase_seconds.items():
                total[phase] += seconds
            ticks += sim.tick
    return {"seconds": total, "ticks": ticks}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--worlds", type=int, default=0, help="0: the workload's own count")
    args = parser.parse_args(argv)
    split = phase_split(args.workload, args.seed, args.worlds)
    seconds, ticks = split["seconds"], split["ticks"]
    tick_s = sum(seconds.values())
    print(f"{args.workload} seed {args.seed}: {ticks} ticks, {tick_s / ticks * 1e3:.3f} ms/tick")
    print(f"{'phase':<10}  {'ms/tick':>8}  {'share':>6}")
    for phase, s in seconds.items():
        print(f"{phase:<10}  {s / ticks * 1e3:8.4f}  {s / tick_s:6.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

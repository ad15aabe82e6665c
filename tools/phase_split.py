"""Where a benchmark workload's tick time goes, phase by phase.

    python3 tools/phase_split.py --workload city_eval --seed 1

Runs one episode of each of the workload's worlds, as ``bench/run.py``
builds them (its ``WORKLOADS``, ``world_seeds`` and ``set_up``), and prints
``Simulation.phase_seconds`` summed over them: the thread's cpu time in each
phase of ``Simulation.step``, as a share of the tick. Tick 0, where every
vehicle of the fleet is idle and decides, is printed in ms per world, apart
from the steady ticks after it, in ms per tick, which ``tick_ms.p50``
measures. Run it from the root of a source checkout; it imports that
checkout's ``src`` and ``bench/run.py``, and pins BLAS to one thread as the
bench does.
"""

import argparse
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run as bench  # noqa: E402  (pins BLAS to one thread before numpy loads)


def phase_split(workload: str, seed: int, worlds: int = 0) -> dict:
    """Phase seconds summed over the workload's worlds, for tick 0
    (``opening``) and for the ticks after it (``steady``); the worlds run
    and the steady ticks among them."""
    prog = bench.load_program()
    wl = bench.WORKLOADS[workload]
    opening = dict.fromkeys(prog.engine.PHASES, 0.0)
    steady = dict.fromkeys(prog.engine.PHASES, 0.0)
    seeds = bench.world_seeds(seed, worlds or wl.worlds)
    ticks = 0
    with tempfile.TemporaryDirectory() as work_dir:
        for world in seeds:
            trips = (bench.write_trips(prog, wl, world, Path(work_dir) / f"trips-{world}.csv")
                     if wl.replay else None)
            sim = bench.set_up(prog, wl, world, trips)
            first = {}

            def step(_step=sim.step, _sim=sim, _first=first):
                detail = _step()
                if _sim.tick == 1:
                    _first.update(_sim.phase_seconds)
                return detail

            sim.step = step
            sim.run(mode=wl.mode)
            for phase, seconds in sim.phase_seconds.items():
                opening[phase] += first.get(phase, 0.0)
                steady[phase] += seconds - first.get(phase, 0.0)
            ticks += max(sim.tick - 1, 0)
    return {"opening": opening, "steady": steady, "worlds": len(seeds), "ticks": ticks}


def print_block(title: str, seconds: dict, count: int, unit: str):
    total = sum(seconds.values())
    print(f"{title}: {total / count * 1e3:.3f} {unit}")
    print(f"{'phase':<10}  {unit:>8}  {'share':>6}")
    for phase, s in seconds.items():
        print(f"{phase:<10}  {s / count * 1e3:8.4f}  {s / total:6.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--worlds", type=int, default=0, help="0: the workload's own count")
    args = parser.parse_args(argv)
    split = phase_split(args.workload, args.seed, args.worlds)
    worlds, steady = split["worlds"], split["ticks"] // split["worlds"]
    print(f"{args.workload} seed {args.seed}: {worlds} x {steady + 1} ticks")
    print_block("tick 0", split["opening"], worlds, "ms/world")
    print_block(f"ticks 1..{steady}", split["steady"], split["ticks"], "ms/tick")
    return 0


if __name__ == "__main__":
    sys.exit(main())

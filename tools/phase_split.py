"""Where a benchmark workload's set-up and tick time go, part by part.

    python3 tools/phase_split.py --workload city_eval --seed 1

Runs one episode of each of the workload's worlds, as ``bench/run.py``
builds them (its ``WORKLOADS``, ``world_seeds`` and ``set_up``), and prints
``Simulation.phase_seconds`` summed over them: the thread's cpu time in each
phase of ``Simulation.step``, as a share of the tick. Tick 0, where every
vehicle of the fleet is idle and decides, is printed in ms per world, and
its dispatch phase split into the parts of ``DISPATCH_PARTS``: the thread
time of the calls to ``dispatch_rl.observation_maps`` (the tick's maps,
padded once), to ``dispatch_rl.encode_state`` and to ``QNetwork.q_values``,
and the rest. The ticks after it follow, in ms per
tick: first the steady ticks, which ``tick_ms.p50`` measures, then apart
from them the full-check ticks (every ``FULL_CHECK_EVERY``-th), which run
the full invariant check and weigh on ``tick_ms.p95``. Set-up, which
``setup_s`` measures, is printed first, in ms per world, split into the
parts of ``SETUP_PARTS``; the split comes from the thread time at the calls
that bound each part, which are wrapped for the set-up and restored after
it. Run it from the root of a source checkout; it
imports that checkout's ``src`` and ``bench/run.py``, and pins BLAS to one
thread as the bench does.
"""

import argparse
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

import run as bench  # noqa: E402  (pins BLAS to one thread before numpy loads)


# the parts of bench.set_up, in order: cli.load_config; the DispatchPolicy;
# Simulation._build_demand; the placement draws and the fleet table; the
# warmup ticks; the hub tally and designation; and the rest (the config's
# workload changes and the Simulation's construction)
SETUP_PARTS = ("config", "policy", "layout", "placement", "warmup", "hubs", "other")
# the parts of tick 0's dispatch phase: the padded maps, the state encoding,
# the Q pass, the rest
DISPATCH_PARTS = ("maps", "encode", "q_pass", "rest")


@contextmanager
def patched(calls, wrap):
    """Replace each ``(owner, name, *args)`` by ``wrap(original, *args)``,
    and restore the names after."""
    installed = []
    try:
        for owner, name, *args in calls:
            original = getattr(owner, name)
            setattr(owner, name, wrap(original, *args))
            installed.append((owner, name, original))
        yield
    finally:
        for owner, name, original in reversed(installed):
            setattr(owner, name, original)


@contextmanager
def marked(calls):
    """Wrap each ``(owner, name, entry key, exit key)`` so that its first
    call records the thread time at its entry and at its return under those
    keys (None: none); yield the marks, and restore the names after."""
    marks = {}

    def wrapped(original, at_entry, at_exit):
        def call(*args, **kwargs):
            if at_entry:
                marks.setdefault(at_entry, time.thread_time())
            out = original(*args, **kwargs)
            if at_exit:
                marks.setdefault(at_exit, time.thread_time())
            return out
        return call

    with patched(calls, wrapped):
        yield marks


@contextmanager
def summed(calls):
    """Wrap each ``(owner, name, key)`` so that every call adds its thread
    time to the seconds under its key; yield the seconds, and restore the
    names after."""
    spent = {}

    def wrapped(original, key):
        def call(*args, **kwargs):
            start = time.thread_time()
            out = original(*args, **kwargs)
            spent[key] = spent.get(key, 0.0) + time.thread_time() - start
            return out
        return call

    with patched(calls, wrapped):
        yield spent


def timed_set_up(prog, wl, world: int, trips) -> tuple:
    """``bench.set_up`` and its seconds in each of SETUP_PARTS."""
    eng = prog.engine
    calls = [(prog.cli, "load_config", "config_in", "config_out"),
             (eng.DispatchPolicy, "__init__", "policy_in", "policy_out"),
             (eng.Simulation, "initialize", "layout_in", "hubs_out"),
             (eng.Simulation, "_build_demand", None, "layout_out"),
             (prog.fleet.FleetTable, "__init__", None, "placement_out"),
             # the engine's own reference: the hub tally and designation
             (eng, "designate_hop_zones", "warmup_out", None)]
    with marked(calls) as marks:
        start = time.thread_time()
        sim = bench.set_up(prog, wl, world, trips)
        total = time.thread_time() - start
    bounds = {"config": ("config_in", "config_out"), "policy": ("policy_in", "policy_out"),
              "layout": ("layout_in", "layout_out"),
              "placement": ("layout_out", "placement_out"),
              "warmup": ("placement_out", "warmup_out"), "hubs": ("warmup_out", "hubs_out")}
    parts = {part: marks[b] - marks[a] for part, (a, b) in bounds.items()}
    parts["other"] = total - sum(parts.values())
    return sim, parts


def phase_split(workload: str, seed: int, worlds: int = 0) -> dict:
    """Set-up seconds by part (``setup``) and phase seconds summed over the
    workload's worlds, for tick 0 (``opening``) and its dispatch phase by
    part (``dispatch``), the ticks after it without a full check
    (``steady``) and those with one (``full``); the worlds run and the ticks
    in each block (``counts``)."""
    prog = bench.load_program()
    wl = bench.WORKLOADS[workload]
    full_every = prog.engine.FULL_CHECK_EVERY
    rl = prog.dispatch_rl
    # the replay buffer is empty at tick 0, so only its dispatch phase
    # builds the maps, encodes states and evaluates the network
    dispatch_calls = [(rl, "observation_maps", "maps"), (rl, "encode_state", "encode"),
                      (rl.QNetwork, "q_values", "q_pass")]
    setup = dict.fromkeys(SETUP_PARTS, 0.0)
    dispatch = dict.fromkeys(DISPATCH_PARTS, 0.0)
    blocks = {block: dict.fromkeys(prog.engine.PHASES, 0.0)
              for block in ("opening", "steady", "full")}
    counts = dict.fromkeys(blocks, 0)
    seeds = bench.world_seeds(seed, worlds or wl.worlds)
    with tempfile.TemporaryDirectory() as work_dir:
        for world in seeds:
            trips = (bench.write_trips(prog, wl, world, Path(work_dir) / f"trips-{world}.csv")
                     if wl.replay else None)
            sim, parts = timed_set_up(prog, wl, world, trips)
            for part, seconds in parts.items():
                setup[part] += seconds

            def step(_step=sim.step, _sim=sim):
                tick = _sim.tick
                block = "opening" if tick == 0 else "full" if tick % full_every == 0 else "steady"
                before = dict(_sim.phase_seconds)
                if tick:
                    detail = _step()
                else:
                    with summed(dispatch_calls) as spent:
                        detail = _step()
                    for part, seconds in spent.items():
                        dispatch[part] += seconds
                    dispatch["rest"] += (_sim.phase_seconds["dispatch"] - before["dispatch"]
                                         - sum(spent.values()))
                for phase, seconds in _sim.phase_seconds.items():
                    blocks[block][phase] += seconds - before[phase]
                counts[block] += 1
                return detail

            sim.step = step
            sim.run(mode=wl.mode)
    return {"setup": setup, **blocks, "dispatch": dispatch, "worlds": len(seeds),
            "counts": counts, "full_every": full_every}


def print_block(title: str, seconds: dict, count: int, unit: str, label: str = "phase"):
    total = sum(seconds.values())
    print(f"{title}: {total / count * 1e3:.3f} {unit}")
    print(f"{label:<10}  {unit:>8}  {'share':>6}")
    for phase, s in seconds.items():
        print(f"{phase:<10}  {s / count * 1e3:8.4f}  {s / total:6.1%}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--worlds", type=int, default=0, help="0: the workload's own count")
    args = parser.parse_args(argv)
    split = phase_split(args.workload, args.seed, args.worlds)
    worlds, counts, every = split["worlds"], split["counts"], split["full_every"]
    last = (counts["steady"] + counts["full"]) // worlds
    print(f"{args.workload} seed {args.seed}: {worlds} x {last + 1} ticks")
    print_block("set-up", split["setup"], worlds, "ms/world", "part")
    print_block("tick 0", split["opening"], worlds, "ms/world")
    print_block("tick 0 dispatch", split["dispatch"], worlds, "ms/world", "part")
    print_block(f"ticks 1..{last} but every {every}th, {counts['steady'] // worlds} ticks",
                split["steady"], counts["steady"], "ms/tick")
    if counts["full"]:
        print_block(f"full-check ticks {every}..{last // every * every} every {every}th, "
                    f"{counts['full'] // worlds} ticks", split["full"], counts["full"], "ms/tick")
    return 0


if __name__ == "__main__":
    sys.exit(main())

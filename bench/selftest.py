"""Fast self-test of the benchmark.

Runs every workload for a few ticks, untraced and traced, and checks that
each metric BENCHMARK.json names comes out with its unit and a finite value,
and that the digest gate fires when two episode logs differ.

    python3 bench/selftest.py        # from the root of a source checkout
"""

import copy
import json
import math
import sys
from dataclasses import replace

import run  # pins the BLAS threads before numpy is imported

TICKS = 20  # long enough for every workload to deliver something
WORLDS = 2


def metric_failures(prog, spec: dict) -> list:
    failures = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        failures.append("BENCHMARK.json and run.py name different workloads")
    for name, wl in run.WORKLOADS.items():
        short = replace(wl, ticks=TICKS, worlds=WORLDS)
        for trace, listed in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            out = run.measure(prog, short, seed=1, seconds=0, trace=trace, min_ticks=1)
            where = f"{name} --trace {int(trace)}"
            result = out["result"]
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{where}: run not correct: {out['errors']}")
            emitted = result["metrics"]
            for metric in listed:
                got = emitted.get(metric["name"])
                if got is None:
                    failures.append(f"{where}: {metric['name']} not emitted")
                elif got["unit"] != metric["unit"]:
                    failures.append(f"{where}: {metric['name']} in {got['unit']}, "
                                    f"BENCHMARK.json says {metric['unit']}")
                elif not math.isfinite(got["value"]):
                    failures.append(f"{where}: {metric['name']} = {got['value']}")
            for extra in sorted(set(emitted) - {m["name"] for m in listed}):
                failures.append(f"{where}: {extra} emitted but not in BENCHMARK.json")
    return failures


def digest_gate_failures(prog) -> list:
    sim = run.set_up(prog, replace(run.WORKLOADS["desk_eval"], ticks=TICKS), 1)
    log = sim.run(mode="eval")
    twin = copy.deepcopy(log)
    failures = []
    if not run.digests_agree([run.log_digest(log), run.log_digest(twin)]):
        failures.append("digest gate fired on two identical logs")
    twin.events[-1] = dict(twin.events[-1], tick=twin.events[-1]["tick"] + 1)
    if run.digests_agree([run.log_digest(log), run.log_digest(twin)]):
        failures.append("digest gate passed two logs that differ in one event")
    return failures


def main() -> int:
    prog = run.load_program()
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    failures = digest_gate_failures(prog) + metric_failures(prog, spec)
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

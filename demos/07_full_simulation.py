"""One short end-to-end episode: trains briefly, then reports service metrics.

Scaled down from the shipped defaults in configs/default.yaml so it finishes
in under a minute; bump the tick counts to reproduce real runs.
"""

import json
from dataclasses import asdict, replace
from pathlib import Path

from hopfleet.cli import load_config
from hopfleet.engine import MODE_EVAL, MODE_TRAIN, DispatchPolicy, Simulation
from hopfleet.metrics import build_report

desk = load_config(Path(__file__).resolve().parents[1] / "configs" / "default.yaml").sim
cfg = replace(desk, seed=3, n_vehicles=30, episode_ticks=300, warmup_ticks=50, t_n=600,
              ticks_per_day=150,
              grid=replace(desk.grid, hop_min_pickups=10),
              demand=replace(desk.demand, passenger_rate_per_zone=0.002, origin_hot_rate=0.35,
                             goods_location_rate=0.15))

policy = DispatchPolicy(cfg)
for episode in range(2):
    sim = Simulation(replace(cfg, seed=cfg.seed + episode), policy=policy)
    sim.initialize()
    sim.run(mode=MODE_TRAIN)
    print(f"trained episode {episode}: {policy.schedule_step} steps, "
          f"replay holds {len(policy.buffer)} transitions")

sim = Simulation(replace(cfg, seed=99), policy=policy)
sim.initialize()
log = sim.run(mode=MODE_EVAL)
print(f"\nevaluation episode: {len(log.events)} logged events")
print()
print(json.dumps(asdict(build_report(log)), sort_keys=True, indent=2))

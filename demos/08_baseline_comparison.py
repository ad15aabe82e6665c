"""Miniature three-way comparison: relays vs no relays vs split fleets.

Each mode trains its own policy, then all three are evaluated on the same
held-out seeds. This is a fast, shrunken version of the shipped experiment
config; see README for the full run.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from hopfleet.cli import load_config
from hopfleet.engine import (
    BASELINE_FLEX_HOPS,
    BASELINE_FLEX_NOHOPS,
    BASELINE_SEPARATE,
    MODE_EVAL,
    MODE_TRAIN,
    DispatchPolicy,
    Simulation,
)
from hopfleet.metrics import build_report

DESK = load_config(Path(__file__).resolve().parents[1] / "configs" / "default.yaml").sim


def config(baseline):
    """The shipped desk config, scaled down to a 30-vehicle, 300-tick world."""
    return replace(DESK, seed=11, baseline=baseline, n_vehicles=30, episode_ticks=300,
                   warmup_ticks=50, t_n=600, ticks_per_day=150, separate_split=0.6,
                   grid=replace(DESK.grid, hop_min_pickups=10),
                   demand=replace(DESK.demand, passenger_rate_per_zone=0.002,
                                  origin_hot_rate=0.35, goods_location_rate=0.15))

rows = {}
for baseline in (BASELINE_FLEX_HOPS, BASELINE_FLEX_NOHOPS, BASELINE_SEPARATE):
    cfg = config(baseline)
    policy = DispatchPolicy(cfg)
    for episode in range(2):
        sim = Simulation(replace(cfg, seed=cfg.seed + episode), policy=policy)
        sim.initialize()
        sim.run(mode=MODE_TRAIN)
    reports = []
    for seed in (201, 202):
        sim = Simulation(replace(cfg, seed=seed), policy=policy)
        sim.initialize()
        reports.append(build_report(sim.run(mode=MODE_EVAL)))
    rows[baseline] = reports
    print(f"{baseline}: trained and evaluated")

print(f"\n{'metric':<26}" + "".join(f"{b:>14}" for b in rows))
for label, attr in (
    ("accept rate", "accept_rate_overall"),
    ("active vehicle ratio", "active_vehicle_ratio"),
    ("fuel cost per delivery", "fuel_cost_per_delivery"),
    ("mean wait (ticks)", "mean_wait_ticks"),
    ("effective distance ratio", "effective_distance_ratio"),
    ("hop transfers", "hop_transfers"),
):
    cells = ""
    for baseline, reports in rows.items():
        values = [getattr(r, attr) for r in reports if getattr(r, attr) is not None]
        cells += f"{np.mean(values):>14.3f}" if values else f"{'n/a':>14}"
    print(f"{label:<26}{cells}")

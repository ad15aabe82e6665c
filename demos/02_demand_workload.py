"""Synthetic demand: Poisson arrivals, trip records, and the forecaster.

Each tick draws one Poisson total of passenger requests, each origin picked
in proportion to the zones' rates, and one Poisson count per goods site, all
from a seeded generator, so a seed pins the entire workload. Demand is
stationary, so the forecaster is the flat per-zone mean of the counts seen,
and it backs the demand channel of the dispatch observation.
"""

import numpy as np

from hopfleet.demand import (
    DemandSources,
    HistoricalAverageForecaster,
    generate_tick_requests,
    poisson_pmf,
)
from hopfleet.geo import GridWorld, ZoneId

grid = GridWorld(width=10, height=10)
rng = np.random.default_rng(42)

print("Poisson pmf sanity: p(0;0)=%.3f  p(1;1)=%.5f  p(2;3)=%.5f"
      % (poisson_pmf(0, 0), poisson_pmf(1, 1), poisson_pmf(2, 3)))

# goods sites as (zone, rate): a postal office and a meal kitchen
sites = [(ZoneId(2, 2), 1.2), (ZoneId(7, 7), 0.8)]
passenger_rates = np.full((grid.height, grid.width), 0.02)
# laid out once: validated origins and each site's reachable destinations;
# a passenger heads to a hot zone with probability hot_weight
sources = DemandSources(grid, passenger_rates, sites, goods_radius=4,
                        hot_zones=[ZoneId(5, 5)], hot_weight=0.3)

forecaster = HistoricalAverageForecaster(grid)
total = {"passenger": 0, "goods": 0}
next_id = 0
for tick in range(96):
    batch = generate_tick_requests(sources, tick, rng, id_start=next_id)
    next_id += len(batch)
    forecaster.record_requests(batch)
    for r in batch:
        total[r.kind] += 1

print(f"\n96 ticks of workload: {total} requests")
fc = forecaster.forecast()
print(f"forecast per tick at the postal source zone: {fc[2, 2]:.2f} "
      f"(its rates: 1.2 goods + 0.02 passengers)")
print("every goods destination lies within the 4-zone delivery radius.")

"""City grid basics: distances, travel estimates, and relay-hub designation.

Everything in the simulator lives on a rectangular zone lattice. Distances
are Manhattan in zone-units, travel time is distance over a constant speed,
and relay hubs ("hop-zones") sit on a stride sublattice filtered down to the
busy spots.
"""

import numpy as np

from hopfleet.geo import GridWorld, ZoneId, designate_hop_zones

grid = GridWorld(width=20, height=20, zone_edge_m=150.0, vehicle_speed=2)

a, b = ZoneId(2, 3), ZoneId(7, 15)
print(f"distance {tuple(a)} -> {tuple(b)}: {grid.distance(a, b)} zones "
      f"({grid.distance(a, b) * grid.zone_edge_m / 1000:.2f} km)")
print(f"eta at speed {grid.vehicle_speed}: {grid.eta(a, b).ticks} ticks")

# Hubs: every third intersection, kept only where pickups concentrate.
rng = np.random.default_rng(0)
counts = {z: 0 for z in grid.all_zones()}
for _ in range(600):  # synthetic pickup history clustered in two corners
    center = ZoneId(4, 4) if rng.random() < 0.6 else ZoneId(15, 16)
    z = grid.clamp(center.row + int(rng.integers(-3, 4)), center.col + int(rng.integers(-3, 4)))
    counts[z] += 1

hubs = designate_hop_zones(grid, stride=3, pickup_counts=counts, min_pickups=10)
print(f"\n{len(hubs)} relay hubs out of {sum(1 for _ in grid.all_zones())} zones:")
for hz in sorted(hubs):
    print(f"  hub {tuple(hz)} saw {counts[hz]} pickups")

print()
for corner in (ZoneId(0, 0), ZoneId(19, 19)):
    nearest = min(sorted(hubs), key=lambda hz: grid.distance(corner, hz))
    print(f"nearest hub to {tuple(corner)}: {tuple(nearest)}")

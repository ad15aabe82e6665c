"""Relay planning for packages: split a haul at hubs under a 2x detour cap.

A goods trip is recursively split at the nearest hub that (a) keeps the
two-leg total within twice the direct distance and (b) strictly shortens
both sides. Packages then travel leg by leg, waiting at hubs in between.
"""

from hopfleet.demand import GOODS, Request
from hopfleet.geo import GridWorld, ZoneId, manhattan
from hopfleet.hopplan import assign_hop_zones

grid = GridWorld(width=20, height=20, hop_zones=frozenset({(0, 6), (0, 12), (9, 9)}))

def show(origin, dest, depth):
    req = Request(0, GOODS, ZoneId(*origin), ZoneId(*dest), 0)
    trip = assign_hop_zones(req, grid, max_depth=depth)
    direct = manhattan(req.origin, req.destination)
    chain = " -> ".join(str(tuple(z)) for z in [trip.legs[0][0]] + [d for _, d in trip.legs])
    print(f"{tuple(req.origin)} to {tuple(req.destination)} (direct {direct}, depth {depth}):")
    print(f"  {chain}   total {sum(manhattan(o, d) for o, d in trip.legs)} zones, {len(trip.legs) - 1} hop(s)")

show((0, 0), (0, 18), depth=2)   # long corridor: two splits
show((0, 0), (0, 18), depth=1)   # one split only
show((0, 0), (0, 2), depth=2)    # short trip: no hub worth it
show((18, 0), (18, 18), depth=2) # far from every hub: the detour cap rejects all

print("\nwith no hubs at all, every trip is a single direct leg:")
empty = GridWorld(width=20, height=20)
req = Request(1, GOODS, ZoneId(0, 0), ZoneId(0, 18), 0)
print(" ", assign_hop_zones(req, empty, 4).legs)

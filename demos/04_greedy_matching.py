"""Nearest-first matching under seat and trunk capacity.

The queue is priced by its pickup zones and kind codes alone. Candidate
pairs inside the pickup bound are consumed in ascending pickup ETA;
passengers need a free seat, packages a free trunk slot, and equal-ETA ties
are settled uniformly at random. Each assignment is a (queue position,
vehicle id, ETA) row.
"""

import numpy as np

from hopfleet.demand import GOODS, PASSENGER, Request
from hopfleet.fleet import KINDS, SLOTS, FleetTable
from hopfleet.geo import GridWorld, ZoneId
from hopfleet.matching import match

grid = GridWorld(width=12, height=12)
rng = np.random.default_rng(1)

requests = [
    Request(0, PASSENGER, ZoneId(0, 0), ZoneId(9, 9), 0),
    Request(1, PASSENGER, ZoneId(0, 4), ZoneId(8, 2), 0),
    Request(2, GOODS, ZoneId(3, 3), ZoneId(6, 6), 0),
    Request(3, GOODS, ZoneId(11, 11), ZoneId(7, 7), 0),
]
# desk cars: 4 seats and 5 trunk slots; vehicle 2 has no trunk space
fleet = FleetTable(grid, seats_total=[4, 4, 4], trunk_total=[5, 5, 0],
                   locations=[ZoneId(0, 1), ZoneId(2, 4), ZoneId(4, 4)])

# the pool is every vehicle of the table, by id; each request is picked up
# at its origin (a package relayed at a hub would be picked up there), and
# the bound is 6 ticks, a 6-zone reject radius at one zone a tick
kinds = [KINDS.index(r.kind) for r in requests]
for pos, vid, eta in match([r.origin for r in requests], range(len(fleet.vehicles)), fleet,
                           kinds, bound=6, rng=rng):
    r = requests[pos]
    print(f"request {r.id} ({r.kind:9s} at {tuple(r.origin)}) -> "
          f"vehicle {vid} in the {SLOTS[kinds[pos]]}, pickup eta {eta}")
print("request 3 stays queued: nothing within the pickup bound.\n")

# full vehicles never accept more than their capacity
small = FleetTable(grid, seats_total=[1], trunk_total=[0], locations=[ZoneId(0, 0)])
crowd = [Request(i, PASSENGER, ZoneId(0, i + 1), ZoneId(5, 5), 0) for i in range(3)]
got = match([r.origin for r in crowd], [0], small, [KINDS.index(PASSENGER)] * len(crowd), bound=8, rng=rng)
print(f"one seat, three passengers: {len(got)} assignment ->",
      [(crowd[pos].id, eta) for pos, _, eta in got])

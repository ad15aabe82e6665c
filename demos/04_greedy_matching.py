"""Nearest-first matching under seat and trunk capacity.

Candidate pairs inside the reject radius are consumed in ascending pickup
ETA; passengers need a free seat, packages a free trunk slot, and equal-ETA
ties are settled uniformly at random.
"""

import numpy as np

from hopfleet.demand import GOODS, PASSENGER, Request
from hopfleet.fleet import FleetTable, VehicleState
from hopfleet.geo import GridWorld, ZoneId
from hopfleet.matching import match

grid = GridWorld(width=12, height=12)
rng = np.random.default_rng(1)

requests = [
    Request(0, PASSENGER, ZoneId(0, 0), ZoneId(9, 9), 0, 1.0),
    Request(1, PASSENGER, ZoneId(0, 4), ZoneId(8, 2), 0, 1.0),
    Request(2, GOODS, ZoneId(3, 3), ZoneId(6, 6), 0, 0.5),
    Request(3, GOODS, ZoneId(11, 11), ZoneId(7, 7), 0, 0.5),
]
# desk cars: 4 seats and 5 trunk slots
fleet = FleetTable([
    VehicleState(id=0, location=ZoneId(0, 1), seats_total=4, trunk_total=5),
    VehicleState(id=1, location=ZoneId(2, 4), seats_total=4, trunk_total=5),
    VehicleState(id=2, location=ZoneId(4, 4), seats_total=4, trunk_total=0),  # no trunk space
], grid)

# the pool is every vehicle of the table, by id
for a in match(requests, range(len(fleet.vehicles)), fleet, grid, reject_radius=6, rng=rng):
    r = requests[a.request_id]
    print(f"request {a.request_id} ({r.kind:9s} at {tuple(r.origin)}) -> "
          f"vehicle {a.vehicle_id} in the {a.slot}, pickup eta {a.eta_ticks}")
print("request 3 stays queued: nothing within the reject radius.\n")

# full vehicles never accept more than their capacity
small = FleetTable([VehicleState(id=0, location=ZoneId(0, 0), seats_total=1, trunk_total=0)],
                   grid)
crowd = [Request(i, PASSENGER, ZoneId(0, i + 1), ZoneId(5, 5), 0, 1.0) for i in range(3)]
got = match(crowd, [0], small, grid, reject_radius=8, rng=rng)
print(f"one seat, three passengers: {len(got)} assignment ->",
      [(a.request_id, a.eta_ticks) for a in got])

"""Greedy request-to-vehicle assignment, nearest first.

The vehicles are a pool of ids into a ``FleetTable``, whose zone and free
seat and trunk columns give their positions and capacity as arrays.
Candidate (request, vehicle) pairs are those whose pickup ETA fits inside
the reject radius and whose slot type (seat for passengers, trunk for goods)
has free capacity. They come from one requests x vehicles matrix of
Manhattan distances, turned into ETAs by ceiling division by the vehicle
speed, so no per-pair Python runs. Pairs are consumed in ascending
(ETA, request id, vehicle id) order; when several vehicles tie at a
request's best ETA, one of them is drawn uniformly at random. Capacity is
decremented as assignments accrue, so a single call can never overbook a
vehicle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .demand import GOODS, PASSENGER, Request
from .fleet import FleetTable
from .geo import GridWorld

SEAT = "seat"
TRUNK = "trunk"


@dataclass(frozen=True)
class Assignment:
    request_id: int
    vehicle_id: int
    slot: str  # seat | trunk
    eta_ticks: int


def reject_radius_ticks(grid: GridWorld, reject_radius: float) -> int:
    """The pickup-ETA bound implied by a reject radius in zone-units."""
    return math.ceil(reject_radius / grid.vehicle_speed)


def match(
    requests: Sequence[Request],
    pool: Sequence[int],
    fleet: FleetTable,
    grid: GridWorld,
    reject_radius: float,
    rng: np.random.Generator,
) -> list[Assignment]:
    """Assign queued requests to the pool's vehicles (ids into ``fleet``, a
    table of this grid), minimizing pickup ETA greedily.

    Unassignable requests are simply left out; expiring them is the engine's
    job. Output order follows assignment order and is deterministic for a
    fixed rng state.
    """
    bound = reject_radius_ticks(grid, reject_radius)
    if not requests or not len(pool):
        return []
    origins = grid.require_all([r.origin for r in requests])
    pool = np.asarray(pool, dtype=np.intp)
    rows, cols = np.divmod(fleet.zone[pool], grid.width)
    seats, trunk = fleet.seats_free[pool], fleet.trunk_free[pool]

    dist = np.abs(origins[:, 0, None] - rows) + np.abs(origins[:, 1, None] - cols)
    eta = -(-dist // grid.vehicle_speed)
    is_passenger = np.array([r.kind == PASSENGER for r in requests])
    fits = np.where(is_passenger[:, None], seats > 0, trunk > 0)
    ri, vi = np.nonzero(fits & (eta <= bound))
    if not len(ri):
        return []
    etas = eta[ri, vi]
    rids = np.array([r.id for r in requests])[ri]
    order = np.lexsort((pool[vi], rids, etas))
    etas, rids, vi = etas[order], rids[order], vi[order]
    # one group per (ETA, request): that request's vehicles tied at that ETA
    starts = np.flatnonzero(np.r_[True, (etas[1:] != etas[:-1]) | (rids[1:] != rids[:-1])])
    ends = [*starts[1:].tolist(), len(vi)]
    vi = vi.tolist()

    # free capacity and ids by position in the pool
    seats_free, trunk_free, vehicle_ids = seats.tolist(), trunk.tolist(), pool.tolist()
    kind_of = {r.id: r.kind for r in requests}
    assigned: set = set()
    out: list[Assignment] = []
    for start, end, eta, rid in zip(starts.tolist(), ends, etas[starts].tolist(),
                                    rids[starts].tolist()):
        if rid in assigned:
            continue
        kind = kind_of[rid]
        free = seats_free if kind == PASSENGER else trunk_free
        tied = [k for k in vi[start:end] if free[k] > 0]
        if not tied:
            continue
        k = tied[0] if len(tied) == 1 else tied[int(rng.integers(len(tied)))]
        free[k] -= 1
        assigned.add(rid)
        out.append(Assignment(rid, vehicle_ids[k], SEAT if kind == PASSENGER else TRUNK, eta))
    return out

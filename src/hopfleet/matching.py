"""Greedy request-to-vehicle assignment, nearest first.

A queue is priced by its pickup zones and kind codes (indices into
``fleet.KINDS``) alone. The vehicles are a pool of ids into a
``FleetTable``, whose zone and free seat and trunk columns give their
positions and capacity as arrays; kind code k takes free-capacity column k,
as the order table counts them. Candidate (request, vehicle) pairs are
those whose pickup ETA, from one requests x vehicles matrix of distances
through ``geo.travel_ticks``, fits inside the bound and whose kind has free
capacity. Pairs are consumed in ascending (ETA, queue position, vehicle id)
order, so a request queued earlier wins a tie; when several vehicles tie at
a request's best ETA, one of them is drawn uniformly at random. Capacity is
decremented as assignments accrue, so a call can never overbook a vehicle.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .fleet import FleetTable
from .geo import travel_ticks


def match(origins: Sequence, pool: Sequence[int], fleet: FleetTable, kinds: Sequence[int],
          bound: int, rng: np.random.Generator) -> list[tuple]:
    """Assign the queue, in queue order, to the pool's vehicles (ids into
    ``fleet``), minimizing pickup ETA greedily. ``origins`` are the pickup
    zones (a relayed package is picked up where its current leg starts), the
    first off the grid raising InvalidZoneError, ``kinds`` their kind codes
    and ``bound`` the largest pickup ETA in ticks. Returns (queue position,
    vehicle id, ETA) rows in assignment order, deterministic for a fixed rng
    state; an unassignable request is left out for the engine to expire.
    """
    if not len(origins) or not len(pool):
        return []
    origins = fleet.grid.require_all(origins)
    pool = np.asarray(pool, dtype=np.intp)
    rows, cols = np.divmod(fleet.zone[pool], fleet.grid.width)
    free = np.stack((fleet.seats_free[pool], fleet.trunk_free[pool]))  # by kind code

    dist = np.abs(origins[:, 0, None] - rows) + np.abs(origins[:, 1, None] - cols)
    eta = travel_ticks(dist, fleet.grid.vehicle_speed)
    ri, vi = np.nonzero((free[np.asarray(kinds)] > 0) & (eta <= bound))
    if not len(ri):
        return []
    etas = eta[ri, vi]
    order = np.lexsort((pool[vi], ri, etas))
    etas, ri, vi = etas[order], ri[order], vi[order]
    # one group per (ETA, request): that request's vehicles tied at that ETA
    starts = np.flatnonzero(np.r_[True, (etas[1:] != etas[:-1]) | (ri[1:] != ri[:-1])])
    ends = [*starts[1:].tolist(), len(vi)]
    vi = vi.tolist()

    # free capacity by kind code, then position in the pool
    free, vehicle_ids = free.tolist(), pool.tolist()
    assigned: set = set()  # queue positions
    out: list[tuple] = []
    for start, end, eta, i in zip(starts.tolist(), ends, etas[starts].tolist(),
                                  ri[starts].tolist()):
        if i in assigned:
            continue
        left = free[kinds[i]]
        tied = [k for k in vi[start:end] if left[k] > 0]
        if not tied:
            continue
        k = tied[0] if len(tied) == 1 else tied[int(rng.integers(len(tied)))]
        left[k] -= 1
        assigned.add(i)
        out.append((i, vehicle_ids[k], eta))
    return out
